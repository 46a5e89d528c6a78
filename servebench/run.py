"""Serving benchmark: ``lion serve`` from the HTTP edge down to the IRLS kernel.

Run from the root of a checkout::

    python3 servebench/run.py --workload portal --seed 1 --seconds 48 --trace 0

One run:

1. generates and encodes every request body of the workload from the seed;
2. starts ``lion serve`` (CLI defaults, ephemeral port) three times; the
   median launch-to-``/readyz`` time is ``setup_s``;
3. warms each launch up, then drives it over loopback HTTP for a third of
   ``--seconds`` from this single-threaded process over the workload's
   keep-alive connections (two for ``portal``, one for ``survey``, never
   more than ``nproc``), and stops it with SIGTERM, checking the drain;
4. checks every answer; throughput and latency percentiles pool the
   three windows;
5. with ``--trace 1``, also replays a sample of the inputs down the
   per-layer ladder (``ladder.py``) and reports per-layer metrics instead
   of the end-to-end ones.

``RATIONALE.md`` says why the workloads and metrics are what they are.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value": ..., "unit": ...}}``).
Every process the run starts is stopped before it exits, also on SIGINT
and SIGTERM; a survivor makes the run fail. Exit codes: 0 done (the JSON
says whether the answers were correct), 1 run error, 2 bad checkout or
arguments, 3 a process outlived the run, 130/143 interrupted.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from httpload import Exchange, LoadClient, LoadRun
from serverproc import LionServer, descendants, http_get
from stats import add_delta, percentile, read_counters, share, summary, window_counters

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Server launches per run, so that ``setup_s`` is the median of three
#: set-up times. The run's window is split evenly over them.
SETUPS = 3

#: The latency tail reported as a metric. Not p99 or p95: host stalls and
#: slow phases move them more than the benchmark's bounds (RATIONALE.md).
TAIL_PERCENTILE = 90.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_share": "share",
    "error_p50_mm": "mm",
    "error_p90_mm": "mm",
    "peak_rss_mb": "MiB",
}

#: Per-layer times reported as median, ``.p99`` and ``.n`` (microseconds).
LAYER_TIMES = (
    "serve.net.http.added_us",
    "serve.net.protocol.parse_us",
    "serve.net.protocol.encode_us",
    "serve.net.supervisor.added_us",
    "serve.engine.added_us",
    "serve.batching.execute_batch_us",
    "core.batch_prepare.prepare_batch_us",
    "pipeline.estimate_us",
    "core.solvers.irls_us",
    "core.solvers.irls_f32_us",
    "core.sweep.fused_sweep_us",
    "stream.open_us",
    "stream.feed_us",
    "stream.close_us",
    "calib.resolver.resolve_us",
    "calib.store.commit_us",
)

#: Per-layer counts and shares read from the server over the window.
LAYER_COUNTS = {
    "serve.net.shed_share": "share",
    "serve.engine.batch_size_mean": "count",
    "serve.engine.scalar_fallback_share": "share",
    "serve.cache.hit_share": "share",
    "core.batch_prepare.template_hit_share": "share",
    "core.sweep.pair_hit_share": "share",
    "solver.iterations_mean": "count",
}

#: Per-layer counts the ladder reads off the layer it calls.
LADDER_COUNTS = {"stream.resolves_per_session": "count", "calib.resolver.hit_share": "share"}


class Interrupted(BaseException):
    """SIGINT or SIGTERM reached the benchmark."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


def _on_signal(signum: int, _frame: Any) -> None:
    # Ignore repeats so the cleanup below runs to the end.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise Interrupted(signum)


class Processes:
    """Everything this run started, stopped the same way on every exit path."""

    def __init__(self) -> None:
        self.servers: List[LionServer] = []
        self.stopped: set[int] = set()
        self.ladder: Any = None

    def stop_server(self, server: LionServer) -> List[Dict[str, Any]]:
        self.stopped.add(id(server))
        return server.stop()

    def close(self) -> List[str]:
        """Stop what is still running; return what could not be stopped cleanly."""
        problems: List[str] = []
        for server in self.servers:
            if id(server) in self.stopped:
                continue
            self.stopped.add(id(server))
            try:
                server.stop()
            except RuntimeError as error:
                problems.append(str(error))
                server.kill()
        if self.ladder is not None:
            try:
                self.ladder.close()
            except RuntimeError as error:
                problems.append(str(error))
        try:
            from multiprocessing import resource_tracker

            resource_tracker._resource_tracker._stop()
        except (ImportError, AttributeError, OSError, ChildProcessError):
            pass
        return problems

    def survivors(self) -> List[int]:
        """Processes that outlived the run: the servers' sessions, our descendants.

        Survivors are killed, but the run still fails.
        """
        left: set[int] = set()
        for server in self.servers:
            stragglers = server.wait_gone()
            if stragglers:
                left.update(stragglers)
                server.kill()
        left.update(descendants(os.getpid()))
        return sorted(left)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def _error_sample(workload: Any, runs: List[LoadRun], verdicts: List[Any]) -> List[float]:
    """Errors (m) of the first scored answers of each window and connection.

    A fixed prefix (by op index in the open loop, by send order on each
    connection otherwise) makes the error metrics a function of the seed
    and the answers alone, not of how many ops a window held.
    """
    per_stream = -(-workload.error_ops // (len(runs) * (1 if workload.open_loop else workload.connections)))
    errors: List[float] = []
    offset = 0
    for run in runs:
        scored = [
            (exchange.op.index if workload.open_loop else exchange.sent, exchange.conn, verdict.error_m)
            for exchange, verdict in zip(run.exchanges, verdicts[offset:offset + len(run.exchanges)])
            if verdict.ok and verdict.error_m is not None
        ]
        offset += len(run.exchanges)
        taken: Dict[int, int] = {}
        for _, conn, error in sorted(scored):
            stream = 0 if workload.open_loop else conn
            if taken.get(stream, 0) < per_stream:
                taken[stream] = taken.get(stream, 0) + 1
                errors.append(error)
    return errors


@dataclass
class Score:
    """What the checked exchanges of a run's windows add up to."""

    attempted: int
    wrong: int
    failed: int
    reasons: List[str]
    latencies_ms: List[float]
    errors_mm: List[float]
    ops_per_s: float
    #: ``(ops per second, p50, p90 and p99 latency ms)`` of each window.
    windows: List[Tuple[float, float, float, float]]


def score(workload: Any, runs: List[LoadRun], verdicts: List[Any]) -> Score:
    """Count, time and score the windows; only correct answers are timed.

    ``verdicts`` follow the runs' exchanges in order. A failed, refused or
    wrong answer, and an op left unsent, counts as attempted and failed and
    adds no latency sample. Throughput and the latency percentiles pool
    the windows (one per server launch).
    """
    exchanges = [exchange for run in runs for exchange in run.exchanges]
    unsent = sum(len(run.unsent) for run in runs)
    wrong = sum(1 for verdict in verdicts if not verdict.ok)
    reasons = sorted({verdict.reason for verdict in verdicts if not verdict.ok})[:10]
    if unsent:
        reasons.append(f"{unsent} ops left unsent")
    answered, busy, latencies, windows = 0, 0.0, [], []
    offset = 0
    for run in runs:
        ok = [
            exchange
            for exchange, verdict in zip(run.exchanges, verdicts[offset:offset + len(run.exchanges)])
            if verdict.ok
        ]
        offset += len(run.exchanges)
        # Correct answers over the time taken to give them: the window, or
        # longer when the last answers arrive after it closes.
        busy_s = max([run.ended] + [exchange.done for exchange in ok]) - run.started
        busy += busy_s
        answered += len(ok)
        window_ms = [exchange.latency_s * 1e3 for exchange in ok]
        latencies.extend(window_ms)
        tails = [percentile(window_ms, q) for q in (50.0, TAIL_PERCENTILE, 99.0)]
        windows.append((len(ok) / busy_s, *tails))
    return Score(
        attempted=len(exchanges) + unsent,
        wrong=wrong,
        failed=wrong + unsent,
        reasons=reasons,
        latencies_ms=latencies,
        errors_mm=[error * 1e3 for error in _error_sample(workload, runs, verdicts)],
        ops_per_s=answered / busy,
        windows=windows,
    )


def measure(args: argparse.Namespace, procs: Processes, workdir: Path) -> Dict[str, Any]:
    """One run; returns the result object.

    The window is split over the server launches, so one launch's luck
    (its placement on the cores, its warm caches) weighs a third.
    """
    import workloads

    phases: Dict[str, float] = {}
    mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = phases.get(name, 0.0) + now - mark
        mark = now

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    warmups = [workload.warmup_source() for _ in range(SETUPS)]
    sources = workload.window_sources(SETUPS)
    segment_s = args.seconds / SETUPS
    reference = None
    if args.trace:
        import ladder

        reference = ladder.prepare_references(workload)
    phase("generate")

    traced = None
    if args.trace:
        # Alternate untraced and traced quarters of each window; the
        # difference is the benchmark's own tracing overhead.
        def traced(elapsed: float) -> bool:
            return int(4 * elapsed / segment_s) % 2 == 1

    setups: List[float] = []
    runs: List[LoadRun] = []
    rss: List[float] = []
    drains: List[Any] = []
    delta: Dict[Any, float] = {}
    server_traces: List[Any] = []
    for launch in range(SETUPS):
        server = LionServer(ROOT, workdir, f"server-{launch}")
        procs.servers.append(server)
        setups.append(server.start())
        print(
            f"servebench: launch {launch + 1}/{SETUPS} ready in {setups[-1]:.3f}s pid={server.pid}",
            flush=True,
        )
        phase("launch")
        with LoadClient(server.port, workload.connections) as client:
            client.run(warmups[launch], None)
            before = read_counters(server.port) if args.trace else {}
            phase("warm-up")
            print(f"servebench: window {launch + 1}/{SETUPS} open for {segment_s:g}s", flush=True)
            # No collector pauses in the client while it keeps time.
            gc.collect()
            gc.freeze()
            gc.disable()
            try:
                runs.append(
                    client.run(sources[launch], segment_s, traced=traced, open_loop=workload.open_loop)
                )
            finally:
                gc.enable()
                gc.unfreeze()
        phase("window")
        if args.trace:
            add_delta(delta, before, read_counters(server.port))
            status, body = http_get(server.port, "/debug/traces", timeout=30.0)
            if status == 200:
                server_traces.extend(json.loads(body).get("traces", []))
        rss.append(server.peak_rss_mb())
        drains.append(procs.stop_server(server))
        phase("stop")

    if any(run.exhausted for run in runs):
        raise RuntimeError("an op stream ran dry inside the window; size its pool up")
    exchanges = [exchange for run in runs for exchange in run.exchanges]
    verdicts = workload.check(exchanges)
    scored = score(workload, runs, verdicts)
    if scored.attempted == 0:
        raise RuntimeError("no op was attempted in the window")
    phase("check")
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "connections": workload.connections,
        "setups_s": setups,
        "latency_samples": len(scored.latencies_ms),
        "error_samples": len(scored.errors_mm),
        "drains": drains,
        "failure_reasons": scored.reasons,
        "windows": scored.windows,
        "latency_p99_ms": percentile(scored.latencies_ms, 99.0),
        "phases_s": phases,
    }
    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": scored.ops_per_s,
            "latency_p50_ms": percentile(scored.latencies_ms, 50.0),
            "latency_p90_ms": percentile(scored.latencies_ms, TAIL_PERCENTILE),
            "ok_share": (scored.attempted - scored.failed) / scored.attempted,
            "error_p50_mm": percentile(scored.errors_mm, 50.0),
            "error_p90_mm": percentile(scored.errors_mm, 90.0),
            "peak_rss_mb": statistics.median(rss),
        }
        out = {name: _metric(metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}
    else:
        import ladder

        assert reference is not None
        counters = window_counters(delta)
        spans = ladder.SpanLog()
        rungs = ladder.Ladder(spans, counters["fused_batch_mean"])
        procs.ladder = rungs
        ladder.run_ladder(rungs, workload, exchanges, verdicts, reference)
        out = layer_metrics(rungs, counters, exchanges, verdicts)
        phase("ladder")
        report["ladder_samples"] = {name: len(values) for name, values in rungs.samples.items()}
        trace_path = ROOT / ".bench_build" / "servebench" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(
            json.dumps(
                {
                    "client": [_client_span(exchange) for exchange in exchanges if exchange.request_id],
                    "ladder": spans.spans,
                    "server": server_traces,
                }
            )
        )
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    return {
        "report": report,
        # An op the generator never got out is a failure, not a wrong answer.
        "correct": scored.wrong == 0,
        "attempted": scored.attempted,
        "failed": scored.failed,
        "metrics": out,
    }


def _client_span(exchange: Exchange) -> Dict[str, Any]:
    return {
        "name": "http.exchange",
        "request_id": exchange.request_id,
        "kind": exchange.op.kind,
        "start_s": exchange.sent,
        "end_s": exchange.done,
        "status": exchange.status,
    }


def layer_metrics(
    rungs: Any, counters: Dict[str, float], exchanges: List[Exchange], verdicts: List[Any]
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics: ladder samples plus the server's window counters."""
    out: Dict[str, Dict[str, Any]] = {}
    for name in LAYER_TIMES:
        median, p99, count = summary(rungs.samples.get(name, []))
        out[name] = _metric(median, "us")
        out[f"{name}.p99"] = _metric(p99, "us")
        out[f"{name}.n"] = _metric(count, "count")
    wait_sum, wait_count = counters["batch_wait_sum_s"], counters["batch_wait_count"]
    out["serve.engine.batch_wait_ms"] = _metric(1e3 * share(wait_sum, wait_count), "ms")
    out["serve.engine.batch_wait_ms.n"] = _metric(wait_count, "count")
    for name, unit in LAYER_COUNTS.items():
        out[name] = _metric(counters[name], unit)
    for name, unit in LADDER_COUNTS.items():
        out[name] = _metric(rungs.counts[name], unit)
    lags = [exchange.lag_s * 1e3 for exchange in exchanges]
    out["loadgen.lag_p99_ms"] = _metric(percentile(lags, 99.0), "ms")
    traced_ms, plain_ms = [], []
    for exchange, verdict in zip(exchanges, verdicts):
        if verdict.ok:
            (traced_ms if exchange.request_id else plain_ms).append(exchange.latency_s * 1e3)
    plain_p50 = percentile(plain_ms, 50.0)
    overhead = percentile(traced_ms, 50.0) / plain_p50 - 1.0 if plain_p50 > 0 else 0.0
    out["tracing.overhead_share"] = _metric(overhead, "share")
    return out


def _print_human(result: Dict[str, Any]) -> None:
    report = result["report"]
    print(
        f"servebench: {report['workload']} seed={report['seed']} seconds={report['seconds']} "
        f"connections={report['connections']} attempted={result['attempted']} "
        f"failed={result['failed']} latency_samples={report['latency_samples']} "
        f"error_samples={report['error_samples']}"
    )
    windows = ["(" + ", ".join(f"{value:.2f}" for value in window) + ")" for window in report["windows"]]
    print("servebench: windows (ops/s, p50 ms, p90 ms, p99 ms): " + ", ".join(windows))
    print(
        f"servebench: whole run p99 {report['latency_p99_ms']:.2f} ms "
        f"over {report['latency_samples']} answers (printed, not a metric)"
    )
    phases = ", ".join(f"{name} {secs:.2f}" for name, secs in report["phases_s"].items())
    print(f"servebench: phases (s): {phases}")
    if report["failure_reasons"]:
        print(f"servebench: failures: {report['failure_reasons']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("portal", "survey"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servebench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    workdir = ROOT / ".bench_build" / f"servebench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    procs = Processes()
    result: Optional[Dict[str, Any]] = None
    code = 0
    try:
        result = measure(args, procs, workdir)
    except Interrupted as interrupted:
        print(f"servebench: interrupted by signal {interrupted.signum}", file=sys.stderr)
        code = 128 + interrupted.signum
    except Exception:  # noqa: BLE001 - report, clean up, exit non-zero
        traceback.print_exc()
        code = 1
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        problems = procs.close()
        survivors = procs.survivors()
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"servebench: {problem}", file=sys.stderr)
        if result is not None:
            result["correct"] = False
    if survivors:
        print(f"servebench: FAILED: processes outlived the run: {survivors}", file=sys.stderr)
        return 3
    if code or result is None:
        return code or 1
    _print_human(result)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
