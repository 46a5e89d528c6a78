"""Command-line interface.

Figure regeneration::

    lion list                      # show available figure ids
    lion run fig13a                # regenerate one figure
    lion run all --fast --seed 3   # everything, CI-sized
    lion --jobs 4 run all --fast   # same, fanned out over 4 processes

Data tooling (CSV read-record workflow, see repro.datasets.io)::

    lion simulate --scenario conveyor --out scan.csv --seed 5
    lion locate scan.csv --dim 2
    lion locate scan.csv --estimator hologram --estimator-config '{"grid_size_m": 0.005}'
    lion estimators                # list registered estimation methods
    lion calibrate scan.csv --physical-center 0,0.8,0 --scenario three-line

Streaming sessions (repro.stream, docs/serving.md)::

    lion replay scan.csv                   # replay at max speed + verify
    lion replay scan.csv --speed 2 --events  # 2x wall clock, print events

Serving (docs/serving.md)::

    lion serve --port 8321 --shards 4              # networked sharded front end
    lion serve --calibration-store fleet/          # + /v1/calibrations surface
    lion serve-bench --quick                       # engine load test, CI sizing
    lion serve-bench --batch-sizes 1,8,32 --out BENCH_serve.json

Fleet calibration registry (docs/calibration.md)::

    lion calib init fleet/ --size 10 --seed 0      # seed-calibrate a fleet
    lion calib status fleet/                       # fleet health (age + drift)
    lion calib recalibrate fleet/ --drift-hours 6  # drift, detect, recalibrate
    lion calib history fleet/ ant-003              # version history

Observability (docs/observability.md)::

    lion run fig13a --trace                     # print the span tree
    lion run fig13a --metrics-out metrics.json  # metrics + RunManifest
    lion run all --fast --log-level info        # structured repro.* logs
    lion top http://127.0.0.1:8321              # live serving telemetry + SLOs

``python -m repro ...`` is equivalent to ``lion ...``.
"""

from __future__ import annotations

import argparse
from typing import Sequence

import numpy as np

from repro.experiments.figures import FIGURE_RUNNERS, run_figure
from repro.obs import configure_logging, get_logger

_logger = get_logger("repro.cli")


def _obs_parent_parser() -> argparse.ArgumentParser:
    """Observability flags, attachable to the main parser and every subcommand.

    Registering the flags on both levels lets them appear before or after
    the subcommand (``lion --trace run fig13a`` / ``lion run fig13a
    --trace``).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace",
        action="store_true",
        help="record tracing spans and print the trace tree after the command",
    )
    parent.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="record metrics and write them (with a RunManifest) as JSON to PATH",
    )
    parent.add_argument(
        "--log-level",
        metavar="LEVEL",
        help="log level for the repro.* logger hierarchy (debug/info/warning/error)",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    obs_parent = _obs_parent_parser()
    parser = argparse.ArgumentParser(
        prog="lion",
        parents=[obs_parent],
        description=(
            "LION (ICDCS 2022) reproduction: regenerate evaluation figures "
            "and run the localization/calibration pipeline on CSV scans."
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help=(
            "worker count for parallel work (figure fan-out, Monte-Carlo "
            "studies); defaults to $LION_JOBS or the CPU count"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available figure ids", parents=[obs_parent])

    run_parser = subparsers.add_parser(
        "run", help="run one figure (or 'all')", parents=[obs_parent]
    )
    run_parser.add_argument(
        "figure", help=f"figure id ({', '.join(sorted(FIGURE_RUNNERS))}) or 'all'"
    )
    run_parser.add_argument("--seed", type=int, default=0, help="random seed")
    run_parser.add_argument(
        "--fast",
        action="store_true",
        help="CI-sized run: fewer repetitions, coarser hologram grids",
    )
    run_parser.add_argument(
        "--plot",
        action="store_true",
        help="render an ASCII plot of each figure's numeric series",
    )
    run_parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the result(s) as JSON (one object, or a list for 'all')",
    )

    simulate_parser = subparsers.add_parser(
        "simulate",
        help="simulate a scan and write it as a read-record CSV",
        parents=[obs_parent],
    )
    simulate_parser.add_argument(
        "--scenario",
        choices=("conveyor", "three-line", "turntable"),
        default="conveyor",
        help="scan geometry (default: conveyor)",
    )
    simulate_parser.add_argument("--out", required=True, help="output CSV path")
    simulate_parser.add_argument("--seed", type=int, default=0, help="random seed")
    simulate_parser.add_argument(
        "--depth", type=float, default=0.8, help="antenna depth in meters"
    )
    simulate_parser.add_argument(
        "--noise", type=float, default=0.08, help="base phase-noise sigma (rad)"
    )

    locate_parser = subparsers.add_parser(
        "locate",
        help="locate the antenna from a read-record CSV",
        parents=[obs_parent],
    )
    locate_parser.add_argument("csv", help="input CSV (from 'lion simulate' or a logger)")
    locate_parser.add_argument(
        "--estimator",
        default="lion",
        metavar="NAME",
        help="registered estimation method (see 'lion estimators'; default: lion)",
    )
    locate_parser.add_argument(
        "--estimator-config",
        metavar="JSON",
        help=(
            "JSON object of config overrides for the estimator "
            "(keys follow its typed config, e.g. '{\"interval_m\": 0.2}')"
        ),
    )
    locate_parser.add_argument("--dim", type=int, choices=(2, 3), default=2)
    locate_parser.add_argument(
        "--interval", type=float, default=0.25, help="scanning interval (m)"
    )
    locate_parser.add_argument(
        "--method", choices=("wls", "ls"), default="wls", help="solver"
    )

    subparsers.add_parser(
        "estimators",
        help="list registered estimation methods and their config keys",
        parents=[obs_parent],
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="networked sharded serving front end (docs/serving.md)",
        parents=[obs_parent],
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="listen address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8321, help="listen port; 0 picks an ephemeral port"
    )
    serve_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="worker count; requests route by (estimator, config_hash)",
    )
    serve_parser.add_argument(
        "--worker-mode",
        choices=("process", "thread"),
        default="process",
        help="worker hosting mode (thread is for tests/debugging)",
    )
    serve_parser.add_argument(
        "--max-batch-size", type=int, default=32, help="per-shard fused batch bound"
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="per-shard load-shedding bound; beyond it requests get 429",
    )
    serve_parser.add_argument(
        "--drain-grace-s",
        type=float,
        default=0.0,
        help="seconds /readyz reports draining before the listener closes",
    )
    serve_parser.add_argument(
        "--calibration-store",
        metavar="DIR",
        help=(
            "calibration store directory; enables /v1/calibrations, fleet "
            "health in /statz, and 'antennas' resolution on /v1/locate"
        ),
    )
    serve_parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable the /metrics exporter and per-shard instrumentation",
    )
    serve_parser.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable request tracing (stitched traces, /debug/traces)",
    )
    serve_parser.add_argument(
        "--trace-slow-ms",
        type=float,
        default=250.0,
        help=(
            "flight-recorder slow threshold in milliseconds; successful "
            "requests at least this slow are retained (0 records all)"
        ),
    )
    serve_parser.add_argument(
        "--slo-p99-ms",
        type=float,
        default=250.0,
        help="latency SLO: p99 of /v1/locate must stay at or under this (ms)",
    )
    serve_parser.add_argument(
        "--slo-error-rate",
        type=float,
        default=0.01,
        help="error SLO: max allowed 5xx fraction of /v1/locate responses",
    )

    top_parser = subparsers.add_parser(
        "top",
        help="live serving telemetry: poll /debug/timeseries and /slo",
        parents=[obs_parent],
    )
    top_parser.add_argument(
        "url", help="server base URL, e.g. http://127.0.0.1:8321"
    )
    top_parser.add_argument(
        "--interval", type=float, default=1.0, help="poll interval in seconds"
    )
    top_parser.add_argument(
        "--window",
        type=float,
        default=60.0,
        help="trailing history window to render (seconds)",
    )
    top_parser.add_argument(
        "--once", action="store_true", help="print one snapshot and exit (no loop)"
    )

    serve_bench_parser = subparsers.add_parser(
        "serve-bench",
        help="load-test the micro-batching serving engine (docs/serving.md)",
        parents=[obs_parent],
    )
    serve_bench_parser.add_argument(
        "--requests", type=int, default=256, help="requests per batch-size replay"
    )
    serve_bench_parser.add_argument(
        "--reads", type=int, default=400, help="reads per scan (paper scale: 400)"
    )
    serve_bench_parser.add_argument(
        "--batch-sizes",
        default="1,8,32",
        metavar="N,N,...",
        help="max_batch_size settings to measure (default: 1,8,32)",
    )
    serve_bench_parser.add_argument("--seed", type=int, default=0, help="random seed")
    serve_bench_parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizing (64 requests)"
    )
    serve_bench_parser.add_argument(
        "--out", metavar="PATH", help="also write the payload as JSON to PATH"
    )

    replay_parser = subparsers.add_parser(
        "replay",
        help="replay a recorded CSV through the streaming session layer",
        parents=[obs_parent],
    )
    replay_parser.add_argument("csv", help="input CSV (from 'lion simulate' or a logger)")
    replay_parser.add_argument(
        "--speed",
        type=float,
        default=None,
        metavar="FACTOR",
        help=(
            "replay at wall clock scaled by FACTOR (1.0 = real time, 2 = twice "
            "as fast); omitted replays at max speed"
        ),
    )
    replay_parser.add_argument(
        "--estimator",
        default="lion",
        metavar="NAME",
        help="estimation method per session (see 'lion estimators'; default: lion)",
    )
    replay_parser.add_argument(
        "--estimator-config",
        metavar="JSON",
        help="JSON object of config overrides for the estimator",
    )
    replay_parser.add_argument("--dim", type=int, choices=(2, 3), default=2)
    replay_parser.add_argument(
        "--chunk", type=int, default=32, help="reads per feed chunk (default: 32)"
    )
    replay_parser.add_argument(
        "--events", action="store_true", help="print every lifecycle event"
    )
    replay_parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the bit-identity check against a one-shot solve",
    )

    calib_parser = subparsers.add_parser(
        "calib",
        help="fleet calibration registry (docs/calibration.md)",
        parents=[obs_parent],
    )
    calib_sub = calib_parser.add_subparsers(dest="calib_command", required=True)

    calib_init = calib_sub.add_parser(
        "init",
        help="create a store and seed-calibrate a simulated fleet",
        parents=[obs_parent],
    )
    calib_init.add_argument("store", help="calibration store directory (created)")
    calib_init.add_argument(
        "--size", type=int, default=10, help="fleet size (default: 10)"
    )
    calib_init.add_argument("--seed", type=int, default=0, help="fleet random seed")
    calib_init.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default="process",
        help="how calibration scans fan out (default: process)",
    )

    calib_status = calib_sub.add_parser(
        "status",
        help="fleet health: versions, age, staleness verdicts",
        parents=[obs_parent],
    )
    calib_status.add_argument("store", help="calibration store directory")
    calib_status.add_argument(
        "--max-age-s",
        type=float,
        default=24.0 * 3600.0,
        help="staleness age budget in seconds (default: 86400)",
    )
    calib_status.add_argument(
        "--json", action="store_true", help="print the health payload as JSON"
    )

    calib_recal = calib_sub.add_parser(
        "recalibrate",
        help="advance the simulated fleet drift and recalibrate stale antennas",
        parents=[obs_parent],
    )
    calib_recal.add_argument("store", help="calibration store directory")
    calib_recal.add_argument(
        "--drift-hours",
        type=float,
        default=0.0,
        help="simulated drift to apply before recalibrating (hours)",
    )
    calib_recal.add_argument(
        "--antennas",
        metavar="NAME,NAME,...",
        help="recalibrate only these antennas (default: all)",
    )
    calib_recal.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default="process",
        help="how calibration scans fan out (default: process)",
    )

    calib_history = calib_sub.add_parser(
        "history",
        help="print every committed version of one antenna",
        parents=[obs_parent],
    )
    calib_history.add_argument("store", help="calibration store directory")
    calib_history.add_argument("antenna", help="antenna name, e.g. ant-003")

    calibrate_parser = subparsers.add_parser(
        "calibrate",
        help="full phase calibration from a read-record CSV",
        parents=[obs_parent],
    )
    calibrate_parser.add_argument("csv", help="input CSV of a three-line scan")
    calibrate_parser.add_argument(
        "--physical-center",
        required=True,
        help="manually measured center as 'x,y,z' (meters)",
    )
    calibrate_parser.add_argument(
        "--scenario",
        choices=("three-line",),
        default="three-line",
        help="scan geometry used to rebuild segment structure",
    )
    return parser


def _parse_center(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise SystemExit(f"--physical-center must be 'x,y,z', got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as error:
        raise SystemExit(f"bad --physical-center {text!r}: {error}") from error


def _plot_result(result) -> None:
    """Best-effort ASCII plot of a figure's first numeric x/y columns."""
    from repro.viz import line_plot, sparkline

    numeric_columns = [
        name
        for name in result.columns
        if all(isinstance(row.get(name), (int, float)) for row in result.rows)
        and len(result.rows) > 1
    ]
    if len(numeric_columns) >= 2:
        x_name, y_name = numeric_columns[0], numeric_columns[1]
        x = [float(row[x_name]) for row in result.rows]
        y = [float(row[y_name]) for row in result.rows]
        print(line_plot(x, y, title=f"{y_name} vs {x_name}"))
    elif len(numeric_columns) == 1:
        name = numeric_columns[0]
        values = [float(row[name]) for row in result.rows]
        print(f"{name}: {sparkline(values)}")


def _command_run(args: argparse.Namespace) -> int:
    import functools

    from repro.parallel import get_executor, resolve_jobs

    figure_ids = sorted(FIGURE_RUNNERS) if args.figure == "all" else [args.figure]
    unknown = [figure_id for figure_id in figure_ids if figure_id not in FIGURE_RUNNERS]
    if unknown:
        _logger.error("unknown figure %r; try 'lion list'", unknown[0])
        return 2
    # Figures are independent; with more than one figure and more than one
    # worker, fan them out over a process pool. Each runner is seeded
    # independently, so the results match the serial run exactly.
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as error:
        _logger.error("cannot resolve worker count: %s", error)
        return 2
    backend = "process" if len(figure_ids) > 1 and jobs > 1 else "serial"
    runner = functools.partial(run_figure, seed=args.seed, fast=args.fast)
    results = get_executor(backend, jobs=jobs).map(runner, figure_ids)
    for result in results:
        print(result.format_table())
        if getattr(args, "plot", False):
            _plot_result(result)
        print()
    if getattr(args, "json", None):
        import json
        from pathlib import Path

        payload = (
            results[0].to_dict() if len(results) == 1 else [r.to_dict() for r in results]
        )
        Path(args.json).write_text(json.dumps(payload, indent=2))
        print(f"wrote JSON to {args.json}")
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from repro.datasets.io import write_records_csv
    from repro.datasets.synthetic import default_antenna, simulate_scan
    from repro.rf.noise import SnrScaledPhaseNoise
    from repro.trajectory.circular import CircularTrajectory
    from repro.trajectory.linear import LinearTrajectory
    from repro.trajectory.multiline import ThreeLineScan

    rng = np.random.default_rng(args.seed)
    antenna = default_antenna((0.0, args.depth, 0.0), rng, name="cli-antenna")
    if args.scenario == "conveyor":
        trajectory = LinearTrajectory((-0.6, 0.0, 0.0), (0.6, 0.0, 0.0))
    elif args.scenario == "three-line":
        trajectory = ThreeLineScan(-0.55, 0.55)
    else:
        trajectory = CircularTrajectory((0.0, 0.0, 0.0), radius=0.2)
    scan = simulate_scan(
        trajectory,
        antenna,
        rng=rng,
        noise=SnrScaledPhaseNoise(
            base_std_rad=args.noise, reference_distance_m=args.depth
        ),
    )
    write_records_csv(scan.records, args.out)
    print(f"wrote {len(scan.records)} reads to {args.out}")
    print(f"scenario: {args.scenario}; antenna physical center (0, {args.depth}, 0)")
    print(
        "hidden truth: phase center "
        f"{np.round(antenna.phase_center, 4).tolist()}, "
        f"offset {antenna.phase_offset_rad:.3f} rad"
    )
    return 0


def _locate_config(args: argparse.Namespace) -> dict:
    """Merge the locate flags with any ``--estimator-config`` JSON.

    The convenience flags (``--dim``/``--interval``/``--method``) only
    apply when the chosen method's config actually has those knobs, so
    ``--estimator hologram`` works without fighting LION-specific flags.
    Explicit JSON keys always win over the flags.
    """
    import dataclasses
    import json

    from repro import pipeline

    field_names = {
        field.name for field in dataclasses.fields(pipeline.get_spec(args.estimator).config_cls)
    }
    flag_values = {"dim": args.dim, "interval_m": args.interval, "method": args.method}
    config = {key: value for key, value in flag_values.items() if key in field_names}
    if args.estimator_config:
        overrides = json.loads(args.estimator_config)
        if not isinstance(overrides, dict):
            raise ValueError("--estimator-config must be a JSON object")
        config.update(overrides)
    return config


def _command_locate(args: argparse.Namespace) -> int:
    from repro import pipeline
    from repro.datasets.io import read_records_csv

    records = read_records_csv(args.csv)
    positions = np.array([r.tag_position for r in records])
    phases = np.array([r.phase_rad for r in records])
    try:
        config = _locate_config(args)
        report = pipeline.estimate(
            args.estimator,
            pipeline.EstimationRequest(positions=positions, phases_rad=phases),
            config,
        )
    except (KeyError, ValueError) as error:
        _logger.error("localization failed: %s", error)
        return 1
    print(f"reads: {len(records)} from antenna {records[0].antenna!r}")
    print(f"estimator: {report.estimator} (config hash {report.config_hash[:12]})")
    print(f"estimated position: {np.round(report.position, 4).tolist()}")
    if report.reference_distance_m is not None:
        print(f"reference distance: {report.reference_distance_m:.4f} m")
    recovered_axis = report.diagnostics.get("recovered_axis")
    if recovered_axis is not None:
        print(f"axis {recovered_axis} recovered from d_r (lower-dimension)")
    mean_abs = report.diagnostics.get("mean_abs_residual")
    if mean_abs is not None:
        print(f"mean |residual|: {mean_abs * 1000:.3f} mm")
    return 0


def _command_estimators() -> int:
    import dataclasses

    from repro import pipeline

    for name, summary in pipeline.list_estimators().items():
        keys = ", ".join(
            field.name for field in dataclasses.fields(pipeline.get_spec(name).config_cls)
        )
        print(f"{name:20s} {summary}")
        print(f"{'':20s}   config keys: {keys}")
    return 0


def _command_serve_bench(args: argparse.Namespace) -> int:
    import json

    from repro.serve.bench import run_load

    try:
        batch_sizes = tuple(int(part) for part in args.batch_sizes.split(",") if part)
    except ValueError:
        _logger.error("--batch-sizes must be comma-separated integers, got %r", args.batch_sizes)
        return 2
    if not batch_sizes or any(size <= 0 for size in batch_sizes):
        _logger.error("--batch-sizes must be positive integers, got %r", args.batch_sizes)
        return 2
    requests = 64 if args.quick else args.requests
    payload = run_load(
        requests=requests,
        reads=args.reads,
        batch_sizes=batch_sizes,
        seed=args.seed,
    )
    print(f"== serve-bench: {requests} requests x {args.reads} reads ==")
    for size in batch_sizes:
        stats = payload["batch"][str(size)]
        print(
            f"  batch {size:>3}: {stats['requests_per_sec']:9.1f} req/s   "
            f"p50 {stats['p50_ms']:8.2f} ms   p99 {stats['p99_ms']:8.2f} ms"
        )
    for key, value in sorted(payload.items()):
        if key.startswith("speedup_"):
            print(f"  {key}: {value:.2f}x")
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.engine import ServeConfig
    from repro.serve.net import NetServeConfig, run_server

    try:
        config = NetServeConfig(
            host=args.host,
            port=args.port,
            shards=args.shards,
            engine=ServeConfig(max_batch_size=args.max_batch_size),
            worker_mode=args.worker_mode,
            max_inflight_per_shard=args.max_inflight,
            drain_grace_s=args.drain_grace_s,
            metrics=not args.no_metrics,
            tracing=not args.no_tracing,
            recorder_slow_ms=args.trace_slow_ms,
            slo_p99_ms=args.slo_p99_ms,
            slo_error_rate=args.slo_error_rate,
            calibration_store=args.calibration_store,
        )
    except ValueError as error:
        _logger.error("bad serve configuration: %s", error)
        return 2
    return run_server(config)


def _fetch_json(url: str, timeout: float = 5.0) -> dict:
    import json as json_module
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json_module.loads(response.read())


def _render_top(
    url: str, timeseries: dict, slo: dict, window_s: float
) -> str:
    """One ``lion top`` frame from /debug/timeseries and /slo payloads."""
    from repro.viz import sparkline

    samples = timeseries.get("samples", [])
    lines = [
        f"lion top — {url}  window={window_s:g}s  "
        f"samples={len(samples)}  slo={slo.get('state', '?')}"
    ]
    latest = samples[-1] if samples else {}

    def series(key: str) -> list:
        return [s[key] or 0.0 for s in samples]

    if samples:
        for key, label, unit in (
            ("req_s", "req/s ", ""),
            ("err_s", "err/s ", ""),
            ("shed_s", "shed/s", ""),
            ("p99_ms", "p99   ", " ms"),
            ("inflight", "infl  ", ""),
            ("queue_depth", "queue ", ""),
        ):
            values = series(key)
            current = latest.get(key)
            shown = "-" if current is None else f"{current:g}{unit}"
            lines.append(f"  {label} {sparkline(values, width=48)}  {shown}")
    else:
        lines.append("  (no samples yet — is the server receiving traffic?)")
    for objective in slo.get("objectives", []):
        hot = [w for w in objective.get("windows", []) if w.get("burning")]
        burn = max((w["burn_rate"] for w in objective.get("windows", [])), default=0.0)
        lines.append(
            f"  slo {objective['name']}: {objective['state']}  "
            f"budget_remaining={objective.get('budget_remaining')}  "
            f"max_burn={burn:g}"
            + (f"  burning_windows={[w['window_s'] for w in hot]}" if hot else "")
        )
    return "\n".join(lines)


def _command_top(args: argparse.Namespace) -> int:
    # URLError subclasses OSError, so one except arm covers refused
    # connections, timeouts, and DNS failures alike.
    import time

    if args.interval <= 0:
        _logger.error("--interval must be positive, got %s", args.interval)
        return 2
    if args.window <= 0:
        _logger.error("--window must be positive, got %s", args.window)
        return 2
    base = args.url.rstrip("/")
    while True:
        try:
            timeseries = _fetch_json(f"{base}/debug/timeseries?window={args.window:g}")
            slo = _fetch_json(f"{base}/slo")
        except OSError as error:
            _logger.error("cannot reach %s: %s", base, error)
            return 1
        frame = _render_top(base, timeseries, slo, args.window)
        if args.once:
            print(frame)
            return 0
        # ANSI clear + home keeps the frame in place like top(1).
        print(f"\x1b[2J\x1b[H{frame}", flush=True)
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _command_replay(args: argparse.Namespace) -> int:
    """Replay a recorded CSV through the streaming session layer.

    Exit code 1 when any session's final windowed re-solve fails the
    bit-identity check against the one-shot solve of the same window.
    """
    import json

    from repro.datasets.io import read_records_csv, session_streams
    from repro.stream import SessionEvent, StreamConfig, replay_records

    if args.speed is not None and args.speed <= 0:
        _logger.error("--speed must be positive, got %s", args.speed)
        return 2
    if args.chunk <= 0:
        _logger.error("--chunk must be positive, got %s", args.chunk)
        return 2
    estimator_config = None
    if args.estimator_config:
        estimator_config = json.loads(args.estimator_config)
        if not isinstance(estimator_config, dict):
            _logger.error("--estimator-config must be a JSON object")
            return 2

    records = read_records_csv(args.csv)
    streams = session_streams(records, dim=args.dim)
    try:
        config = StreamConfig(estimator=args.estimator, estimator_config=estimator_config)
    except (KeyError, TypeError, ValueError) as error:
        _logger.error("bad stream config: %s", error)
        return 2

    def print_event(event: SessionEvent) -> None:
        payload = event.to_dict()
        kind = payload.pop("kind")
        print(f"  [{kind}] {json.dumps(payload)}")

    try:
        results = replay_records(
            streams,
            config=config,
            speed=args.speed,
            chunk_reads=args.chunk,
            verify=not args.no_verify,
            subscriber=print_event if args.events else None,
        )
    except (KeyError, TypeError, ValueError) as error:
        _logger.error("replay failed: %s", error)
        return 1

    pace = "max speed" if args.speed is None else f"{args.speed:g}x wall clock"
    print(f"== replay: {len(streams)} session(s) from {args.csv} at {pace} ==")
    failed = False
    for result in results:
        position = (
            "unsolved"
            if result.final_position is None
            else np.round(result.final_position, 4).tolist()
        )
        print(
            f"  {result.tag} @ antenna {result.antenna}: {result.reads} reads, "
            f"{result.reads_per_sec:,.0f} reads/s, final {position} "
            f"({result.final_state})"
        )
        summary = ", ".join(f"{kind}={n}" for kind, n in sorted(result.events.items()))
        print(f"    events: {summary}")
        if result.bit_identical is not None:
            verdict = "bit-identical" if result.bit_identical else "MISMATCH"
            print(f"    windowed re-solve vs one-shot solve: {verdict}")
            failed = failed or not result.bit_identical
    return 1 if failed else 0


def _calib_open_store(path: str):
    from repro.calib import CalibrationStore, CalibStoreError

    try:
        return CalibrationStore(path, create=False)
    except CalibStoreError as error:
        _logger.error("cannot open calibration store %s: %s", path, error)
        return None


def _calib_rebuild_fleet(store):
    """Rebuild the simulated fleet from the store's persisted sim state.

    The fleet is deterministic from ``(seed, size)`` plus the exact
    sequence of ``advance`` steps, so the store's ``sim`` meta entry
    records the step list and this replays it — ``status`` and
    ``recalibrate`` across separate CLI invocations see one continuous
    drifting fleet.
    """
    from repro.datasets.fleet import AntennaFleet, FleetDriftConfig

    sim = store.meta_get("sim")
    if sim is None:
        return None, None
    fleet = AntennaFleet(FleetDriftConfig(size=int(sim["size"]), seed=int(sim["seed"])))
    for step in sim.get("steps", []):
        fleet.advance(float(step))
    return fleet, sim


def _print_recalibration_report(report) -> None:
    print(
        f"committed {len(report.committed)}, conflicts {len(report.conflicts)}, "
        f"failures {len(report.failures)} in {report.duration_s:.2f} s "
        f"({report.antennas_per_sec:.1f} antennas/s)"
    )
    for antenna, version in sorted(report.committed.items()):
        print(f"  {antenna}: -> v{version}")
    for antenna in report.conflicts:
        print(f"  {antenna}: CONFLICT (lost the CAS race)")
    for antenna, message in sorted(report.failures.items()):
        print(f"  {antenna}: FAILED {message}")


def _command_calib_init(args: argparse.Namespace) -> int:
    from repro.calib import CalibrationStore, RecalibrationScheduler, fleet_scan_source
    from repro.datasets.fleet import AntennaFleet, FleetDriftConfig

    if args.size <= 0:
        _logger.error("--size must be positive, got %d", args.size)
        return 2
    store = CalibrationStore(args.store, create=True)
    if store.meta_get("sim") is not None or store.antennas():
        _logger.error("store %s is already initialized", args.store)
        return 1
    fleet = AntennaFleet(FleetDriftConfig(size=args.size, seed=args.seed))
    scheduler = RecalibrationScheduler(
        store,
        fleet_scan_source(fleet),
        executor=args.executor,
        jobs=args.jobs,
        source="seed",
    )
    report = scheduler.recalibrate(fleet.names)
    store.meta_set(
        "sim", {"seed": args.seed, "size": args.size, "steps": [], "salt": 0}
    )
    print(f"initialized {args.store}: fleet of {args.size} (seed {args.seed})")
    _print_recalibration_report(report)
    return 0 if not report.failures else 1


def _command_calib_status(args: argparse.Namespace) -> int:
    import json

    from repro.calib import DriftMonitor, StalenessPolicy

    store = _calib_open_store(args.store)
    if store is None:
        return 1
    if args.max_age_s <= 0:
        _logger.error("--max-age-s must be positive, got %s", args.max_age_s)
        return 2
    monitor = DriftMonitor(store, StalenessPolicy(max_age_s=args.max_age_s))
    health = monitor.evaluate()
    if args.json:
        print(json.dumps(health.to_dict(), indent=2))
        return 0
    counts = ", ".join(f"{k}={v}" for k, v in sorted(health.counts.items()))
    print(f"store {args.store}: generation {store.generation}  [{counts}]")
    for item in health.antennas:
        age = "-" if item.age_s is None else f"{item.age_s / 3600.0:6.1f} h"
        reasons = f"  ({'; '.join(item.reasons)})" if item.reasons else ""
        print(f"  {item.antenna}: v{item.version}  age {age}  {item.status}{reasons}")
    return 0


def _command_calib_recalibrate(args: argparse.Namespace) -> int:
    from repro.calib import RecalibrationScheduler, fleet_scan_source

    store = _calib_open_store(args.store)
    if store is None:
        return 1
    if args.drift_hours < 0:
        _logger.error("--drift-hours must be non-negative, got %s", args.drift_hours)
        return 2
    fleet, sim = _calib_rebuild_fleet(store)
    if fleet is None:
        _logger.error(
            "store %s has no fleet-sim state; initialize it with 'lion calib init'",
            args.store,
        )
        return 1
    if args.drift_hours > 0:
        fleet.advance(args.drift_hours * 3600.0)
        sim["steps"] = list(sim.get("steps", [])) + [args.drift_hours * 3600.0]
        print(
            f"advanced drift by {args.drift_hours:g} h "
            f"(simulated clock {fleet.clock_s / 3600.0:g} h, "
            f"ambient {fleet.ambient_temperature_c():+.1f} C)"
        )
    salt = int(sim.get("salt", 0)) + 1
    targets = fleet.names
    if args.antennas:
        targets = tuple(part for part in args.antennas.split(",") if part)
        unknown = sorted(set(targets) - set(fleet.names))
        if unknown:
            _logger.error("unknown antennas: %s", ", ".join(unknown))
            return 2
    scheduler = RecalibrationScheduler(
        store,
        fleet_scan_source(fleet, salt=salt),
        executor=args.executor,
        jobs=args.jobs,
    )
    report = scheduler.recalibrate(targets)
    sim["salt"] = salt
    store.meta_set("sim", sim)
    _print_recalibration_report(report)
    return 0 if not report.failures and not report.conflicts else 1


def _command_calib_history(args: argparse.Namespace) -> int:
    from repro.calib import UnknownAntennaError

    store = _calib_open_store(args.store)
    if store is None:
        return 1
    try:
        records = store.history(args.antenna)
    except UnknownAntennaError as error:
        _logger.error("%s", error)
        return 1
    print(f"{args.antenna}: {len(records)} version(s)")
    for record in records:
        residual = (
            "-"
            if record.residual_rms_m is None
            else f"{record.residual_rms_m * 1000:.2f} mm"
        )
        print(
            f"  v{record.version}  source={record.source}  reads={record.reads}  "
            f"offset={record.phase_offset_rad:.4f} rad  "
            f"displacement={record.displacement_magnitude_m * 100:.2f} cm  "
            f"residual={residual}"
        )
    return 0


def _command_calib(args: argparse.Namespace) -> int:
    if args.calib_command == "init":
        return _command_calib_init(args)
    if args.calib_command == "status":
        return _command_calib_status(args)
    if args.calib_command == "recalibrate":
        return _command_calib_recalibrate(args)
    if args.calib_command == "history":
        return _command_calib_history(args)
    raise AssertionError(f"unhandled calib command {args.calib_command!r}")


def _command_calibrate(args: argparse.Namespace) -> int:
    from repro.core.calibration import calibrate_antenna
    from repro.datasets.io import read_records_csv
    from repro.trajectory.multiline import ThreeLineScan

    records = read_records_csv(args.csv)
    positions = np.array([r.tag_position for r in records])
    phases = np.array([r.phase_rad for r in records])
    physical = _parse_center(args.physical_center)

    # Rebuild the sweep structure from the canonical scenario geometry.
    trajectory = ThreeLineScan(-0.55, 0.55)
    samples = trajectory.sample()
    if len(samples) != len(records):
        _logger.warning(
            "CSV has %d reads but the canonical %s scan has %d; segment "
            "structure is inferred from positions instead",
            len(records),
            args.scenario,
            len(samples),
        )
        segment_ids = None
        exclude = None
    else:
        segment_ids = samples.segment_ids
        exclude = trajectory.transit_mask(samples)

    try:
        calibration, adaptive = calibrate_antenna(
            positions,
            phases,
            physical,
            antenna_name=records[0].antenna,
            segment_ids=segment_ids,
            exclude_mask=exclude,
        )
    except ValueError as error:
        _logger.error("calibration failed: %s", error)
        return 1
    print(f"antenna: {calibration.antenna_name}")
    print(f"estimated phase center: {np.round(calibration.estimated_center, 4).tolist()}")
    print(f"center displacement  : {np.round(calibration.center_displacement, 4).tolist()}")
    print(f"displacement size    : {calibration.displacement_magnitude_m * 100:.2f} cm")
    print(f"phase offset (Eq. 17): {calibration.phase_offset_rad:.3f} rad")
    print(
        f"adaptive sweep: {len(adaptive.outcomes)} configurations, "
        f"{len(adaptive.selected)} selected"
    )
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for figure_id in sorted(FIGURE_RUNNERS):
            print(figure_id)
        return 0
    if args.command == "run":
        return _command_run(args)
    if args.command == "simulate":
        return _command_simulate(args)
    if args.command == "locate":
        return _command_locate(args)
    if args.command == "estimators":
        return _command_estimators()
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "top":
        return _command_top(args)
    if args.command == "serve-bench":
        return _command_serve_bench(args)
    if args.command == "replay":
        return _command_replay(args)
    if args.command == "calib":
        return _command_calib(args)
    if args.command == "calibrate":
        return _command_calibrate(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _flush_observability(args: argparse.Namespace, argv: Sequence[str] | None) -> None:
    """Print the trace tree and/or write the metrics JSON, then reset state.

    Runs even when the command failed, so a crashing run still leaves its
    metrics behind. Enable flags and recorded data are cleared afterwards
    so repeated in-process invocations (tests, notebooks) start clean.
    """
    from repro import obs

    try:
        if args.trace:
            print()
            print("== trace ==")
            print(obs.render_trace())
        if args.metrics_out:
            import json
            from pathlib import Path

            manifest = obs.collect_manifest(
                seed=getattr(args, "seed", None),
                jobs=args.jobs,
                argv=list(argv) if argv is not None else None,
            )
            payload = {
                "manifest": manifest.to_dict(),
                "metrics": obs.get_registry().snapshot(),
            }
            Path(args.metrics_out).write_text(json.dumps(payload, indent=2) + "\n")
            print(f"wrote metrics to {args.metrics_out}")
    finally:
        if args.trace:
            obs.disable_tracing()
            obs.reset_tracing()
        if args.metrics_out:
            obs.disable_metrics()
            obs.get_registry().reset()


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        configure_logging(args.log_level or "WARNING")
    except ValueError as error:
        configure_logging("WARNING")
        _logger.error("%s", error)
        return 2
    if args.jobs is not None:
        if args.jobs <= 0:
            _logger.error("--jobs must be positive, got %d", args.jobs)
            return 2
        from repro.parallel import set_default_jobs

        set_default_jobs(args.jobs)
    observing = args.trace or args.metrics_out
    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing()
    if args.metrics_out:
        from repro.obs import enable_metrics

        enable_metrics()
    try:
        return _dispatch(args)
    finally:
        if observing:
            _flush_observability(args, argv)


if __name__ == "__main__":
    raise SystemExit(main())
