"""The per-layer ladder: replay inputs into each layer's public functions.

After the HTTP window the traced run replays a sample of the same inputs
in process, one rung per layer, each call one span:

=====================  ==================================================
rung                   call
=====================  ==================================================
front end              ``parse_locate_body`` -> ``ShardSupervisor.submit``
                       -> ``encode_report_payload`` (+ JSON), two requests
                       outstanding, under one ``serve.net.frontend`` span
engine                 ``ServeEngine.submit`` -> ``Ticket.result``, two
                       outstanding
batching               ``serve.batching.execute_batch`` /
                       ``core.batch_prepare.prepare_batch``
pipeline               ``repro.pipeline.estimate``
kernels                ``solve_weighted_least_squares[_batch]``,
                       ``solve_weighted_least_squares_fast_batch`` (float32)
                       on pre-assembled systems, ``core.sweep.fused_sweep``
stream                 ``SessionManager.open_session`` / ``feed`` /
                       ``close_session`` on NDJSON-parsed chunks
calib                  ``CalibrationResolver.lookup``,
                       ``CalibrationStore.commit_record`` on a seeded
                       store
=====================  ==================================================

A rung's "added" time is its per-member time minus the rung below on the
same inputs; where spans nest, self time is a span minus its children.
Rungs a workload's requests never reach are timed on a small sample from
the generator of the workload that does reach them (same seed; for the
stream and calib rungs, ``workloads.Sessions`` and ``workloads.CalibFleet``),
so every metric is measured in every traced run; ``RATIONALE.md`` marks
which values are on a workload's own path.

Every rung's answer is checked against the server's answer (or, for the
off-path samples, against in-process ``estimate()``) before any number
is reported.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.calib import CalibrationResolver, CalibrationStore
from repro.core.batch_prepare import prepare_batch
from repro.core.solvers import (
    solve_weighted_least_squares,
    solve_weighted_least_squares_batch,
    solve_weighted_least_squares_fast_batch,
)
from repro.core.sweep import cached_assembly_recipe, clear_pair_cache, fused_sweep
from repro.core.system import LinearSystem
from repro.core.weights import gaussian_residual_weights
from repro.obs import enable_metrics
from repro.pipeline import EstimationRequest, create_estimator, resolve_config
from repro.pipeline import estimate as pipeline_estimate
from repro.serve import ServeConfig, ServeEngine
from repro.serve.batching import execute_batch
from repro.serve.net import (
    LocateCall,
    NetServeConfig,
    ShardSupervisor,
    encode_report_payload,
    parse_locate_body,
    parse_reads_ndjson,
)
from repro.stream import SessionManager, StreamConfig
from workloads import CalibFleet, CalibOp, LocateInfo, Portal, SessionPlan, Sessions, Survey


class LadderMismatch(AssertionError):
    """A rung answered differently from the server or ``estimate()``."""


class SpanLog:
    """In-memory spans: name, start, end, parent; written out at run end."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            **attributes,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        start = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["start_ns"] = start
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    @staticmethod
    def us(record: Dict[str, Any]) -> float:
        return (record["end_ns"] - record["start_ns"]) / 1e3


def _same(a: np.ndarray, b: np.ndarray, where: str) -> None:
    if not np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float)):
        raise LadderMismatch(f"{where}: {np.asarray(a).tolist()} != {np.asarray(b).tolist()}")


def _pairs(items: Sequence[Any]) -> List[Tuple[Any, Any]]:
    return [(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]


class Ladder:
    """Runs the rungs for one workload and collects per-call samples (µs).

    Args:
        spans: where every rung call is recorded.
        fused_batch: mean size of the fused batches the server formed
            during the window (0 when it formed none).
    """

    #: Per-rung sample sizes: own inputs (by workload) and off-path samples.
    #: Each is one pair (or call) more than it times: the first warms up.
    OWN = {"portal": 50, "survey": 26}
    REF_LOCATES = 18
    REF_SCANS = 5
    REF_SESSIONS = 5
    #: Twelve commits and the lookups between them.
    REF_CALIB_OPS = 12 * CalibFleet.commit_every + 1

    def __init__(self, spans: SpanLog, fused_batch: float) -> None:
        self.spans = spans
        self.group = max(2, int(round(fused_batch)))
        self.samples: Dict[str, List[float]] = {}
        #: Per-layer counts the rungs read off the layer they call.
        self.counts: Dict[str, float] = {}
        self.supervisor: Optional[ShardSupervisor] = None
        # The server runs with metrics on (the CLI default); so do the rungs.
        enable_metrics()

    # -- bookkeeping ------------------------------------------------------

    def add(self, name: str, value_us: float) -> None:
        self.samples.setdefault(name, []).append(value_us)

    def close(self) -> None:
        """Drain the in-process supervisor and join its worker."""
        if self.supervisor is not None:
            supervisor, self.supervisor = self.supervisor, None
            stats = supervisor.drain()
            supervisor.close()
            unclean = [entry for entry in stats if not entry.get("drained_clean")]
            if unclean:
                raise RuntimeError(f"ladder supervisor did not drain clean: {unclean}")

    def _supervisor(self) -> ShardSupervisor:
        if self.supervisor is None:
            supervisor = ShardSupervisor(NetServeConfig(port=0))
            self.supervisor = supervisor
            supervisor.start()
            print("servebench: ladder supervisor up", flush=True)
        return self.supervisor

    # -- locate rungs -----------------------------------------------------

    def locate_rungs(self, infos: List[LocateInfo], answers: List[np.ndarray]) -> None:
        """Front end, engine and the rung below, on pairs of locates.

        ``answers`` are the positions the server returned. The first pair
        warms each rung and is not recorded.
        """
        count = len(infos) - len(infos) % 2
        if count < 4:  # a warm-up pair and at least one timed pair
            return
        infos, answers = infos[:count], answers[:count]
        adaptive = infos[0].estimator == "lion-adaptive"
        calls: List[LocateCall] = []
        supervisor_us: List[float] = []
        sup = self._supervisor()
        for pair_index, pair in enumerate(_pairs(list(range(count)))):
            timed = pair_index > 0
            with self.spans.span("serve.net.frontend", pair=pair_index, warmup=not timed):
                parsed = []
                for index in pair:
                    with self.spans.span("serve.net.protocol.parse") as record:
                        call = parse_locate_body(infos[index].body)
                    if timed:
                        self.add("serve.net.protocol.parse_us", SpanLog.us(record))
                    parsed.append(call)
                with self.spans.span("serve.net.supervisor") as sup_span:
                    futures = [
                        sup.submit(call, request_id=f"ladder-{pair_index}-{slot}")
                        for slot, call in enumerate(parsed)
                    ]
                    payloads = [(future.result(120.0), shard) for future, shard in futures]
                for index, (payload, shard) in zip(pair, payloads):
                    with self.spans.span("serve.net.protocol.encode") as record:
                        json.dumps(encode_report_payload(payload, shard, 0.0, "ladder")).encode()
                    if timed:
                        self.add("serve.net.protocol.encode_us", SpanLog.us(record))
                    _same(payload["position"], answers[index], "supervisor rung")
            calls.extend(parsed)
            supervisor_us.append(SpanLog.us(sup_span) / 2)
        requests = [EstimationRequest(**call.arrays, **call.scalars) for call in calls]
        engine_us = self._engine_pairs(infos, requests, answers, adaptive)
        below_us = self._below_engine(infos, requests, answers, adaptive)
        for pair_index in range(1, len(engine_us)):
            self.add("serve.net.supervisor.added_us", supervisor_us[pair_index] - engine_us[pair_index])
            self.add("serve.engine.added_us", engine_us[pair_index] - below_us[pair_index])

    def _engine_pairs(
        self,
        infos: List[LocateInfo],
        requests: List[EstimationRequest],
        answers: List[np.ndarray],
        adaptive: bool,
    ) -> List[float]:
        """Per-member ``ServeEngine`` time (pair wall / 2), two outstanding."""
        per_member: List[float] = []
        with ServeEngine(ServeConfig()) as engine:
            for pair in _pairs(list(range(len(requests)))):
                if adaptive:
                    clear_pair_cache()
                with self.spans.span("serve.engine", pair=list(pair)) as record:
                    tickets = [
                        engine.submit(infos[i].estimator, requests[i], infos[i].config) for i in pair
                    ]
                    reports = [ticket.result(120.0) for ticket in tickets]
                for index, report in zip(pair, reports):
                    _same(report.position, answers[index], "engine rung")
                per_member.append(SpanLog.us(record) / 2)
        return per_member

    def _below_engine(
        self,
        infos: List[LocateInfo],
        requests: List[EstimationRequest],
        answers: List[np.ndarray],
        adaptive: bool,
    ) -> List[float]:
        """Per-member time of the rung under the engine, on the same pairs.

        Batchable requests (plain ``lion``): ``execute_batch`` on the pair,
        as the engine fuses it. Everything else: ``estimate()`` per request,
        as the engine's scalar path runs it.
        """
        per_member: List[float] = []
        estimator = create_estimator(infos[0].estimator, infos[0].config)
        batchable = infos[0].estimator == "lion" and infos[0].config is None
        for pair in _pairs(list(range(len(requests)))):
            if batchable:
                with self.spans.span("serve.batching.execute_batch", size=2) as record:
                    reports = execute_batch(estimator, [requests[i] for i in pair])
                for index, report in zip(pair, reports):
                    _same(report.position, answers[index], "batching rung")
                per_member.append(SpanLog.us(record) / 2)
                continue
            total = 0.0
            for index in pair:
                if adaptive:
                    clear_pair_cache()
                with self.spans.span("pipeline.estimate", below="engine") as record:
                    report = estimator.estimate(requests[index])
                _same(report.position, answers[index], "estimate rung")
                total += SpanLog.us(record)
            per_member.append(total / 2)
        return per_member

    def estimate_rung(
        self, infos: List[LocateInfo], requests: List[EstimationRequest], answers: List[np.ndarray]
    ) -> None:
        """Scalar ``estimate()`` per request; the first call warms up."""
        if not infos:
            return
        adaptive = infos[0].estimator == "lion-adaptive"
        for number, (info, request, answer) in enumerate(zip(infos, requests, answers)):
            if adaptive:
                clear_pair_cache()
            with self.spans.span("pipeline.estimate") as record:
                report = pipeline_estimate(info.estimator, request, info.config)
            _same(report.position, answer, "pipeline rung")
            if number:
                self.add("pipeline.estimate_us", SpanLog.us(record))

    def batching_rungs(self, requests: List[EstimationRequest], answers: List[np.ndarray]) -> None:
        """``execute_batch`` and ``prepare_batch`` per member at the server's batch size."""
        estimator = create_estimator("lion", None)
        localizer = estimator.localizer
        for start in range(0, len(requests) - self.group + 1, self.group):
            group = requests[start:start + self.group]
            with self.spans.span("serve.batching.execute_batch", size=len(group)) as record:
                reports = execute_batch(estimator, group)
            for report, answer in zip(reports, answers[start:start + self.group]):
                _same(report.position, answer, "batching rung")
            if start:
                self.add("serve.batching.execute_batch_us", SpanLog.us(record) / len(group))
            with self.spans.span("core.batch_prepare.prepare_batch", size=len(group)) as record:
                prepare_batch(localizer, group)
            if start:
                self.add("core.batch_prepare.prepare_batch_us", SpanLog.us(record) / len(group))

    def kernel_rungs(self, requests: List[EstimationRequest], group: int) -> None:
        """The float64 and float32 IRLS kernels on pre-assembled LION systems."""
        localizer = create_estimator("lion", None).localizer
        systems: List[LinearSystem] = []
        for member in prepare_batch(localizer, requests):
            if member.prepared is None:
                continue
            recipe = cached_assembly_recipe(
                localizer, member.prepared, localizer.interval_m, member.scan_key, member.mask_key
            )
            systems.append(recipe.assemble(member.prepared.delta_d))
        iterations, tolerance = localizer.max_iterations, localizer.tolerance_m
        for start in range(0, len(systems) - group + 1, group):
            chunk = systems[start:start + group]
            with self.spans.span("core.solvers.irls", size=len(chunk)) as record:
                if len(chunk) == 1:
                    expected = [
                        solve_weighted_least_squares(
                            chunk[0], gaussian_residual_weights, iterations, tolerance
                        )
                    ]
                else:
                    expected = solve_weighted_least_squares_batch(
                        chunk, gaussian_residual_weights, iterations, tolerance
                    )
            if start:
                self.add("core.solvers.irls_us", SpanLog.us(record) / len(chunk))
            rows = max(system.equation_count for system in chunk)
            columns = chunk[0].matrix.shape[1]
            matrices = np.zeros((len(chunk), rows, columns), dtype=np.float32)
            rhs = np.zeros((len(chunk), rows), dtype=np.float32)
            mask = np.zeros((len(chunk), rows), dtype=bool)
            for slot, system in enumerate(chunk):
                matrices[slot, : system.equation_count] = system.matrix
                rhs[slot, : system.equation_count] = system.rhs
                mask[slot, : system.equation_count] = True
            with self.spans.span("core.solvers.irls_f32", size=len(chunk)) as record:
                fast = solve_weighted_least_squares_fast_batch(matrices, rhs, mask, iterations)
            if start:
                self.add("core.solvers.irls_f32_us", SpanLog.us(record) / len(chunk))
            for exact, approx in zip(expected, fast):
                if np.max(np.abs(exact.position - approx.position)) > 5e-3:
                    raise LadderMismatch("float32 kernel left the 5 mm bound")

    def sweep_rung(self, infos: List[LocateInfo]) -> None:
        """``fused_sweep`` over each scan's adaptive grid, pair cache cold."""
        config = resolve_config("lion-adaptive", Survey.config)
        localizer = config.build_localizer()
        grid = config.build_grid()
        for number, info in enumerate(infos):
            points = np.asarray(info.fields["positions"], dtype=float)
            profile = localizer.preprocess_phase(np.asarray(info.fields["phases_rad"], dtype=float))
            ranges = np.asarray(grid.ranges_m, dtype=float)
            offsets = np.abs(points[:, grid.axis] - grid.center)
            excludes = offsets[np.newaxis, :] > ranges[:, np.newaxis] / 2.0
            cells = [
                (float(range_m), float(interval_m), row)
                for row, range_m in enumerate(grid.ranges_m)
                for interval_m in grid.intervals_m
                if interval_m < range_m
            ]
            clear_pair_cache()
            with self.spans.span("core.sweep.fused_sweep", cells=len(cells)) as record:
                fused_sweep(localizer, points, profile, None, excludes, cells)
            if number:
                self.add("core.sweep.fused_sweep_us", SpanLog.us(record))

    # -- stream rungs -----------------------------------------------------

    def stream_rungs(self, plans: List[SessionPlan], finals: List[np.ndarray]) -> None:
        """Replay sessions through a ``SessionManager``; the first warms up.

        Also reads the manager's re-solves per closed session.
        """
        manager = SessionManager(defaults=StreamConfig(), max_sessions=1024)
        for number, (plan, final) in enumerate(zip(plans, finals)):
            timed = number > 0
            with self.spans.span("stream.open", session=plan.sid) as record:
                manager.open_session(f"tag-{plan.sid}", "1", None, plan.sid)
            if timed:
                self.add("stream.open_us", SpanLog.us(record))
            for chunk in plan.chunks:
                reads = parse_reads_ndjson(chunk)
                with self.spans.span("stream.feed", session=plan.sid) as record:
                    manager.feed(plan.sid, reads)
                if timed:
                    self.add("stream.feed_us", SpanLog.us(record))
            with self.spans.span("stream.close", session=plan.sid) as record:
                result = manager.close_session(plan.sid)
            if timed:
                self.add("stream.close_us", SpanLog.us(record))
            if result.estimate is None:
                raise LadderMismatch(f"session {plan.sid} closed without an estimate")
            _same(result.estimate["position"], final, "stream rung")
        stats = manager.stats()
        resolves = stats["resolves_direct"] + stats["resolves_engine"]
        self.counts["stream.resolves_per_session"] = resolves / max(stats["departed"], 1)

    # -- calib rungs ------------------------------------------------------

    def calib_rungs(self, store_path: Path, ops: List[CalibOp]) -> None:
        """Replay a fleet client's lookups and commits on the seeded store.

        Also reads the resolver's hit share over the replay.
        """
        store = CalibrationStore(store_path, create=False)
        resolver = CalibrationResolver(store)
        for number, op in enumerate(ops):
            if op.kind == "lookup":
                with self.spans.span("calib.resolver.resolve") as record:
                    resolver.lookup(op.antennas, 3)
                if number:
                    self.add("calib.resolver.resolve_us", SpanLog.us(record))
            else:
                latest = store.latest(op.antenna)
                with self.spans.span("calib.store.commit") as record:
                    committed = store.commit_record(latest, expected_version=op.expected)
                if committed.version != op.expected + 1:
                    raise LadderMismatch(f"commit of {op.antenna} got v{committed.version}")
                self.add("calib.store.commit_us", SpanLog.us(record))
        stats = resolver.stats()
        self.counts["calib.resolver.hit_share"] = stats["hits"] / max(stats["hits"] + stats["misses"], 1)


@dataclass
class References:
    """Inputs for the rungs a workload's own requests never reach.

    Built before the server starts.
    """

    locates: Tuple[List[LocateInfo], List[np.ndarray]] = field(default_factory=lambda: ([], []))
    scans: List[LocateInfo] = field(default_factory=list)
    sessions: Tuple[List[SessionPlan], List[np.ndarray]] = field(default_factory=lambda: ([], []))
    calib_store: Optional[Path] = None
    calib_ops: List[CalibOp] = field(default_factory=list)


def prepare_references(workload: Any) -> References:
    refs = References()
    seed, workdir = workload.seed, workload.workdir
    if workload.name != "portal":
        portal = Portal(seed, 1.0, workdir)
        infos = portal.make(Ladder.REF_LOCATES)
        refs.locates = (infos, [pipeline_estimate("lion", info.request()).position for info in infos])
    if workload.name != "survey":
        refs.scans = Survey(seed, 1.0, workdir).make(Ladder.REF_SCANS)
    sessions = Sessions(seed)
    plans = [sessions.plan("ref-") for _ in range(Ladder.REF_SESSIONS)]
    refs.sessions = (plans, [Sessions.final_position(plan) for plan in plans])
    fleet = CalibFleet(seed)
    refs.calib_store = workdir / "reference-store"
    fleet.prepare(refs.calib_store)
    refs.calib_ops = fleet.ops(Ladder.REF_CALIB_OPS)
    return refs


def _every(items: List[Any], count: int) -> List[Any]:
    """``count`` items spread evenly over ``items`` (deterministic)."""
    stride = max(1, len(items) // max(count, 1))
    return items[::stride][:count]


def _first_sends(pairs: List[Tuple[Any, Any]]) -> List[Tuple[Any, Any]]:
    """Exchanges of distinct ops: a cycled op's repeats would hit the result cache."""
    seen: set[int] = set()
    first = []
    for exchange, verdict in pairs:
        if exchange.op.index not in seen:
            seen.add(exchange.op.index)
            first.append((exchange, verdict))
    return first


def _prefer_traced(pairs: List[Tuple[Any, ...]], count: int) -> List[Tuple[Any, ...]]:
    """The traced entries (request id sent) when there are enough of them.

    Short runs have few traced exchanges; the ladder then replays untraced
    ones, whose client latencies are just as real.
    """
    traced = [pair for pair in pairs if pair[0].request_id]
    return traced if len(traced) >= count else list(pairs)


def run_ladder(
    rungs: Ladder, workload: Any, exchanges: List[Any], verdicts: List[Any], refs: References
) -> None:
    """Every rung for one workload: own inputs on its path, references elsewhere."""
    name = workload.name
    count = Ladder.OWN[name]
    ok = [(exchange, verdict) for exchange, verdict in zip(exchanges, verdicts) if verdict.ok]
    locates = _prefer_traced([pair for pair in ok if pair[0].op.kind == "locate"], count)
    # The HTTP rung's self time: the client's round trip minus the server's
    # own parse -> shard -> answer span (``server_ms``) of the same
    # exchange, joined by request id.
    for exchange, _ in locates:
        server_ms = json.loads(exchange.body)["server_ms"]
        rungs.add("serve.net.http.added_us", (exchange.done - exchange.sent) * 1e6 - server_ms * 1e3)
    chosen = _every(_first_sends(locates), count)
    infos = [exchange.op.info for exchange, _ in chosen]
    answers = [verdict.position for _, verdict in chosen]
    rungs.locate_rungs(infos, answers)
    own_requests = [info.request() for info in infos]
    rungs.estimate_rung(infos, own_requests, answers)
    if name == "portal":
        rungs.batching_rungs(own_requests, answers)
        rungs.kernel_rungs(own_requests, rungs.group)
    else:
        ref_infos, ref_answers = refs.locates
        rungs.batching_rungs([info.request() for info in ref_infos], ref_answers)
        # Survey's own systems: full scans, solved one at a time.
        rungs.kernel_rungs(own_requests, 1)
    rungs.sweep_rung(infos if name == "survey" else refs.scans)
    rungs.stream_rungs(*refs.sessions)
    assert refs.calib_store is not None
    rungs.calib_rungs(refs.calib_store, refs.calib_ops)
