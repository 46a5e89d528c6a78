"""Load generator for the serving engine (`lion serve-bench`).

Builds a Monte-Carlo-style stream of requests — one fixed paper-scale
line scan, re-noised phases per request, the dominant serving pattern —
and replays it through :class:`ServeEngine` at several ``max_batch_size``
settings, interleaved over several repetitions, recording per-request
latency (p50/p99) and throughput for each. Batch size 1 *is* the
single-request-dispatch baseline (every request pays the scalar path
through the same queue and thread), so the reported speedups isolate
exactly what micro-batching buys. A sample of
batched reports is checked bit-identical against the direct scalar
:func:`repro.pipeline.estimate` before any number is reported.

Lives in the package (not ``benchmarks/``) so the CLI subcommand and the
``benchmarks/bench_serve.py`` harness share one implementation.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.sweep import clear_pair_cache
from repro.obs import collect_manifest
from repro.pipeline.contract import EstimationReport, EstimationRequest
from repro.pipeline.registry import estimate as scalar_estimate
from repro.serve.engine import ServeConfig, ServeEngine, Ticket

_TARGET = np.array([0.08, 0.85])

#: Rounds of interleaved replays per batch size. Five keeps a ``--quick``
#: run short while the median ratio of back-to-back replays rides out a
#: slow phase of the host in one or two rounds.
REPETITIONS = 5


def build_requests(count: int, reads: int, seed: int = 0) -> List[EstimationRequest]:
    """``count`` re-noised requests over one fixed line trajectory."""
    x = np.linspace(-0.6, 0.6, reads)
    positions = np.stack([x, np.zeros_like(x)], axis=1)
    distances = np.linalg.norm(positions - _TARGET, axis=1)
    requests: List[EstimationRequest] = []
    for index in range(count):
        rng = np.random.default_rng(seed + index)
        phases = np.mod(
            2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances
            + 0.4
            + rng.normal(0.0, 0.05, reads),
            TWO_PI,
        )
        requests.append(EstimationRequest(positions=positions, phases_rad=phases))
    return requests


def _replay(
    requests: Sequence[EstimationRequest], batch_size: int
) -> Tuple[Dict[str, float], List[EstimationReport]]:
    """Push one burst of requests through one engine; stats + reports.

    Closed-burst protocol: the whole stream is admitted into a stopped
    engine, then the batcher starts and drains it. This makes batch
    occupancy deterministic (every fused dispatch is full, regardless of
    machine speed), so the batch-size comparison measures dispatch
    throughput, not submission-rate racing. Latency is measured from
    batcher start to each request's resolution — under a burst that is
    each request's time-to-completion, so ``p99`` tracks the wall clock.
    """
    clear_pair_cache()
    config = ServeConfig(
        max_queue_depth=max(2 * len(requests), 64),
        max_batch_size=batch_size,
        cache_entries=0,
    )
    done_at: List[float] = [0.0] * len(requests)

    def _stamp(index: int) -> "Callable[[Future[EstimationReport]], None]":
        def callback(_future: "Future[EstimationReport]") -> None:
            done_at[index] = time.perf_counter()

        return callback

    with ServeEngine(config, start=False) as engine:
        tickets: List[Ticket] = []
        for index, request in enumerate(requests):
            ticket = engine.submit("lion", request)
            ticket.add_done_callback(_stamp(index))
            tickets.append(ticket)
        start = time.perf_counter()
        engine.start()
        reports = [ticket.result() for ticket in tickets]
        wall = time.perf_counter() - start

    latencies_ms = 1e3 * (np.array(done_at) - start)
    stats = {
        "wall_s": round(wall, 4),
        "requests_per_sec": round(len(requests) / wall, 2),
        "p50_ms": round(float(np.percentile(latencies_ms, 50)), 3),
        "p99_ms": round(float(np.percentile(latencies_ms, 99)), 3),
    }
    return stats, reports


def _reports_identical(ours: EstimationReport, theirs: EstimationReport) -> bool:
    """Field-level bit-identity between a batched and a scalar report."""
    residuals_equal = (
        ours.residuals is None
        and theirs.residuals is None
        or ours.residuals is not None
        and theirs.residuals is not None
        and np.array_equal(ours.residuals, theirs.residuals)
    )
    return (
        bool(np.array_equal(ours.position, theirs.position))
        and ours.reference_distance_m == theirs.reference_distance_m
        and residuals_equal
        and ours.diagnostics == theirs.diagnostics
        and ours.config_hash == theirs.config_hash
    )


def run_load(
    requests: int = 64,
    reads: int = 400,
    batch_sizes: Sequence[int] = (1, 8, 32),
    seed: int = 0,
    check: int = 8,
) -> Dict[str, Any]:
    """Replay one request stream at every batch size; JSON-ready payload.

    The batch sizes are replayed in turn :data:`REPETITIONS` times, in
    alternating order, so a slow phase of the host hits every size
    alike. Each size reports its median replay, and each
    ``speedup_<k>_vs_1`` is the median of the per-repetition ratios —
    a ratio of two replays made back to back, not of two medians taken
    minutes apart.

    Args:
        requests: stream length per batch-size replay.
        reads: reads per scan (the paper-scale line scan is 400).
        batch_sizes: ``max_batch_size`` settings to measure; include 1
            for the single-request-dispatch baseline.
        seed: base seed of the re-noised phase streams.
        check: how many requests to verify bit-identical against the
            direct scalar path (0 disables).

    Raises:
        AssertionError: if any checked batched report differs from its
            scalar counterpart — a benchmark that changed the answer
            must not report a speedup.
    """
    stream = build_requests(requests, reads, seed=seed)
    runs: Dict[int, List[Dict[str, float]]] = {size: [] for size in batch_sizes}
    sample: List[EstimationReport] = []
    for repetition in range(REPETITIONS):
        order = batch_sizes if repetition % 2 == 0 else tuple(reversed(batch_sizes))
        for batch_size in order:
            stats, reports = _replay(stream, batch_size)
            runs[batch_size].append(stats)
            sample = reports

    for request, report in list(zip(stream, sample))[:check]:
        scalar = scalar_estimate("lion", request)
        assert _reports_identical(report, scalar), (
            "batched report diverged from the scalar path"
        )

    batch = {
        str(size): {
            key: round(float(np.median([stats[key] for stats in runs[size]])), 4)
            for key in runs[size][0]
        }
        for size in batch_sizes
    }
    payload: Dict[str, Any] = {
        "benchmark": "serve_microbatch",
        "requests": requests,
        "reads": reads,
        "repetitions": REPETITIONS,
        "cpu_count": os.cpu_count(),
        "batch": batch,
        "equivalence_checked": min(check, requests),
        "manifest": collect_manifest(
            seed=seed,
            config={
                "requests": requests,
                "reads": reads,
                "batch_sizes": list(batch_sizes),
            },
        ).to_dict(),
    }
    baseline = runs.get(1)
    if baseline is not None:
        for batch_size in batch_sizes:
            if batch_size == 1:
                continue
            ratios = [
                stats["requests_per_sec"] / base["requests_per_sec"]
                for stats, base in zip(runs[batch_size], baseline)
            ]
            payload[f"speedup_{batch_size}_vs_1"] = round(float(np.median(ratios)), 3)
    return payload
