"""Throughput and update latency of the streaming session layer.

Drives :class:`repro.stream.SessionManager` with 100 / 1 000 / 5 000
concurrent tag sessions — every session live at once, reads interleaved
round-robin in NDJSON-sized chunks, each session warming through its
fast RLS path and periodic windowed re-solves — and records sustained
reads/second plus p50/p99 per-chunk update latency per session count.
A sample of sessions is then verified **bit-identical**: the replayed
stream's final windowed re-solve must equal a one-shot batch estimate
over the same window.

CI runs the quick sizing on every PR and gates
``sessions.1000.reads_per_sec`` against
``benchmarks/baselines/BENCH_stream.json`` (20% tolerance plus an
absolute floor) with ``tools/check_bench_regression.py``; the nightly
slow job refreshes the baseline artifact at full sizing.

Run directly for the JSON report::

    PYTHONPATH=src python benchmarks/bench_stream.py --out BENCH_stream.json
    PYTHONPATH=src python benchmarks/bench_stream.py --quick   # CI sizing

or under pytest-benchmark along with the other benches::

    PYTHONPATH=src pytest benchmarks/bench_stream.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.pipeline import EstimationRequest
from repro.pipeline import estimate as pipeline_estimate
from repro.stream import SessionManager, StreamConfig

#: Concurrent-session counts measured (full sizing).
SESSION_COUNTS = (100, 1000, 5000)

#: Session counts in ``--quick`` (CI) sizing.
QUICK_SESSION_COUNTS = (100, 1000)

#: Reads fed per session: enough to warm the fast path and trigger one
#: windowed re-solve at the default cadence.
READS_PER_SESSION = 64

#: Reads per feed chunk (the NDJSON-chunk analogue).
CHUNK_READS = 16

#: Sessions sampled for the end-to-end bit-identity check.
IDENTITY_SAMPLE = 8

#: Wavelength used by the synthetic conveyor (the default lion config's).
_WAVELENGTH_M = 0.325640144467074


def _synthesize_reads(sessions: int, seed: int):
    """Per-session wrapped phases over one shared conveyor line.

    All sessions share the tag-position track (one linear scan), each
    with its own tag location and noise draw, so windows are solvable
    and no two sessions produce identical arithmetic.
    """
    rng = np.random.default_rng(seed)
    x = np.linspace(-1.0, 1.0, READS_PER_SESSION)
    positions = np.column_stack([x, np.zeros(READS_PER_SESSION)])
    tags = np.column_stack(
        [rng.uniform(-0.5, 0.5, sessions), rng.uniform(0.8, 1.4, sessions)]
    )
    distances = np.linalg.norm(
        positions[None, :, :] - tags[:, None, :], axis=2
    )
    noise = rng.normal(0.0, 0.05, (sessions, READS_PER_SESSION))
    phases = np.mod(4.0 * np.pi * distances / _WAVELENGTH_M + noise, 2.0 * np.pi)
    return positions, phases


def _run_scale(sessions: int, seed: int) -> dict:
    """One concurrency level: open all sessions, interleave all reads."""
    positions, phases = _synthesize_reads(sessions, seed)
    timestamps = np.linspace(0.0, 1.0, READS_PER_SESSION)
    manager = SessionManager(
        defaults=StreamConfig(), max_sessions=sessions + 1
    )
    ids = [
        manager.open_session(f"EPC-{index:05d}").session_id
        for index in range(sessions)
    ]

    chunk_latencies: list = []
    started = time.perf_counter()
    for chunk_start in range(0, READS_PER_SESSION, CHUNK_READS):
        chunk_end = min(chunk_start + CHUNK_READS, READS_PER_SESSION)
        chunk_range = range(chunk_start, chunk_end)
        for index, session_id in enumerate(ids):
            chunk = [
                (float(timestamps[k]), positions[k], float(phases[index, k]))
                for k in chunk_range
            ]
            chunk_started = time.perf_counter()
            manager.feed(session_id, chunk)
            chunk_latencies.append(time.perf_counter() - chunk_started)
    wall_s = time.perf_counter() - started

    # End-to-end bit-identity on a deterministic session sample: the
    # final windowed re-solve vs a one-shot estimate of the same window.
    sample = ids[:: max(1, sessions // IDENTITY_SAMPLE)][:IDENTITY_SAMPLE]
    identical = 0
    for session_id in sample:
        session = manager.get_session(session_id)
        final = session.final_resolve()
        assert final is not None, f"session {session_id} window did not solve"
        name, config, request = session.build_resolve_request()
        oneshot = pipeline_estimate(
            name,
            EstimationRequest(
                positions=request.positions, phases_rad=request.phases_rad
            ),
            config,
        )
        assert np.array_equal(
            np.asarray(final.position), np.asarray(oneshot.position)
        ), (
            f"windowed re-solve diverged from one-shot solve for {session_id}: "
            f"{final.position} vs {oneshot.position}"
        )
        identical += 1

    stats = manager.stats()
    drain = manager.drain()
    latencies_ms = np.asarray(chunk_latencies) * 1e3
    total_reads = sessions * READS_PER_SESSION
    return {
        "sessions": sessions,
        "reads_total": total_reads,
        "reads_per_sec": round(total_reads / wall_s, 1),
        "wall_s": round(wall_s, 3),
        "p50_feed_ms": round(float(np.percentile(latencies_ms, 50)), 4),
        "p99_feed_ms": round(float(np.percentile(latencies_ms, 99)), 4),
        "resolves": stats["resolves_direct"],
        "events": stats["events"],
        "identity_checked": len(sample),
        "identity_identical": identical,
        "drained": drain["sessions_drained"],
    }


def run_study(session_counts=SESSION_COUNTS, seed: int = 0) -> dict:
    """The full study: one scale run per concurrency level."""
    scales = {str(count): _run_scale(count, seed) for count in session_counts}
    return {
        "reads_per_session": READS_PER_SESSION,
        "chunk_reads": CHUNK_READS,
        "session_counts": list(session_counts),
        "sessions": scales,
    }


def test_bench_stream_sessions(benchmark):
    """Smoke-sized scale run: 100 concurrent sessions, identity holds."""
    payload = benchmark.pedantic(
        run_study, kwargs={"session_counts": (100,)}, iterations=1, rounds=1
    )
    scale = payload["sessions"]["100"]
    print()
    print("== streaming sessions, reads/second ==")
    print(
        f"  {scale['sessions']:>5} sessions: {scale['reads_per_sec']:10,.1f} reads/s   "
        f"p99 feed {scale['p99_feed_ms']:.3f} ms"
    )
    assert scale["identity_identical"] == scale["identity_checked"]
    assert scale["reads_per_sec"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI sizing: session counts {QUICK_SESSION_COUNTS}",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--out", default="BENCH_stream.json", help="output JSON path")
    args = parser.parse_args(argv)
    counts = QUICK_SESSION_COUNTS if args.quick else SESSION_COUNTS
    payload = run_study(counts, seed=args.seed)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
