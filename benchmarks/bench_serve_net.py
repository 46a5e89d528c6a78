"""Loopback load test of the networked sharded serving front end.

Boots ``repro.serve.net`` servers (process workers, result cache off so
every request pays its real solve) at 1/4/8 shards and drives two load
protocols over HTTP on loopback:

- **closed loop** — a fixed client fleet, each client keeping exactly
  one request in flight: 6 LION config groups x 2 clients plus one
  hologram client whose grid search costs ~100x a LION solve. This is
  the mixed-traffic shape shard-by-``(estimator, config_hash)`` routing
  exists for: with one shard, every cheap LION request queues behind
  whatever hologram solve holds the single engine's dispatch thread
  (head-of-line blocking); with shards, the hologram group is pinned to
  its own worker process and the OS preempts it, so cheap traffic flows
  at its own pace even on a single CPU. Reported per shard count:
  requests/second, LION p50/p99 latency, and per-class counts; the
  ``speedup_4_vs_1`` ratio is the committed gate (>= 2.5).
- **open loop** — requests fired at a fixed offered rate regardless of
  completions, past single-CPU capacity: 6 medium-cost hologram groups
  (distinct ``grid_size_m`` so they spread across shards) at 250 req/s
  against a per-shard inflight cap of 32 and a 750 ms client deadline.
  This exercises the shedding path: the supervisor's inflight bound
  returns 429 (``Retry-After``) and deadline breaches return 504.
  Reported: offered/completed rates, shed rate, and success-latency
  percentiles.

The LION group configs differ only in ``max_iterations`` — values picked
so the 6 groups spread evenly across shards (2 per shard at 4 shards,
distinct shards at 8) while the hologram group sits alone on shard 2 of
both; routing is a stable digest, so the placement is reproducible.
A sample request per group is also solved in-process and compared
**bit-identically** against the wire answer (JSON round-trips float64
exactly via ``repr``).

Run directly for the JSON report::

    PYTHONPATH=src python benchmarks/bench_serve_net.py --out BENCH_serve_net.json
    PYTHONPATH=src python benchmarks/bench_serve_net.py --quick --shards 1,4

The committed baseline lives at
``benchmarks/baselines/BENCH_serve_net.json``; CI gates the quick sizing
with ``tools/check_bench_regression.py --metric speedup_4_vs_1:min=2.5``
and the nightly slow job diffs the full 1/4/8 run against the baseline.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.pipeline import estimate
from repro.pipeline.contract import EstimationRequest
from repro.serve.bench import build_requests
from repro.serve.engine import ServeConfig
from repro.serve.net import NetServeConfig, ServerHandle

#: ``max_iterations`` per LION config group. Chosen so the groups place
#: 2-per-shard on shards {0, 1, 3} at 4 shards and on 6 distinct shards
#: at 8 — never on shard 2, which the hologram group owns alone.
LION_GROUPS: Tuple[int, ...] = (7, 11, 12, 13, 20, 24)

#: Closed-loop clients per LION group.
CLIENTS_PER_GROUP = 2

#: The expensive group: a hologram grid search of ~300 ms per solve
#: (vs ~1.5 ms per LION solve), the head-of-line blocker.
HOLOGRAM_CONFIG = {"grid_size_m": 0.01}
HOLOGRAM_READS = 250
HOLOGRAM_BOUNDS = [[-0.4, 0.4], [0.5, 1.3]]

#: Reads per LION scan (paper-scale line scan).
LION_READS = 400

#: Distinct request bodies cycled per closed-loop client (the server
#: cache is disabled, so reuse does not shortcut the solve).
BODIES_PER_CLIENT = 4

#: Open-loop traffic: medium-cost hologram groups (~4-15 ms per solve),
#: ``grid_size_m`` values picked to spread across shards — shards
#: {1, 3, 2, 0, 0, 1} at 4 shards, 6 distinct shards at 8.
OPEN_LOOP_GRIDS: Tuple[float, ...] = (0.016, 0.017, 0.018, 0.019, 0.021, 0.024)
OPEN_LOOP_READS = 60
OPEN_LOOP_BOUNDS = [[-0.3, 0.3], [0.6, 1.2]]

#: Open-loop driver sizing: connections in the client pool, offered
#: rate (past the ~100 req/s single-CPU hologram capacity), client
#: deadline, and the supervisor inflight cap that triggers 429s.
OPEN_LOOP_CONNECTIONS = 24
OPEN_LOOP_RATE_PER_SEC = 250.0
OPEN_LOOP_DEADLINE_MS = 750.0
MAX_INFLIGHT_PER_SHARD = 32


def _server_config(shards: int) -> NetServeConfig:
    return NetServeConfig(
        port=0,
        shards=shards,
        worker_mode="process",
        max_inflight_per_shard=MAX_INFLIGHT_PER_SHARD,
        engine=ServeConfig(cache_entries=0),
    )


def _lion_request(group: int, index: int) -> EstimationRequest:
    return build_requests(1, LION_READS, seed=1000 * group + index)[0]


def _lion_body(group: int, index: int) -> bytes:
    request = _lion_request(group, index)
    return json.dumps(
        {
            "estimator": "lion",
            "config": {"max_iterations": group},
            "request": {
                "positions": request.positions.tolist(),
                "phases_rad": request.phases_rad.tolist(),
            },
        }
    ).encode()


def _hologram_body(index: int) -> bytes:
    request = build_requests(1, HOLOGRAM_READS, seed=9000 + index)[0]
    return json.dumps(
        {
            "estimator": "hologram",
            "config": HOLOGRAM_CONFIG,
            "request": {
                "positions": request.positions.tolist(),
                "phases_rad": request.phases_rad.tolist(),
                "bounds": HOLOGRAM_BOUNDS,
            },
        }
    ).encode()


def _post(
    conn: http.client.HTTPConnection, body: bytes
) -> Tuple[int, bytes]:
    conn.request("POST", "/v1/locate", body=body)
    response = conn.getresponse()
    return response.status, response.read()


def _percentiles_ms(latencies: Sequence[float]) -> Dict[str, float]:
    if not latencies:
        return {"p50_ms": float("nan"), "p99_ms": float("nan")}
    values = np.asarray(latencies) * 1e3
    return {
        "p50_ms": round(float(np.percentile(values, 50)), 3),
        "p99_ms": round(float(np.percentile(values, 99)), 3),
    }


# ----------------------------------------------------------------------
# closed loop
# ----------------------------------------------------------------------
def _closed_client(
    port: int,
    bodies: List[bytes],
    stop: threading.Event,
    sink: List[Tuple[int, int, List[float]]],
) -> None:
    """One closed-loop client: exactly one request in flight, forever."""
    conn = http.client.HTTPConnection("127.0.0.1", port)
    latencies: List[float] = []
    completed = 0
    errors = 0
    index = 0
    while not stop.is_set():
        started = time.perf_counter()
        try:
            status, _ = _post(conn, bodies[index % len(bodies)])
        except OSError:
            errors += 1
            conn.close()
            conn = http.client.HTTPConnection("127.0.0.1", port)
            continue
        if status == 200:
            completed += 1
            latencies.append(time.perf_counter() - started)
        else:
            errors += 1
        index += 1
    conn.close()
    sink.append((completed, errors, latencies))


def run_closed_loop(handle: ServerHandle, duration_s: float) -> Dict[str, object]:
    """Drive the fixed mixed-traffic fleet for ``duration_s`` seconds."""
    stop = threading.Event()
    lion_sink: List[Tuple[int, int, List[float]]] = []
    holo_sink: List[Tuple[int, int, List[float]]] = []
    threads: List[threading.Thread] = []
    for group in LION_GROUPS:
        for client in range(CLIENTS_PER_GROUP):
            bodies = [
                _lion_body(group, client * BODIES_PER_CLIENT + body)
                for body in range(BODIES_PER_CLIENT)
            ]
            threads.append(
                threading.Thread(
                    target=_closed_client, args=(handle.port, bodies, stop, lion_sink)
                )
            )
    threads.append(
        threading.Thread(
            target=_closed_client,
            args=(handle.port, [_hologram_body(0)], stop, holo_sink),
        )
    )
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration_s)
    stop.set()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    lion_completed = sum(done for done, _, _ in lion_sink)
    holo_completed = sum(done for done, _, _ in holo_sink)
    errors = sum(err for _, err, _ in lion_sink + holo_sink)
    lion_latencies = [value for _, _, lats in lion_sink for value in lats]
    return {
        "requests_per_sec": round((lion_completed + holo_completed) / wall, 2),
        "lion_completed": lion_completed,
        "hologram_completed": holo_completed,
        "errors": errors,
        "duration_s": round(wall, 3),
        **{f"lion_{k}": v for k, v in _percentiles_ms(lion_latencies).items()},
    }


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
def _open_worker(
    port: int,
    feed: "List[Optional[bytes]]",
    feed_lock: threading.Lock,
    available: threading.Semaphore,
    sink: List[Tuple[int, int, int, List[float]]],
) -> None:
    """One pooled connection draining the paced feed until the ``None`` mark."""
    conn = http.client.HTTPConnection("127.0.0.1", port)
    completed = 0
    shed = 0
    errors = 0
    latencies: List[float] = []
    while True:
        available.acquire()
        with feed_lock:
            body = feed.pop(0)
        if body is None:
            break
        started = time.perf_counter()
        try:
            status, _ = _post(conn, body)
        except OSError:
            errors += 1
            conn.close()
            conn = http.client.HTTPConnection("127.0.0.1", port)
            continue
        if status == 200:
            completed += 1
            latencies.append(time.perf_counter() - started)
        elif status in (429, 503, 504):
            shed += 1
        else:
            errors += 1
    conn.close()
    sink.append((completed, shed, errors, latencies))


def _open_body(index: int) -> bytes:
    request = build_requests(1, OPEN_LOOP_READS, seed=5000 + index)[0]
    return json.dumps(
        {
            "estimator": "hologram",
            "config": {"grid_size_m": OPEN_LOOP_GRIDS[index % len(OPEN_LOOP_GRIDS)]},
            "request": {
                "positions": request.positions.tolist(),
                "phases_rad": request.phases_rad.tolist(),
                "bounds": OPEN_LOOP_BOUNDS,
            },
            "deadline_ms": OPEN_LOOP_DEADLINE_MS,
        }
    ).encode()


def run_open_loop(handle: ServerHandle, duration_s: float) -> Dict[str, object]:
    """Fire hologram requests at a fixed offered rate, past capacity.

    The pacing thread appends to a shared feed on a wall-clock schedule
    — independent of completions, the defining property of an open-loop
    driver — and a fixed connection pool drains it. 429/503/504 count as
    shed; the deadline rides along so stale queued requests breach
    server-side instead of jamming the queue. When the window closes,
    the unsent backlog is dropped (reported as ``unsent``), so trailing
    drain does not distort the rates.
    """
    bodies = [_open_body(index) for index in range(len(OPEN_LOOP_GRIDS))]
    feed: "List[Optional[bytes]]" = []
    feed_lock = threading.Lock()
    available = threading.Semaphore(0)
    sink: List[Tuple[int, int, int, List[float]]] = []
    workers = [
        threading.Thread(
            target=_open_worker,
            args=(handle.port, feed, feed_lock, available, sink),
        )
        for _ in range(OPEN_LOOP_CONNECTIONS)
    ]
    for worker in workers:
        worker.start()
    offered = 0
    interval = 1.0 / OPEN_LOOP_RATE_PER_SEC
    started = time.perf_counter()
    while True:
        now = time.perf_counter() - started
        if now >= duration_s:
            break
        due = int(now / interval) + 1
        while offered < due:
            with feed_lock:
                feed.append(bodies[offered % len(bodies)])
            available.release()
            offered += 1
        time.sleep(min(interval, 0.005))
    window = time.perf_counter() - started
    with feed_lock:
        unsent = len(feed)
        feed.clear()
        feed.extend([None] * len(workers))
    for _ in workers:
        available.release()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - started
    completed = sum(done for done, _, _, _ in sink)
    shed = sum(s for _, s, _, _ in sink)
    errors = sum(e for _, _, e, _ in sink)
    latencies = [value for _, _, _, lats in sink for value in lats]
    sent = offered - unsent
    return {
        "offered_per_sec": round(offered / window, 2),
        "completed_per_sec": round(completed / wall, 2),
        "shed": shed,
        "shed_rate": round((shed + unsent) / offered, 4) if offered else 0.0,
        "unsent": unsent,
        "sent": sent,
        "errors": errors,
        "duration_s": round(wall, 3),
        **_percentiles_ms(latencies),
    }


# ----------------------------------------------------------------------
# wire fidelity
# ----------------------------------------------------------------------
def verify_bit_identical(handle: ServerHandle) -> bool:
    """One request per LION group: wire answer == in-process answer, bitwise."""
    conn = http.client.HTTPConnection("127.0.0.1", handle.port)
    try:
        for group in LION_GROUPS:
            status, raw = _post(conn, _lion_body(group, 0))
            if status != 200:
                raise AssertionError(f"locate for group {group} returned {status}")
            wire = json.loads(raw)
            report = estimate(
                "lion", _lion_request(group, 0), config={"max_iterations": group}
            )
            if wire["position"] != np.asarray(report.position).tolist():
                raise AssertionError(
                    f"group {group}: wire position {wire['position']} != "
                    f"in-process {np.asarray(report.position).tolist()}"
                )
            if wire["config_hash"] != report.config_hash:
                raise AssertionError(f"group {group}: config_hash mismatch")
    finally:
        conn.close()
    return True


# ----------------------------------------------------------------------
# study
# ----------------------------------------------------------------------
def run_study(
    shard_counts: Sequence[int],
    closed_s: float,
    open_s: float,
) -> Dict[str, object]:
    """Closed- and open-loop sweeps over ``shard_counts``; JSON payload."""
    closed: Dict[str, Dict[str, object]] = {}
    open_loop: Dict[str, Dict[str, object]] = {}
    shard_stats: Dict[str, object] = {}
    bit_identical = False
    for shards in shard_counts:
        with ServerHandle(_server_config(shards)) as handle:
            if not bit_identical:
                bit_identical = verify_bit_identical(handle)
            closed[str(shards)] = run_closed_loop(handle, closed_s)
            open_loop[str(shards)] = run_open_loop(handle, open_s)
            stats = handle.stop()
            shard_stats[str(shards)] = [
                {key: entry.get(key) for key in ("shard", "drained_clean", "completed")}
                for entry in stats
            ]
    payload: Dict[str, object] = {
        "bench": "serve_net",
        "cpu_count": os.cpu_count(),
        "protocol": {
            "lion_groups": list(LION_GROUPS),
            "clients_per_group": CLIENTS_PER_GROUP,
            "lion_reads": LION_READS,
            "hologram_reads": HOLOGRAM_READS,
            "hologram_grid_size_m": HOLOGRAM_CONFIG["grid_size_m"],
            "open_loop_grids": list(OPEN_LOOP_GRIDS),
            "open_loop_rate_per_sec": OPEN_LOOP_RATE_PER_SEC,
            "open_loop_deadline_ms": OPEN_LOOP_DEADLINE_MS,
            "max_inflight_per_shard": MAX_INFLIGHT_PER_SHARD,
            "closed_duration_s": closed_s,
            "open_duration_s": open_s,
        },
        "closed_loop": closed,
        "open_loop": open_loop,
        "drain": shard_stats,
        "bit_identical": bit_identical,
    }
    if "1" in closed and "4" in closed:
        payload["speedup_4_vs_1"] = round(
            float(closed["4"]["requests_per_sec"])
            / float(closed["1"]["requests_per_sec"]),
            3,
        )
    if "1" in closed and "8" in closed:
        payload["speedup_8_vs_1"] = round(
            float(closed["8"]["requests_per_sec"])
            / float(closed["1"]["requests_per_sec"]),
            3,
        )
    return payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shards",
        default="1,4,8",
        metavar="N,N,...",
        help="shard counts to sweep (default: 1,4,8)",
    )
    parser.add_argument(
        "--closed-s",
        type=float,
        default=10.0,
        help="closed-loop measurement window per shard count (default: 10)",
    )
    parser.add_argument(
        "--open-s",
        type=float,
        default=5.0,
        help="open-loop measurement window per shard count (default: 5)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizing: shards 1,4 and short windows",
    )
    parser.add_argument(
        "--out", default="BENCH_serve_net.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    try:
        shard_counts = tuple(int(part) for part in args.shards.split(",") if part)
    except ValueError:
        parser.error(f"--shards must be comma-separated integers, got {args.shards!r}")
    if args.quick:
        shard_counts = tuple(s for s in shard_counts if s <= 4) or (1, 4)
        closed_s, open_s = min(args.closed_s, 8.0), min(args.open_s, 3.0)
    else:
        closed_s, open_s = args.closed_s, args.open_s
    payload = run_study(shard_counts, closed_s=closed_s, open_s=open_s)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
