"""Shard supervisor: routes requests to worker-hosted engines.

Requests route by a *stable* digest of ``(estimator, config_hash)`` —
:func:`shard_for` — so every request of one config group lands on the
same worker and its engine batches compactly. That key is the whole
point of sharding this workload: micro-batches only fuse within a
group, so spreading a group across workers would fragment every batch,
while pinning groups to shards lets the requests that queue behind one
dispatch fuse into the next, and one shard's queueing overlap another
shard's solve even on constrained hardware.

The supervisor owns the process/pipe plumbing: per-worker duplex pipes
(single sender per direction), a receiver thread per worker resolving
futures by request id, parent-owned :class:`SharedArrayBundle` segments
per large request (closed when its response lands), supervisor-side
load shedding at ``max_inflight_per_shard``, and the two-phase drain
the HTTP layer calls on SIGTERM. A worker that dies mid-flight fails
its pending futures with :class:`WorkerDiedError` and flips readiness.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import config_fingerprint, get_registry, metrics_enabled
from repro.obs.metrics import MetricsRegistry
from repro.parallel import SharedArrayBundle, SharedArraySpec
from repro.pipeline.registry import resolve_config
from repro.serve.errors import (
    DeadlineExceededError,
    EngineClosedError,
    QueueFullError,
    RemoteEstimationError,
    WorkerDiedError,
)
from repro.serve.net.config import DRAIN_TIMEOUT_S, READY_TIMEOUT_S, NetServeConfig
from repro.serve.net.protocol import LocateCall
from repro.serve.net.worker import WireRequest, WireResponse, WorkerConfig, worker_main


def shard_for(estimator: str, config_hash: str, shards: int) -> int:
    """Deterministic shard of one ``(estimator, config_hash)`` group.

    Uses a content digest, not :func:`hash` — Python string hashing is
    randomized per process, and routing must agree across restarts,
    machines, and the tests that pin it.
    """
    if shards <= 0:
        raise ValueError(f"shards must be positive, got {shards}")
    digest = hashlib.blake2b(
        f"{estimator}:{config_hash}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % shards


@dataclass
class _Pending:
    """One request in flight to a worker."""

    future: "Future[Dict[str, Any]]"
    bundle: Optional[SharedArrayBundle]
    shard: int


@dataclass
class _Worker:
    """Parent-side handle to one shard worker."""

    index: int
    conn: Any
    runner: Any  # multiprocessing.Process or threading.Thread
    lock: threading.Lock = field(default_factory=threading.Lock)
    pending: Dict[int, _Pending] = field(default_factory=dict)
    ready: threading.Event = field(default_factory=threading.Event)
    drained: threading.Event = field(default_factory=threading.Event)
    drained_stats: Optional[Dict[str, Any]] = None
    dead: bool = False
    receiver: Optional[threading.Thread] = None


_WIRE_ERRORS = {
    "queue_full": QueueFullError,
    "deadline": DeadlineExceededError,
    "draining": EngineClosedError,
}


def _wire_error(payload: Dict[str, Any]) -> Exception:
    """Rebuild a typed exception from a worker's error payload."""
    kind = payload.get("kind", "estimation")
    message = str(payload.get("message", ""))
    cls = _WIRE_ERRORS.get(kind)
    if cls is not None:
        return cls(message)
    return RemoteEstimationError(str(payload.get("exc_type", "Exception")), message)


class ShardSupervisor:
    """Owns the worker fleet and the request routing into it."""

    def __init__(self, config: NetServeConfig) -> None:
        self.config = config
        self._workers: List[_Worker] = []
        self._ids = itertools.count(1)
        self._control_lock = threading.Lock()
        self._control: Dict[int, Tuple[threading.Event, List[Any]]] = {}
        self._draining = False
        self._closed = False
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the workers and block until every one is ready.

        Raises:
            RuntimeError: when a worker misses the ready handshake.
        """
        if self._started:
            return
        self._started = True
        for index in range(self.config.shards):
            self._workers.append(self._spawn_worker(index))
        deadline = time.monotonic() + READY_TIMEOUT_S
        for worker in self._workers:
            if not worker.ready.wait(max(deadline - time.monotonic(), 0.0)):
                self.close()
                raise RuntimeError(
                    f"shard {worker.index} missed the ready handshake within "
                    f"{READY_TIMEOUT_S:.1f}s"
                )

    def _spawn_worker(self, index: int) -> _Worker:
        """Spawn one shard worker (process or thread) and its receiver."""
        ctx = multiprocessing.get_context("spawn")
        worker_config = WorkerConfig(
            shard_index=index,
            engine=self.config.engine,
            metrics=self.config.metrics,
            tracing=self.config.tracing,
        )
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        runner: Any
        if self.config.worker_mode == "process":
            runner = ctx.Process(
                target=worker_main,
                args=(child_conn, worker_config),
                name=f"repro-serve-net-worker-{index}",
                daemon=True,
            )
            runner.start()
            child_conn.close()
        else:
            runner = threading.Thread(
                target=worker_main,
                args=(child_conn, worker_config),
                name=f"repro-serve-net-worker-{index}",
                daemon=True,
            )
            runner.start()
        worker = _Worker(index=index, conn=parent_conn, runner=runner)
        worker.receiver = threading.Thread(
            target=self._recv_loop,
            args=(worker,),
            name=f"repro-serve-net-recv-{index}",
            daemon=True,
        )
        worker.receiver.start()
        return worker

    def restart_shard(self, index: int, timeout: Optional[float] = None) -> None:
        """Replace one shard's worker with a fresh one.

        In-flight requests to the old worker fail with
        :class:`WorkerDiedError` (clients retry; the stable routing key
        sends them back to the same shard). The old runner is torn down
        — terminated when it is a process, abandoned to its EOF exit
        when it is a thread — and a replacement spawns with the same
        shard index, so metrics labels and routing are unchanged.

        Raises:
            RuntimeError: when the supervisor is not running, ``index``
                is out of range, or the replacement misses its ready
                handshake.
        """
        if not self._started or self._closed or self._draining:
            raise RuntimeError("restart_shard requires a running supervisor")
        if not 0 <= index < len(self._workers):
            raise RuntimeError(
                f"shard index {index} out of range 0..{len(self._workers) - 1}"
            )
        old = self._workers[index]
        old.dead = True
        self._fail_pending(old, WorkerDiedError(f"shard {index} restarting"))
        try:
            old.conn.close()
        except OSError:
            pass
        if isinstance(old.runner, multiprocessing.process.BaseProcess):
            if old.runner.is_alive():
                old.runner.terminate()
            old.runner.join(5.0)
        if old.receiver is not None:
            old.receiver.join(timeout=5.0)
        replacement = self._spawn_worker(index)
        self._workers[index] = replacement
        budget = READY_TIMEOUT_S if timeout is None else timeout
        if not replacement.ready.wait(budget):
            replacement.dead = True
            raise RuntimeError(
                f"shard {index} replacement missed the ready handshake within "
                f"{budget:.1f}s"
            )

    def ready(self) -> Tuple[bool, str]:
        """Whether every shard accepts traffic, with a reason when not."""
        if self._closed:
            return False, "closed"
        if self._draining:
            return False, "draining"
        if not self._started:
            return False, "not_started"
        for worker in self._workers:
            if worker.dead:
                return False, f"shard_{worker.index}_dead"
            if not worker.ready.is_set():
                return False, f"shard_{worker.index}_starting"
        return True, "ok"

    def drain(self, timeout: Optional[float] = None) -> List[Dict[str, Any]]:
        """Stop admitting, flush every worker's engine, join the fleet.

        Returns per-shard final engine stats (including the worker's own
        ``drained_clean`` flag from :meth:`ServeEngine.close`). Safe to
        call twice; the second call returns the recorded stats.
        """
        self._draining = True
        budget = DRAIN_TIMEOUT_S if timeout is None else timeout
        deadline = time.monotonic() + budget
        for worker in self._workers:
            if worker.dead or worker.drained.is_set():
                continue
            with worker.lock:
                try:
                    worker.conn.send(("drain",))
                except (BrokenPipeError, OSError):
                    worker.dead = True
        stats: List[Dict[str, Any]] = []
        for worker in self._workers:
            clean = worker.drained.wait(max(deadline - time.monotonic(), 0.0))
            if not clean and not worker.dead:
                # Straggler: force it down; its pending futures fail below.
                if isinstance(worker.runner, multiprocessing.process.BaseProcess):
                    worker.runner.terminate()
                worker.dead = True
            self._join_runner(worker, max(deadline - time.monotonic(), 0.1))
            self._fail_pending(worker, WorkerDiedError(f"shard {worker.index} did not drain"))
            stats.append(
                worker.drained_stats
                or {"shard": worker.index, "drained_clean": False}
            )
        self._closed = True
        return stats

    def close(self) -> None:
        """Drain with the configured timeout and release the pipes."""
        if not self._closed:
            self.drain()
        for worker in self._workers:
            try:
                worker.conn.close()
            except OSError:
                pass

    @staticmethod
    def _join_runner(worker: _Worker, timeout: float) -> None:
        runner = worker.runner
        runner.join(timeout)
        if isinstance(runner, multiprocessing.process.BaseProcess) and runner.is_alive():
            runner.terminate()
            runner.join(1.0)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(
        self, call: LocateCall, request_id: Optional[str] = None
    ) -> "Tuple[Future[Dict[str, Any]], int]":
        """Route one parsed call; returns ``(future, shard)``.

        The future resolves to the worker's report payload dict, or to
        the typed exception the worker (or this supervisor) shed it
        with. Raises synchronously for failures that never reach a
        worker — unknown estimator / bad config (as ``resolve_config``),
        :class:`QueueFullError` at the inflight bound,
        :class:`EngineClosedError` when draining,
        :class:`WorkerDiedError` for a dead shard.

        ``request_id`` rides the wire so the worker stamps it on its
        dispatch spans and ships them back on the response payload
        (``payload["trace"]``) for cross-process trace stitching.
        """
        if self._draining or self._closed:
            raise EngineClosedError("server is draining")
        resolved = resolve_config(call.estimator, call.config)
        config_hash = config_fingerprint(
            {"estimator": call.estimator, **resolved.to_dict()}
        )
        shard = shard_for(call.estimator, config_hash, self.config.shards)
        worker = self._workers[shard]
        if worker.dead:
            raise WorkerDiedError(f"shard {shard} worker is down")
        future: "Future[Dict[str, Any]]" = Future()
        deadline_epoch = (
            time.time() + call.deadline_s if call.deadline_s is not None else None
        )
        with worker.lock:
            if len(worker.pending) >= self.config.max_inflight_per_shard:
                self._count_shed("inflight_limit")
                raise QueueFullError(
                    f"shard {shard} at inflight limit "
                    f"{self.config.max_inflight_per_shard}"
                )
            req_id = next(self._ids)
            specs, inline, bundle = self._pack_arrays(call.arrays)
            message = WireRequest(
                req_id=req_id,
                name=call.estimator,
                config=call.config,
                specs=specs,
                inline=inline,
                scalars=call.scalars,
                deadline_epoch=deadline_epoch,
                include_residuals=call.include_residuals,
                request_id=request_id or "",
            )
            worker.pending[req_id] = _Pending(future=future, bundle=bundle, shard=shard)
            try:
                worker.conn.send(message)
            except (BrokenPipeError, OSError) as error:
                entry = worker.pending.pop(req_id, None)
                if entry is not None and entry.bundle is not None:
                    entry.bundle.close()
                worker.dead = True
                raise WorkerDiedError(f"shard {shard} pipe is broken") from error
            depth = len(worker.pending)
        if metrics_enabled():
            registry = get_registry()
            registry.counter("serve.net.shard_requests_total", shard=shard).inc()
            registry.gauge("serve.net.shard_inflight", shard=shard).set(depth)
        return future, shard

    def _pack_arrays(
        self, arrays: Dict[str, Any]
    ) -> Tuple[Dict[str, SharedArraySpec], Dict[str, Any], Optional[SharedArrayBundle]]:
        """Choose the transport for one request's arrays.

        Large payloads (>= ``shm_threshold_bytes`` in total) go through
        a parent-owned shared-memory bundle — workers map the bytes
        instead of unpickling them — and the bundle is closed when the
        response (or the worker's death) releases the request. Small
        payloads pickle inline; a segment per tiny request costs more
        than it moves.
        """
        total = sum(array.nbytes for array in arrays.values())
        if not arrays or total < self.config.shm_threshold_bytes:
            return {}, dict(arrays), None
        bundle = SharedArrayBundle(**arrays)
        specs = {
            name: spec for name, spec in bundle.specs.items() if spec is not None
        }
        return specs, {}, bundle

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _recv_loop(self, worker: _Worker) -> None:
        """Per-worker receiver: resolve futures, stash control replies."""
        try:
            while True:
                message = worker.conn.recv()
                if isinstance(message, WireResponse):
                    self._resolve(worker, message)
                elif isinstance(message, tuple) and message:
                    if message[0] == "ready":
                        worker.ready.set()
                    elif message[0] == "drained":
                        worker.drained_stats = message[1]
                        worker.drained.set()
                    elif message[0] in ("metrics_res", "stats_res"):
                        with self._control_lock:
                            slot = self._control.pop(message[1], None)
                        if slot is not None:
                            slot[1].append(message[2])
                            slot[0].set()
        except (EOFError, OSError):
            pass
        finally:
            if not worker.drained.is_set():
                worker.dead = True
                self._fail_pending(
                    worker, WorkerDiedError(f"shard {worker.index} worker exited")
                )

    def _resolve(self, worker: _Worker, message: WireResponse) -> None:
        with worker.lock:
            entry = worker.pending.pop(message.req_id, None)
            depth = len(worker.pending)
        if entry is None:
            return
        if entry.bundle is not None:
            entry.bundle.close()
        if metrics_enabled():
            get_registry().gauge("serve.net.shard_inflight", shard=worker.index).set(depth)
        if message.ok:
            entry.future.set_result(message.payload)
        else:
            if message.payload.get("kind") == "queue_full":
                self._count_shed("worker_queue")
            entry.future.set_exception(_wire_error(message.payload))

    def _fail_pending(self, worker: _Worker, error: Exception) -> None:
        with worker.lock:
            entries = list(worker.pending.values())
            worker.pending.clear()
        for entry in entries:
            if entry.bundle is not None:
                entry.bundle.close()
            if not entry.future.done():
                entry.future.set_exception(error)

    @staticmethod
    def _count_shed(reason: str) -> None:
        if metrics_enabled():
            get_registry().counter("serve.net.shed_total", reason=reason).inc()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def _control_roundtrip(self, worker: _Worker, kind: str, timeout: float) -> Any:
        """Blocking control request to one worker; ``None`` on timeout."""
        if worker.dead or worker.drained.is_set():
            return None
        mid = next(self._ids)
        event = threading.Event()
        holder: List[Any] = []
        with self._control_lock:
            self._control[mid] = (event, holder)
        with worker.lock:
            try:
                worker.conn.send((kind, mid))
            except (BrokenPipeError, OSError):
                return None
        if not event.wait(timeout):
            with self._control_lock:
                self._control.pop(mid, None)
            return None
        return holder[0]

    def shard_stats(self, timeout: float = 5.0) -> List[Dict[str, Any]]:
        """Per-shard engine stats (live via control message, or final)."""
        stats: List[Dict[str, Any]] = []
        for worker in self._workers:
            if worker.drained_stats is not None:
                stats.append(worker.drained_stats)
                continue
            reply = self._control_roundtrip(worker, "stats", timeout)
            if reply is None:
                stats.append({"shard": worker.index, "unreachable": True})
            else:
                reply = dict(reply)
                reply["shard"] = worker.index
                stats.append(reply)
        return stats

    def merged_metrics(self, timeout: float = 5.0) -> MetricsRegistry:
        """One registry merging the parent's metrics with every shard's.

        Process-mode worker snapshots gain a ``shard="i"`` label before
        merging, so per-shard engine series (queue depth, batch sizes)
        stay distinguishable in one exporter. Thread-mode workers record
        straight into the parent registry already, so their snapshots
        are skipped to avoid double counting.
        """
        merged = MetricsRegistry()
        merged.merge(get_registry().snapshot())
        if self.config.worker_mode != "process":
            return merged
        for worker in self._workers:
            snapshot = self._control_roundtrip(worker, "metrics", timeout)
            if not snapshot:
                continue
            merged.merge(_label_shard(snapshot, worker.index))
        return merged

    def prometheus_text(self, timeout: float = 5.0) -> str:
        """The merged registry in Prometheus text exposition format."""
        return self.merged_metrics(timeout).to_prometheus_text()


def _label_shard(
    snapshot: Dict[str, List[Dict[str, Any]]], shard: int
) -> Dict[str, List[Dict[str, Any]]]:
    """Copy of a worker's metrics snapshot with ``shard`` stamped on."""
    labelled: Dict[str, List[Dict[str, Any]]] = {}
    for kind, entries in snapshot.items():
        labelled[kind] = []
        for entry in entries:
            entry = dict(entry)
            entry["labels"] = {**entry.get("labels", {}), "shard": str(shard)}
            labelled[kind].append(entry)
    return labelled
