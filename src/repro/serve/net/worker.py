"""Shard worker: one process (or thread), one :class:`ServeEngine`.

The supervisor ships each request's arrays either inline (small
payloads, pickled straight through the pipe) or as
:class:`repro.parallel.SharedArraySpec` handles into shared memory the
parent owns (:class:`SharedArrayBundle`); the worker attaches, copies
out, and detaches immediately so the per-process attachment cache never
grows with request count. Responses are small (a position, diagnostics,
optionally residuals) and return pickled.

Concurrency shape: the main thread is a blocking ``recv`` loop that
submits into the engine and returns immediately; ticket completions —
fired on the engine's batcher thread — enqueue responses onto an
outbound queue drained by a single sender thread, because a
``multiprocessing`` connection tolerates one sender at a time. Pipe
FIFO ordering is the drain guarantee: every request the supervisor sent
before the drain control message is received (and submitted) before the
worker stops, and ``engine.close()`` resolves everything submitted, so
an accepted request is never lost.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.obs import (
    enable_metrics,
    enable_tracing,
    get_registry,
    metrics_enabled,
    take_request_spans,
    tracing_enabled,
)
from repro.parallel import SharedArraySpec, attach_shared_arrays, detach_shared_arrays
from repro.pipeline.contract import EstimationReport, EstimationRequest
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.errors import (
    DeadlineExceededError,
    EngineClosedError,
    QueueFullError,
)

# `multiprocessing.connection.Connection` is typed loosely on purpose:
# thread-mode workers receive one end of a Pipe created by the parent,
# process-mode workers receive it via the spawn pickling machinery.
Connection = Any


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker needs, picklable for spawn.

    Attributes:
        shard_index: this worker's shard number (labels, logs).
        engine: the hosted engine's :class:`ServeConfig`.
        metrics: enable :mod:`repro.obs` metrics in the worker.
        tracing: enable :mod:`repro.obs` span recording; dispatch spans
            of traced requests ship back on the response payload so the
            front end stitches them into one cross-process trace.
        drain_timeout_s: bound on the closing engine drain.
    """

    shard_index: int
    engine: ServeConfig = field(default_factory=ServeConfig)
    metrics: bool = True
    tracing: bool = False
    drain_timeout_s: float = 30.0


@dataclass(frozen=True)
class WireRequest:
    """One request crossing the supervisor -> worker pipe.

    Attributes:
        req_id: supervisor-unique id the response echoes back.
        name / config: estimator name and config-override dict.
        specs: shared-memory handles for large request arrays.
        inline: small request arrays, pickled directly.
        scalars: plain request fields.
        deadline_epoch: absolute ``time.time()`` deadline (comparable
            across processes) or ``None``.
        include_residuals: whether the response payload carries
            residuals.
        request_id: end-to-end request id from the HTTP ingress (empty
            when tracing is off); stamps the engine's dispatch span so
            worker spans stitch back to this request.
    """

    req_id: int
    name: str
    config: Optional[Dict[str, Any]]
    specs: Dict[str, SharedArraySpec]
    inline: Dict[str, np.ndarray]
    scalars: Dict[str, Any]
    deadline_epoch: Optional[float]
    include_residuals: bool
    request_id: str = ""


@dataclass(frozen=True)
class WireResponse:
    """One response crossing the worker -> supervisor pipe.

    ``ok`` responses carry a :func:`report_payload` dict; failures carry
    ``{"kind": ..., "exc_type": ..., "message": ...}`` with kind one of
    ``queue_full`` / ``deadline`` / ``draining`` / ``estimation``.
    """

    req_id: int
    ok: bool
    payload: Dict[str, Any]


def report_payload(report: EstimationReport, include_residuals: bool) -> Dict[str, Any]:
    """Picklable subset of an :class:`EstimationReport` for the wire.

    ``raw`` (the solver's native result object) never crosses the pipe —
    it may hold unpicklable internals and no network client needs it.
    """
    residuals: Optional[np.ndarray] = None
    if include_residuals and report.residuals is not None:
        residuals = np.asarray(report.residuals)
    return {
        "estimator": report.estimator,
        "config_hash": report.config_hash,
        "position": np.asarray(report.position),
        "reference_distance_m": report.reference_distance_m,
        "residuals": residuals,
        "diagnostics": report.diagnostics,
    }


def _error_payload(error: BaseException) -> Dict[str, Any]:
    if isinstance(error, QueueFullError):
        kind = "queue_full"
    elif isinstance(error, DeadlineExceededError):
        kind = "deadline"
    elif isinstance(error, EngineClosedError):
        kind = "draining"
    else:
        kind = "estimation"
    return {"kind": kind, "exc_type": type(error).__name__, "message": str(error)}


def _send_loop(conn: Connection, outbound: "queue.Queue[Optional[Any]]") -> None:
    """Single sender: drain the outbound queue into the pipe until ``None``."""
    while True:
        message = outbound.get()
        if message is None:
            return
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):  # parent is gone; keep draining
            return


def _decode_request(message: WireRequest) -> EstimationRequest:
    """Rebuild the :class:`EstimationRequest` from inline + shm arrays."""
    arrays: Dict[str, np.ndarray] = dict(message.inline)
    if message.specs:
        views = attach_shared_arrays(dict(message.specs))
        try:
            for name, view in views.items():
                if view is not None:
                    arrays[name] = np.array(view)
        finally:
            detach_shared_arrays(dict(message.specs))
    return EstimationRequest(**arrays, **message.scalars)


def _submit(
    engine: ServeEngine,
    message: WireRequest,
    outbound: "queue.Queue[Optional[Any]]",
) -> None:
    """Admit one wire request; completions enqueue the response."""
    try:
        request = _decode_request(message)
        deadline_s: Optional[float] = None
        if message.deadline_epoch is not None:
            # An already-expired deadline still goes through the engine so
            # the ticket resolves with the engine's own DeadlineExceededError.
            deadline_s = max(message.deadline_epoch - time.time(), 1e-9)
        ticket = engine.submit(
            message.name,
            request,
            config=message.config,
            deadline_s=deadline_s,
            request_id=message.request_id or None,
        )
    except Exception as error:  # noqa: BLE001 - every failure must answer
        outbound.put(WireResponse(message.req_id, False, _error_payload(error)))
        return

    req_id = message.req_id
    include_residuals = message.include_residuals
    request_id = message.request_id

    def _done(future: Any) -> None:
        error = future.exception()
        if error is None:
            payload = report_payload(future.result(), include_residuals)
            if request_id and tracing_enabled():
                spans = take_request_spans(request_id)
                if spans:
                    payload["trace"] = spans
            outbound.put(WireResponse(req_id, True, payload))
        else:
            outbound.put(WireResponse(req_id, False, _error_payload(error)))

    ticket.add_done_callback(_done)


def worker_main(conn: Connection, config: WorkerConfig) -> None:
    """Entry point of one shard worker (process target or thread target).

    Protocol (supervisor side: :mod:`repro.serve.net.supervisor`):

    - in: :class:`WireRequest`, ``("metrics", mid)``, ``("stats", mid)``,
      ``("drain",)``
    - out: ``("ready", shard)``, :class:`WireResponse`,
      ``("metrics_res", mid, snapshot)``, ``("stats_res", mid, stats)``,
      and finally ``("drained", stats)``.
    """
    if config.metrics:
        enable_metrics()
    if config.tracing:
        enable_tracing()
    outbound: "queue.Queue[Optional[Any]]" = queue.Queue()
    sender = threading.Thread(
        target=_send_loop,
        args=(conn, outbound),
        name=f"repro-serve-net-sender-{config.shard_index}",
        daemon=True,
    )
    sender.start()
    engine = ServeEngine(config.engine)
    outbound.put(("ready", config.shard_index))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # supervisor is gone; drain what was accepted
            if isinstance(message, WireRequest):
                _submit(engine, message, outbound)
            elif isinstance(message, tuple) and message and message[0] == "metrics":
                snapshot = get_registry().snapshot() if metrics_enabled() else None
                outbound.put(("metrics_res", message[1], snapshot))
            elif isinstance(message, tuple) and message and message[0] == "stats":
                outbound.put(("stats_res", message[1], engine.stats()))
            elif isinstance(message, tuple) and message and message[0] == "drain":
                break
    finally:
        clean = engine.close(timeout=config.drain_timeout_s)
        stats = engine.stats()
        stats["shard"] = config.shard_index
        stats["drained_clean"] = clean
        outbound.put(("drained", stats))
        outbound.put(None)
        sender.join(timeout=5.0)
