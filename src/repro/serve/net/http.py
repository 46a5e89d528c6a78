"""Asyncio HTTP front end over the shard supervisor.

The server is a deliberately small hand-rolled HTTP/1.1 implementation
on ``asyncio`` streams — no web framework, because the surface is eight
routes and the dependency budget is zero:

- ``POST /v1/locate`` — parse, route via the supervisor, answer JSON.
- ``POST /v1/sessions`` / ``POST /v1/sessions/{id}/reads`` (NDJSON) /
  ``GET|DELETE /v1/sessions/{id}`` — the streaming session surface over
  one front-end :class:`repro.stream.SessionManager` (429 at capacity,
  503 while draining, lifecycle events in each response).
- ``GET /v1/calibrations`` / ``GET /v1/calibrations/{antenna}`` /
  ``POST /v1/calibrations`` — the calibration registry surface (fleet
  status, per-antenna version history, CAS commits; present only with
  ``calibration_store`` configured). A ``/v1/locate`` request naming
  ``antennas`` resolves to calibrated centers/offsets here, in the
  front end, before the shard hop.
- ``GET /healthz``    — liveness: 200 while the process runs.
- ``GET /readyz``     — readiness: 503 the moment draining starts (and
  while any shard is down), so load balancers stop sending *before* the
  listener closes (``drain_grace_s`` holds that window open).
- ``GET /metrics``    — merged Prometheus text across all shards.
- ``GET /statz``      — JSON per-shard engine stats.
- ``GET /slo``        — latency/error objectives as multi-window burn rates.
- ``GET /debug/timeseries`` — ring-buffer telemetry history (per-second
  request/error/shed rates, bucket-quantile latency, inflight/queue
  gauges), ``?window=<seconds>`` to narrow.
- ``GET /debug/traces`` — the flight recorder: the last N slow/errored
  stitched request traces (``?limit=<n>``); SIGUSR2 dumps it to disk.

Every request gets a ``request_id`` at ingress — a well-formed caller
``X-Request-Id`` wins, then the trace-id of a W3C ``traceparent``, then
a minted UUID — echoed back as an ``X-Request-Id`` response header.
With tracing on, ``/v1/locate`` assembles one stitched cross-process
trace per request: a ``serve.net.ingress`` root, a ``serve.net.route``
child for the shard round trip, and under it the worker's own dispatch
spans (``serve.batch``/``serve.scalar`` down to the solver), shipped
back on the wire response and grafted by request id.

Shutdown is a strict sequence — flip readiness, grace sleep, close the
listener, wait for in-flight HTTP exchanges, drain the session manager
(final windowed re-solves + departures for every live session), then
drain the supervisor (which flushes every worker engine). Requests that
were read off a socket before the listener closed always get real
answers: the supervisor only starts refusing after the in-flight set is
empty.

Three entry points share :class:`NetServer`: ``await``-able use inside
an existing loop, :class:`ServerHandle` for tests and the benchmark
(loop in a background thread, synchronous start/stop), and
:func:`run_server` for the CLI (signal-driven, blocks until drained).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import threading
import time
from dataclasses import replace
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, unquote

import numpy as np

from repro.calib import (
    CalibrationResolver,
    CalibrationStore,
    CorruptRecordError,
    UnknownAntennaError,
    VersionConflictError,
)
from repro.core.calibration import AntennaCalibration
from repro.obs import (
    FlightRecorder,
    HistorySampler,
    MetricsHistory,
    Sample,
    SloTracker,
    SpanNode,
    bind_request_id,
    counter_delta,
    enable_metrics,
    enable_tracing,
    error_rate_slo,
    gauge_values,
    get_logger,
    get_registry,
    histogram_delta,
    ingest_request_spans,
    latency_slo,
    metrics_enabled,
    quantile,
    request_id_from_headers,
    tracing_enabled,
)
from repro.serve.net.config import (
    CALIBRATION_MAX_AGE_S,
    DRAIN_TIMEOUT_S,
    HISTORY_WINDOW_S,
    MAX_BODY_BYTES,
    READY_TIMEOUT_S,
    RECORDER_CAPACITY,
    SESSION_SWEEP_CADENCE_S,
    NetServeConfig,
)
from repro.serve.net.protocol import (
    BadRequestError,
    LocateCall,
    classify_error,
    encode_report_payload,
    error_body,
    parse_locate_body,
)
from repro.serve.net.sessions import (
    classify_session_error,
    feed_result_body,
    parse_reads_ndjson,
    parse_session_create,
)
from repro.serve.net.supervisor import ShardSupervisor
from repro.stream import SessionManager

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Shard-index buckets for the routing histogram: supports up to 64
#: shards with exact per-index counts at small shard counts.
_SHARD_BUCKETS = tuple(float(i) for i in range(17)) + (24.0, 32.0, 48.0, 64.0)

_logger = get_logger("serve.net")


def derive_serve_sample(sample: Sample, route: str = "/v1/locate") -> Dict[str, Any]:
    """Dashboard-ready serving stats from one telemetry sample.

    The shape ``GET /debug/timeseries`` serves (and ``lion top`` renders):
    per-second request/error/shed rates over the sample interval,
    bucket-interpolated latency quantiles (``None`` when the interval saw
    no requests), the summed inflight/queue-depth gauges, and the
    streaming-session lane (live sessions, read/event ingest rates).
    """

    def on_route(labels: Dict[str, str]) -> bool:
        return labels.get("route") == route

    def on_route_error(labels: Dict[str, str]) -> bool:
        return on_route(labels) and labels.get("status", "").startswith(("4", "5"))

    dt = max(sample.dt, 1e-9)
    requests = counter_delta(sample, "serve.net.requests_total", on_route)
    errors = counter_delta(sample, "serve.net.requests_total", on_route_error)
    shed = counter_delta(sample, "serve.net.shed_total")
    latency = histogram_delta(sample, "serve.net.request_seconds", on_route)
    p50 = quantile(latency, 0.5)
    p99 = quantile(latency, 0.99)
    inflight = sum(value for _, value in gauge_values(sample, "serve.net.shard_inflight"))
    queue_depth = sum(value for _, value in gauge_values(sample, "serve.queue_depth"))
    sessions = sum(
        value for _, value in gauge_values(sample, "serve.stream.sessions_active")
    )
    stream_reads = counter_delta(sample, "serve.stream.reads_total")
    stream_events = counter_delta(sample, "serve.stream.events_total")
    template_hits = counter_delta(sample, "serve.template_cache_hits")
    template_total = template_hits + counter_delta(
        sample, "serve.template_cache_misses"
    )
    pair_hits = counter_delta(
        sample, "adaptive.pair_cache_total", lambda labels: labels.get("result") == "hit"
    )
    pair_total = counter_delta(sample, "adaptive.pair_cache_total")
    return {
        "t": sample.t,
        "dt": round(sample.dt, 6),
        "req_s": round(requests / dt, 3),
        "err_s": round(errors / dt, 3),
        "shed_s": round(shed / dt, 3),
        "p50_ms": None if p50 is None else round(p50 * 1e3, 3),
        "p99_ms": None if p99 is None else round(p99 * 1e3, 3),
        "inflight": inflight,
        "queue_depth": queue_depth,
        "sessions": sessions,
        "stream_reads_s": round(stream_reads / dt, 3),
        "stream_events_s": round(stream_events / dt, 3),
        # Geometry-cache hit rates over this interval (None when the
        # interval saw no probes): the repeat-trajectory signal of the
        # fused batch path (template cache in repro.core.batch_prepare,
        # pair cache in repro.core.sweep).
        "template_hit_rate": (
            None if template_total == 0 else round(template_hits / template_total, 4)
        ),
        "pair_hit_rate": (
            None if pair_total == 0 else round(pair_hits / pair_total, 4)
        ),
    }


class _HttpError(Exception):
    """Terminate one exchange with a fixed status (parser-level errors)."""

    def __init__(self, status: int, kind: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.body = error_body(kind, message)


class NetServer:
    """The asyncio server; owns the listener and one :class:`ShardSupervisor`."""

    def __init__(self, config: NetServeConfig) -> None:
        self.config = config
        self._supervisor = ShardSupervisor(config)
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: "Set[asyncio.StreamWriter]" = set()
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._drained = False
        self._drain_stats: List[Dict[str, Any]] = []
        # Sessions live in the front-end process: windowed re-solves run
        # on the serving thread pool, so their events and
        # ``serve.stream.*`` series land in the registry ``/metrics``
        # merges.
        self._sessions = SessionManager(
            defaults=config.stream, max_sessions=config.max_sessions
        )
        self._session_drain: Optional[Dict[str, Any]] = None
        self._sweep_task: Optional["asyncio.Task[None]"] = None
        capacity = int(math.ceil(HISTORY_WINDOW_S / config.history_cadence_s)) + 8
        self._history = MetricsHistory(capacity=capacity)
        self._recorder = FlightRecorder(
            capacity=RECORDER_CAPACITY,
            slow_threshold_s=config.recorder_slow_ms / 1e3,
        )
        self._slo = SloTracker(
            self._history,
            [latency_slo(config.slo_p99_ms), error_rate_slo(config.slo_error_rate)],
        )
        self._sampler = HistorySampler(
            source=lambda: self._supervisor.merged_metrics().snapshot(),
            history=self._history,
            cadence_s=config.history_cadence_s,
            on_sample=self._evaluate_slo,
        )
        # The calibration registry lives in the front-end process:
        # ``antennas`` on /v1/locate resolve here (generation-stamped
        # cache) so workers only ever see explicit arrays — no
        # cross-process store synchronisation.
        self._calib_store: Optional[CalibrationStore] = None
        self._calib_resolver: Optional[CalibrationResolver] = None
        if config.calibration_store is not None:
            self._calib_store = CalibrationStore(config.calibration_store, create=True)
            self._calib_resolver = CalibrationResolver(self._calib_store)

    def _evaluate_slo(self) -> None:
        """Per-sample SLO pass so budget-burn transitions hit the log."""
        self._slo.evaluate()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sockets = self._server.sockets
        return int(sockets[0].getsockname()[1])

    @property
    def supervisor(self) -> ShardSupervisor:
        return self._supervisor

    @property
    def sessions(self) -> SessionManager:
        """The streaming-session manager behind ``/v1/sessions``."""
        return self._sessions

    @property
    def calibration_store(self) -> Optional[CalibrationStore]:
        """The calibration registry behind ``/v1/calibrations`` (or None)."""
        return self._calib_store

    @property
    def recorder(self) -> FlightRecorder:
        """The slow/errored-request flight recorder behind ``/debug/traces``."""
        return self._recorder

    @property
    def history(self) -> MetricsHistory:
        """The telemetry ring buffer behind ``/debug/timeseries``."""
        return self._history

    @property
    def sampler(self) -> HistorySampler:
        """The cadence thread feeding :attr:`history` (tests drive it)."""
        return self._sampler

    def dump_traces(self, path: Optional[str] = None) -> Tuple[str, int]:
        """Dump the flight recorder to disk; returns ``(path, count)``."""
        target = path or self.config.trace_dump_path
        count = self._recorder.dump(target)
        return target, count

    @property
    def drain_stats(self) -> List[Dict[str, Any]]:
        """Per-shard final engine stats; populated by :meth:`shutdown`."""
        return self._drain_stats

    async def start(self) -> None:
        """Boot the workers, then bind and start serving."""
        if self.config.metrics:
            enable_metrics()
        if self.config.tracing:
            enable_tracing()
        # Worker startup blocks on ready handshakes; keep the loop free.
        await asyncio.to_thread(self._supervisor.start)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_BODY_BYTES + 65536,
        )
        if self.config.metrics:
            self._sampler.start()
        self._sweep_task = asyncio.create_task(self._sweep_sessions())

    async def _sweep_sessions(self) -> None:
        """Background idle sweep: depart sessions past ``depart_after_s``."""
        try:
            while True:
                await asyncio.sleep(SESSION_SWEEP_CADENCE_S)
                await asyncio.to_thread(self._sessions.poll)
        except asyncio.CancelledError:
            pass

    async def shutdown(self) -> List[Dict[str, Any]]:
        """Graceful drain; returns per-shard final engine stats.

        Sequence: flip ``/readyz`` to 503 -> ``drain_grace_s`` (load
        balancers observe not-ready while the socket still accepts) ->
        close the listener -> wait for in-flight exchanges (bounded by
        ``DRAIN_TIMEOUT_S``) -> drain the session manager (one final
        windowed re-solve and a ``TagDeparted(reason="drain")`` per live
        session; the summary lands in :attr:`session_drain`) -> drain
        the supervisor and workers. Idempotent: a second call returns
        the recorded stats.
        """
        if self._draining:
            if not self._drained:
                await self._wait_drained()
            return self._drain_stats
        self._draining = True
        await asyncio.to_thread(self._sampler.stop)
        if self.config.drain_grace_s > 0:
            await asyncio.sleep(self.config.drain_grace_s)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # ``_idle`` wakes its waiter even if another exchange starts before
        # this coroutine resumes, so re-check the count: connections close
        # only once no dispatched request still owes its response.
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while self._inflight:
            try:
                await asyncio.wait_for(self._idle.wait(), deadline - time.monotonic())
            except asyncio.TimeoutError:
                break
        for writer in list(self._connections):
            writer.close()
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            try:
                await self._sweep_task
            except asyncio.CancelledError:
                pass
        self._session_drain = await asyncio.to_thread(self._sessions.drain)
        self._drain_stats = await asyncio.to_thread(self._supervisor.drain)
        self._supervisor.close()
        self._drained = True
        return self._drain_stats

    @property
    def session_drain(self) -> Optional[Dict[str, Any]]:
        """Session-drain summary; populated by :meth:`shutdown`."""
        return self._session_drain

    async def _wait_drained(self) -> None:
        """Second ``shutdown`` caller: poll until the first finishes."""
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while not self._drained and time.monotonic() < deadline:
            await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: HTTP/1.1 exchanges with keep-alive."""
        self._connections.add(writer)
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _HttpError as error:
                    await self._write_response(
                        writer, error.status, error.body, close=True
                    )
                    break
                if parsed is None or writer.is_closing():
                    # A request read after the drain closed this
                    # connection could never be answered: never dispatch it.
                    break
                method, path, headers, body = parsed
                self._inflight += 1
                self._idle.clear()
                started = time.perf_counter()
                try:
                    status, response, extra = await self._dispatch(
                        method, path, headers, body
                    )
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                self._observe(path, status, time.perf_counter() - started)
                close = (
                    self._draining
                    or headers.get("connection", "").lower() == "close"
                )
                await self._write_response(
                    writer, status, response, extra_headers=extra, close=close
                )
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one request; ``None`` on a cleanly closed connection."""
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as error:
            raise _HttpError(400, "bad_request", "request line too long") from error
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, "bad_request", "malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError as error:
            raise _HttpError(
                400, "bad_request", f"bad Content-Length: {length_text!r}"
            ) from error
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                "payload_too_large",
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Any,
        extra_headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        """Serialize and flush one response (JSON dict or str payloads)."""
        if isinstance(body, (dict, list)):
            payload = json.dumps(body).encode()
            content_type = "application/json"
        else:
            payload = str(body).encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        """Route one request; returns ``(status, body, extra headers)``.

        Resolves the request id from the inbound headers, binds it for
        structured logging across the handler, and — with tracing on —
        assembles the stitched trace of every ``/v1/locate`` exchange
        for the flight recorder. The id is echoed back on every response
        as ``X-Request-Id``.
        """
        path, _, query = path.partition("?")
        request_id, id_source = request_id_from_headers(headers)
        trace_children: List[SpanNode] = []
        routes: Dict[
            Tuple[str, str], Callable[[], Awaitable[Tuple[int, Any, Optional[Dict[str, str]]]]]
        ] = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/readyz"): self._readyz,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/statz"): self._statz,
            ("GET", "/slo"): self._slo_route,
            ("GET", "/debug/timeseries"): lambda: self._debug_timeseries(query),
            ("GET", "/debug/traces"): lambda: self._debug_traces(query),
            ("POST", "/v1/locate"): lambda: self._locate(body, request_id, trace_children),
            ("GET", "/v1/calibrations"): self._calibrations_list,
            ("POST", "/v1/calibrations"): lambda: self._calibrations_commit(body),
        }
        handler = routes.get((method, path))
        if handler is None and path.startswith("/v1/calibrations/"):
            handler = self._calibration_route(method, path)
        if handler is None and path.startswith("/v1/sessions"):
            handler = self._session_route(method, path, body)
        if handler is None:
            if any(route_path == path for _, route_path in routes):
                return 405, error_body("method_not_allowed", f"{method} {path}"), None
            return 404, error_body("not_found", path), None
        traced = tracing_enabled() and path == "/v1/locate"
        started_epoch = time.time()
        started = time.perf_counter()
        extra: Optional[Dict[str, str]]
        try:
            with bind_request_id(request_id):
                status, payload, extra = await handler()
        except Exception as error:  # noqa: BLE001 - total mapping to HTTP
            if path.startswith("/v1/sessions"):
                status, payload = classify_session_error(error, self.config.retry_after_s)
            else:
                status, payload = classify_error(error, self.config.retry_after_s)
            extra = None
            if status == 429:
                # RFC 9110 Retry-After is delta-seconds (an integer);
                # the JSON body carries the precise float hint.
                extra = {"Retry-After": str(max(1, math.ceil(self.config.retry_after_s)))}
            if path == "/v1/locate":
                # Server-side failures are warnings; client/backpressure
                # outcomes (4xx) stay at debug so shedding under load
                # does not flood the log.
                log = _logger.warning if status >= 500 else _logger.debug
                log(
                    "locate request failed: status=%s kind=%s: %s",
                    status,
                    payload.get("error", {}).get("kind", "unknown"),
                    error,
                    extra={"request_id": request_id},
                )
        if traced:
            self._record_trace(
                request_id,
                id_source,
                path,
                status,
                started_epoch,
                time.perf_counter() - started,
                trace_children,
            )
        elif tracing_enabled() and path.startswith("/v1/sessions"):
            # Session re-solves run in this process and finish as trace
            # roots no worker ever claims; file them in the bounded span
            # store so the root list cannot grow with session traffic.
            ingest_request_spans()
        extra = dict(extra) if extra else {}
        extra["X-Request-Id"] = request_id
        return status, payload, extra

    def _record_trace(
        self,
        request_id: str,
        id_source: str,
        path: str,
        status: int,
        started_epoch: float,
        elapsed_s: float,
        children: List[SpanNode],
    ) -> None:
        """Assemble the ingress root span and offer it to the recorder."""
        ingress = SpanNode(
            name="serve.net.ingress",
            attributes={
                "request_id": request_id,
                "id_source": id_source,
                "route": path,
                "status": status,
            },
            start_s=started_epoch,
            end_s=started_epoch + elapsed_s,
            pid=os.getpid(),
            children=children,
        )
        self._recorder.consider(ingress, status=status, request_id=request_id, route=path)

    async def _healthz(self) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        return 200, {"status": "ok"}, None

    async def _readyz(self) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        if self._draining:
            return 503, {"status": "draining"}, None
        ok, reason = self._supervisor.ready()
        if ok:
            return 200, {"status": "ok", "shards": self.config.shards}, None
        return 503, {"status": "unready", "reason": reason}, None

    async def _metrics(self) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        if not self.config.metrics:
            return 200, "# metrics disabled\n", None
        text = await asyncio.to_thread(self._supervisor.prometheus_text)
        return 200, text, None

    async def _statz(self) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        stats = await asyncio.to_thread(self._supervisor.shard_stats)
        payload = {
            "shards": self.config.shards,
            "worker_mode": self.config.worker_mode,
            "draining": self._draining,
            "per_shard": stats,
            "sessions": self._sessions.stats(),
            "calibration": self._calibration_health(),
        }
        return 200, payload, None

    def _calibration_health(self) -> Dict[str, Any]:
        """The fleet-health rollup of ``/statz`` (cheap: no per-antenna
        detail — ``GET /v1/calibrations`` carries the full table)."""
        if self._calib_store is None or self._calib_resolver is None:
            return {"enabled": False}
        status = self._calib_store.fleet_status(max_age_s=CALIBRATION_MAX_AGE_S)
        return {
            "enabled": True,
            "generation": status["generation"],
            "antennas": status["antennas"],
            "versions_total": status["versions_total"],
            "stale_by_age": status["stale_by_age"],
            "resolver": self._calib_resolver.stats(),
        }

    async def _locate(
        self, body: bytes, request_id: str, trace_children: List[SpanNode]
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        """The request path: parse -> route -> await the shard's answer.

        With tracing on, the worker ships its dispatch spans back on the
        response payload (keyed by ``request_id``); they are grafted
        under a ``serve.net.route`` span appended to ``trace_children``
        so :meth:`_dispatch` can hang the whole subtree off the ingress
        root.
        """
        started = time.perf_counter()
        started_epoch = time.time()
        traced = tracing_enabled()
        call = parse_locate_body(body, max_deadline_s=self.config.max_deadline_s)
        if "antennas" in call.scalars:
            call = self._resolve_call_calibration(call)
        future, shard = self._supervisor.submit(
            call, request_id=request_id if traced else None
        )
        if metrics_enabled():
            get_registry().histogram(
                "serve.net.shard_route", buckets=_SHARD_BUCKETS
            ).observe(float(shard))
        payload = await asyncio.wrap_future(future)
        server_ms = (time.perf_counter() - started) * 1e3
        worker_trace = payload.pop("trace", None)
        if traced:
            trace_children.append(
                SpanNode(
                    name="serve.net.route",
                    attributes={
                        "request_id": request_id,
                        "shard": shard,
                        "estimator": call.estimator,
                    },
                    start_s=started_epoch,
                    end_s=time.time(),
                    pid=os.getpid(),
                    children=[SpanNode.from_dict(p) for p in (worker_trace or [])],
                )
            )
        return (
            200,
            encode_report_payload(payload, shard, server_ms, request_id=request_id),
            None,
        )

    # ------------------------------------------------------------------
    # calibration registry
    # ------------------------------------------------------------------
    def _resolve_call_calibration(self, call: LocateCall) -> LocateCall:
        """Resolve ``antennas`` into explicit arrays before routing.

        This is the one place antenna names become arrays. Workers never
        see antenna names: the registry lives here in the front end, so
        resolution must happen before the shard hop. The resolved call is
        bit-identical to one the client could have sent with explicit
        arrays (explicitly sent arrays win over the store's).

        Raises:
            BadRequestError: no calibration store is configured.
            UnknownAntennaError: an antenna the store has no records for
                (mapped to 404 by :func:`classify_error`).
        """
        if self._calib_resolver is None:
            raise BadRequestError(
                "request names 'antennas' but the server has no calibration "
                "store configured (NetServeConfig.calibration_store)"
            )
        scalars = dict(call.scalars)
        antennas = tuple(scalars.pop("antennas"))
        arrays = dict(call.arrays)
        needs_positions = "positions" not in arrays
        needs_offsets = "offset_corrections_rad" not in arrays
        if needs_positions or needs_offsets:
            bounds = scalars.get("bounds")
            dim = len(bounds) if bounds else 3
            centers, offsets = self._calib_resolver.lookup(antennas, dim)
            if needs_positions:
                arrays["positions"] = np.asarray(centers)
            if needs_offsets:
                arrays["offset_corrections_rad"] = np.asarray(offsets)
        return replace(call, arrays=arrays, scalars=scalars)

    async def _calibrations_list(self) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        """``GET /v1/calibrations``: the full fleet status table."""
        if self._calib_store is None:
            return 404, error_body("not_found", "no calibration store configured"), None
        status = await asyncio.to_thread(
            self._calib_store.fleet_status, CALIBRATION_MAX_AGE_S
        )
        return 200, status, None

    async def _calibrations_commit(
        self, body: bytes
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        """``POST /v1/calibrations``: commit one calibration version.

        Body: ``{"antenna": ..., "physical_center": [x,y,z],
        "estimated_center": [x,y,z], "phase_offset_rad": ...}`` plus
        optional ``source`` / ``reads`` / ``residual_rms_m`` /
        ``config_hash`` / ``manifest`` / ``expected_version`` (the CAS
        token; 409 on conflict). The store assigns the version.
        """
        if self._calib_store is None:
            return 404, error_body("not_found", "no calibration store configured"), None
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as error:
            raise BadRequestError(f"body is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise BadRequestError("body must be a JSON object")
        try:
            calibration = AntennaCalibration(
                antenna_name=str(payload["antenna"]),
                physical_center=np.asarray(payload["physical_center"], dtype=float),
                estimated_center=np.asarray(payload["estimated_center"], dtype=float),
                phase_offset_rad=float(payload["phase_offset_rad"]),
            )
            expected_version = payload.get("expected_version")
            if expected_version is not None:
                expected_version = int(expected_version)
            record = await asyncio.to_thread(
                lambda: self._calib_store.commit(  # type: ignore[union-attr]
                    calibration,
                    source=str(payload.get("source", "manual")),
                    reads=None if payload.get("reads") is None else int(payload["reads"]),
                    residual_rms_m=(
                        None
                        if payload.get("residual_rms_m") is None
                        else float(payload["residual_rms_m"])
                    ),
                    config_hash=(
                        None
                        if payload.get("config_hash") is None
                        else str(payload["config_hash"])
                    ),
                    manifest=payload.get("manifest"),
                    expected_version=expected_version,
                )
            )
        except VersionConflictError as error:
            return (
                409,
                {
                    **error_body("version_conflict", str(error)),
                    "antenna": error.antenna,
                    "expected": error.expected,
                    "actual": error.actual,
                },
                None,
            )
        except CorruptRecordError as error:
            raise BadRequestError(str(error)) from error
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise BadRequestError(f"malformed calibration payload: {error}") from error
        if metrics_enabled():
            get_registry().counter(
                "serve.calib.commits_total", source=record.source
            ).inc()
        return 201, record.to_dict(), None

    def _calibration_route(
        self, method: str, path: str
    ) -> Optional[Callable[[], Awaitable[Tuple[int, Any, Optional[Dict[str, str]]]]]]:
        """``GET /v1/calibrations/{antenna}``: full version history."""
        antenna = unquote(path[len("/v1/calibrations/"):])
        if not antenna or "/" in antenna:
            return None

        async def method_not_allowed() -> Tuple[int, Any, Optional[Dict[str, str]]]:
            return 405, error_body("method_not_allowed", f"{method} {path}"), None

        if method != "GET":
            return method_not_allowed

        async def history() -> Tuple[int, Any, Optional[Dict[str, str]]]:
            if self._calib_store is None:
                return (
                    404,
                    error_body("not_found", "no calibration store configured"),
                    None,
                )
            try:
                records = await asyncio.to_thread(self._calib_store.history, antenna)
            except UnknownAntennaError as error:
                return 404, error_body("unknown_antenna", str(error)), None
            return (
                200,
                {
                    "antenna": antenna,
                    "latest_version": records[-1].version,
                    "versions": [record.to_dict() for record in records],
                },
                None,
            )

        return history

    # ------------------------------------------------------------------
    # streaming sessions
    # ------------------------------------------------------------------
    def _session_route(
        self, method: str, path: str, body: bytes
    ) -> Optional[Callable[[], Awaitable[Tuple[int, Any, Optional[Dict[str, str]]]]]]:
        """Resolve one ``/v1/sessions[...]`` path to its handler.

        ``None`` falls through to the router's 404; a known path with
        the wrong method returns a handler that answers 405 (the router
        cannot see dynamic paths in its exact-match table).
        """
        parts = [part for part in path.split("/") if part]
        if parts[:2] != ["v1", "sessions"]:
            return None

        async def method_not_allowed() -> Tuple[int, Any, Optional[Dict[str, str]]]:
            return 405, error_body("method_not_allowed", f"{method} {path}"), None

        if len(parts) == 2:
            if method == "POST":
                return lambda: self._session_create(body)
            return method_not_allowed
        if len(parts) == 3:
            session_id = parts[2]
            if method == "GET":
                return lambda: self._session_get(session_id)
            if method == "DELETE":
                return lambda: self._session_close(session_id)
            return method_not_allowed
        if len(parts) == 4 and parts[3] == "reads":
            if method == "POST":
                return lambda: self._session_feed(parts[2], body)
            return method_not_allowed
        return None

    async def _session_create(
        self, body: bytes
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        """``POST /v1/sessions``: open one streaming session (201)."""
        if self._draining:
            return 503, error_body("draining", "server is draining"), None
        tag, antenna, session_id, config = parse_session_create(body, self.config.stream)
        session = await asyncio.to_thread(
            self._sessions.open_session, tag, antenna, config, session_id
        )
        return 201, session.snapshot(), None

    async def _session_feed(
        self, session_id: str, body: bytes
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        """``POST /v1/sessions/{id}/reads``: NDJSON chunk ingest.

        Reads apply under the session's lock in chunk order; the
        response carries the triggered lifecycle events and the latest
        estimate, so a client tails its tag without a second poll.
        """
        if self._draining:
            return 503, error_body("draining", "server is draining"), None
        reads = parse_reads_ndjson(body)
        result = await asyncio.to_thread(self._sessions.feed, session_id, reads)
        return 200, feed_result_body(result), None

    async def _session_get(
        self, session_id: str
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        """``GET /v1/sessions/{id}``: the session snapshot."""
        session = self._sessions.get_session(session_id)
        return 200, session.snapshot(), None

    async def _session_close(
        self, session_id: str
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        """``DELETE /v1/sessions/{id}``: final re-solve, then departure."""
        result = await asyncio.to_thread(self._sessions.close_session, session_id)
        return 200, feed_result_body(result), None

    async def _slo_route(self) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        report = await asyncio.to_thread(self._slo.evaluate)
        return 200, report, None

    async def _debug_timeseries(
        self, query: str
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        window_s = HISTORY_WINDOW_S
        params = parse_qs(query)
        if "window" in params:
            try:
                window_s = float(params["window"][0])
            except ValueError:
                return (
                    400,
                    error_body("bad_request", f"bad window: {params['window'][0]!r}"),
                    None,
                )
            if window_s <= 0:
                return 400, error_body("bad_request", "window must be positive"), None
        samples = self._history.window(window_s)
        return (
            200,
            {
                "cadence_s": self.config.history_cadence_s,
                "window_s": window_s,
                "samples": [derive_serve_sample(sample) for sample in samples],
            },
            None,
        )

    async def _debug_traces(self, query: str) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        params = parse_qs(query)
        limit: Optional[int] = None
        if "limit" in params:
            try:
                limit = int(params["limit"][0])
            except ValueError:
                return (
                    400,
                    error_body("bad_request", f"bad limit: {params['limit'][0]!r}"),
                    None,
                )
        return (
            200,
            {"stats": self._recorder.stats(), "traces": self._recorder.snapshot(limit)},
            None,
        )

    def _observe(self, path: str, status: int, elapsed_s: float) -> None:
        if not metrics_enabled():
            return
        registry = get_registry()
        registry.counter(
            "serve.net.requests_total", route=path, status=status
        ).inc()
        registry.histogram("serve.net.request_seconds", route=path).observe(elapsed_s)


class ServerHandle:
    """Run a :class:`NetServer` on a background-thread event loop.

    Synchronous facade for tests, the benchmark, and notebooks::

        with ServerHandle(NetServeConfig(port=0, shards=2)) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            ...

    ``stop()`` performs the full graceful drain and returns the
    per-shard final engine stats.
    """

    def __init__(self, config: NetServeConfig) -> None:
        self.config = config
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[NetServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._port: Optional[int] = None
        self._drain_stats: List[Dict[str, Any]] = []

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server is not started")
        return self._port

    @property
    def server(self) -> NetServer:
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server

    def start(self) -> "ServerHandle":
        """Boot the loop thread; blocks until the listener is bound."""
        if self._thread is not None:
            raise RuntimeError("handle already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()),
            name="repro-serve-net-loop",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(READY_TIMEOUT_S + 30.0):
            raise RuntimeError("server did not come up in time")
        if self._error is not None:
            self._thread.join(timeout=5.0)
            raise RuntimeError(f"server failed to start: {self._error}") from self._error
        return self

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = NetServer(self.config)
        try:
            await server.start()
        except BaseException as error:  # noqa: BLE001 - surfaced in start()
            self._error = error
            self._ready.set()
            return
        self._server = server
        self._port = server.port
        self._ready.set()
        await self._stop_event.wait()
        self._drain_stats = await server.shutdown()

    def request_shutdown(self) -> None:
        """Start the graceful drain without waiting for it (signal-style)."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already closed: stop() is idempotent
                pass

    def stop(self, timeout: float = 120.0) -> List[Dict[str, Any]]:
        """Graceful drain and join; returns per-shard final engine stats."""
        self.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("server loop did not stop in time")
        return self._drain_stats

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


async def _serve_until_signalled(config: NetServeConfig) -> List[Dict[str, Any]]:
    """CLI body: serve until SIGTERM/SIGINT, then drain gracefully."""
    import signal

    server = NetServer(config)
    await server.start()
    print(
        f"lion serve: listening on http://{config.host}:{server.port} "
        f"shards={config.shards} worker_mode={config.worker_mode}",
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loop
            signal.signal(signum, lambda *_: stop.set())

    def _dump_traces() -> None:
        path, count = server.dump_traces()
        print(f"lion serve: dumped {count} traces to {path}", flush=True)

    if hasattr(signal, "SIGUSR2"):
        try:
            loop.add_signal_handler(signal.SIGUSR2, _dump_traces)
        except NotImplementedError:  # pragma: no cover - non-POSIX loop
            pass
    await stop.wait()
    print("lion serve: draining", flush=True)
    stats = await server.shutdown()
    print(f"lion serve: drained {json.dumps(stats, default=str)}", flush=True)
    return stats


def run_server(config: NetServeConfig) -> int:
    """Blocking entry point for ``lion serve``; returns an exit code."""
    asyncio.run(_serve_until_signalled(config))
    return 0
