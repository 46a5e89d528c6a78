"""Tuning knobs of the network serving front end.

One frozen dataclass configures the whole stack — listener, supervisor,
and the per-shard :class:`repro.serve.ServeConfig` every worker's engine
is built from — so a server is reproducible from a single picklable
value (workers receive it at spawn, manifests can hash it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.engine import ServeConfig
from repro.stream import StreamConfig

#: Worker hosting modes. ``"process"`` is the real deployment shape:
#: spawned worker processes, true per-shard isolation, shared-memory
#: request shipping. ``"thread"`` hosts each worker loop in a daemon
#: thread of the server process — no isolation, but instant startup and
#: in-process coverage, which tests and debugging want.
WORKER_MODES = ("process", "thread")


@dataclass(frozen=True)
class NetServeConfig:
    """Configuration of one :class:`repro.serve.net.NetServer`.

    Attributes:
        host: listen address (loopback by default; this is a front end
            for a trusted LAN/load balancer, not the open internet).
        port: listen port; ``0`` binds an ephemeral port (tests and the
            benchmark read it back from ``NetServer.port``).
        shards: worker count; requests route to ``shard_for(estimator,
            config_hash, shards)`` so one config group always lands on
            one engine and batches compactly.
        engine: per-shard :class:`repro.serve.ServeConfig` (queue bound,
            batch size, deadlines).
        worker_mode: ``"process"`` (default) or ``"thread"`` (tests).
        max_inflight_per_shard: supervisor-side load-shedding bound on
            requests in flight to one shard; beyond it ``/v1/locate``
            sheds with 429 before paying the worker round trip.
        shm_threshold_bytes: request array payloads at least this large
            ship via :class:`repro.parallel.SharedArrayBundle` segments;
            smaller ones are pickled inline (a segment per tiny request
            costs more than it saves).
        retry_after_s: hint returned with 429 responses (JSON field and
            the integer-rounded ``Retry-After`` header).
        max_deadline_s: cap on client-supplied ``deadline_ms`` (and the
            default when the engine has none); ``None`` means no cap.
        drain_grace_s: pause between flipping ``/readyz`` to 503 and
            closing the listener, so load balancers observe not-ready
            while the socket still accepts.
        drain_timeout_s: how long drain waits for in-flight requests and
            worker engine drains before force-terminating.
        ready_timeout_s: how long ``start`` waits for every worker's
            ready handshake.
        metrics: enable :mod:`repro.obs` metrics in the server process
            and every worker; ``GET /metrics`` merges them (process
            workers are labelled ``shard="i"``).
        max_body_bytes: request-body cap; larger bodies get 413.
        tracing: enable span recording in the server and every worker —
            each ``/v1/locate`` request gets a stitched cross-process
            trace (ingress -> shard route -> worker dispatch -> solver)
            and the slow/errored ones land in the flight recorder at
            ``GET /debug/traces``.
        history_cadence_s: sampling interval of the telemetry ring
            buffer behind ``GET /debug/timeseries`` and ``GET /slo``.
        history_window_s: how much history the ring buffer retains (and
            the default ``?window=`` of ``/debug/timeseries``).
        recorder_capacity: flight-recorder depth (stitched traces kept).
        recorder_slow_ms: a traced request at least this slow is
            retained even when it succeeded; errored requests are always
            retained. ``0`` records everything (tests, trace smokes).
        trace_dump_path: where SIGUSR2 dumps the flight recorder.
        slo_p99_ms: latency objective — p99 of ``/v1/locate`` must stay
            at or under this many milliseconds.
        slo_error_rate: error objective — the 5xx fraction of
            ``/v1/locate`` responses must stay at or under this.
        max_sessions: live streaming-session capacity of the front end;
            ``POST /v1/sessions`` beyond it sheds with 429.
        stream: default :class:`repro.stream.StreamConfig` of sessions
            opened without per-session overrides.
        session_sweep_cadence_s: cadence of the background idle sweep
            departing sessions past their ``depart_after_s``.
        calibration_store: path of a :class:`repro.calib.CalibrationStore`
            directory; when set the front end opens it, serves
            ``GET/POST /v1/calibrations``, reports fleet health in
            ``/statz``, and resolves ``antennas`` on ``/v1/locate``
            requests into calibrated centers / offset corrections before
            routing. ``None`` (default) disables the calibration surface.
        calibration_max_age_s: staleness age budget used by the fleet
            health block of ``/statz`` (:class:`repro.calib.StalenessPolicy`
            ``max_age_s``).
    """

    host: str = "127.0.0.1"
    port: int = 8321
    shards: int = 1
    engine: ServeConfig = field(default_factory=ServeConfig)
    worker_mode: str = "process"
    max_inflight_per_shard: int = 256
    shm_threshold_bytes: int = 8192
    retry_after_s: float = 0.05
    max_deadline_s: float | None = None
    drain_grace_s: float = 0.0
    drain_timeout_s: float = 30.0
    ready_timeout_s: float = 60.0
    metrics: bool = True
    max_body_bytes: int = 8 * 1024 * 1024
    tracing: bool = True
    history_cadence_s: float = 1.0
    history_window_s: float = 300.0
    recorder_capacity: int = 64
    recorder_slow_ms: float = 250.0
    trace_dump_path: str = "lion-flight-recorder.json"
    slo_p99_ms: float = 250.0
    slo_error_rate: float = 0.01
    max_sessions: int = 1024
    stream: StreamConfig = field(default_factory=StreamConfig)
    session_sweep_cadence_s: float = 1.0
    calibration_store: str | None = None
    calibration_max_age_s: float = 24.0 * 3600.0

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.worker_mode not in WORKER_MODES:
            raise ValueError(
                f"worker_mode must be one of {WORKER_MODES}, got {self.worker_mode!r}"
            )
        if self.max_inflight_per_shard <= 0:
            raise ValueError(
                f"max_inflight_per_shard must be positive, got {self.max_inflight_per_shard}"
            )
        if self.shm_threshold_bytes < 0:
            raise ValueError(
                f"shm_threshold_bytes must be non-negative, got {self.shm_threshold_bytes}"
            )
        if self.retry_after_s < 0:
            raise ValueError(f"retry_after_s must be non-negative, got {self.retry_after_s}")
        if self.max_deadline_s is not None and self.max_deadline_s <= 0:
            raise ValueError(f"max_deadline_s must be positive, got {self.max_deadline_s}")
        if self.drain_grace_s < 0:
            raise ValueError(f"drain_grace_s must be non-negative, got {self.drain_grace_s}")
        if self.drain_timeout_s <= 0:
            raise ValueError(f"drain_timeout_s must be positive, got {self.drain_timeout_s}")
        if self.ready_timeout_s <= 0:
            raise ValueError(f"ready_timeout_s must be positive, got {self.ready_timeout_s}")
        if self.max_body_bytes <= 0:
            raise ValueError(f"max_body_bytes must be positive, got {self.max_body_bytes}")
        if self.history_cadence_s <= 0:
            raise ValueError(
                f"history_cadence_s must be positive, got {self.history_cadence_s}"
            )
        if self.history_window_s < self.history_cadence_s:
            raise ValueError(
                f"history_window_s must be >= history_cadence_s, got "
                f"{self.history_window_s} < {self.history_cadence_s}"
            )
        if self.recorder_capacity <= 0:
            raise ValueError(
                f"recorder_capacity must be positive, got {self.recorder_capacity}"
            )
        if self.recorder_slow_ms < 0:
            raise ValueError(
                f"recorder_slow_ms must be non-negative, got {self.recorder_slow_ms}"
            )
        if self.slo_p99_ms <= 0:
            raise ValueError(f"slo_p99_ms must be positive, got {self.slo_p99_ms}")
        if not 0.0 < self.slo_error_rate < 1.0:
            raise ValueError(
                f"slo_error_rate must be in (0, 1), got {self.slo_error_rate}"
            )
        if self.max_sessions <= 0:
            raise ValueError(f"max_sessions must be positive, got {self.max_sessions}")
        if self.session_sweep_cadence_s <= 0:
            raise ValueError(
                f"session_sweep_cadence_s must be positive, got "
                f"{self.session_sweep_cadence_s}"
            )
        if self.calibration_max_age_s <= 0:
            raise ValueError(
                f"calibration_max_age_s must be positive, got "
                f"{self.calibration_max_age_s}"
            )
