"""Per-``(tag, antenna)`` streaming session state machine.

A :class:`TagSession` owns one tag's read stream at one antenna and
narrates it as lifecycle events::

    warming ──► tracking ◄──► settled ──► departed
       │            │                         ▲
       └────────────┴─────────────────────────┘   (timeout / close / drain)

Two estimation paths run side by side:

* **fast path** — an incremental streaming estimator (the registry's
  :class:`~repro.pipeline.contract.StreamingEstimator` facet when the
  session's estimator advertises it, otherwise an implicit
  ``lion-online``) folds every read in O(1) and produces
  ``PositionUpdated(source="fast")`` estimates at the update cadence;
* **windowed re-solve** — the bounded sliding window of raw reads is
  periodically re-solved by the session's estimator, ``estimate()`` on
  an :class:`~repro.pipeline.contract.EstimationRequest` of the window
  (for ``lion``, one ``locate`` call), yielding
  ``PositionUpdated(source="windowed")`` estimates that are
  bit-identical to a one-shot estimate of the same window.

When the two disagree beyond ``drift_threshold_m`` the session raises a
``CalibrationDriftAlarm`` — the streaming symptom of the phase-drift
problem the paper's calibration attacks.

Sessions are not thread-safe; :class:`~repro.stream.manager.SessionManager`
serializes access per session.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, cast

import numpy as np

from repro.pipeline.contract import (
    EstimationReport,
    EstimationRequest,
    Estimator,
    StreamingEstimator,
)
from repro.pipeline.registry import create_estimator, resolve_config, supports_streaming
from repro.stream.config import StreamConfig
from repro.stream.errors import SessionClosedError
from repro.stream.events import (
    CalibrationDriftAlarm,
    PositionUpdated,
    SessionEvent,
    TagDeparted,
    TagEntered,
    TagSettled,
    as_position,
)


class SessionState(str, enum.Enum):
    """Lifecycle states of a tag session."""

    WARMING = "warming"
    TRACKING = "tracking"
    SETTLED = "settled"
    DEPARTED = "departed"


class TagSession:
    """One tag's streaming state at one antenna.

    Args:
        session_id: opaque id assigned by the manager.
        tag: tag EPC.
        antenna: antenna id.
        config: the session's :class:`StreamConfig`.

    Raises:
        KeyError / TypeError / ValueError: estimator-config resolution
            failures, synchronously (bad sessions fail at open, not at
            first read).
    """

    def __init__(
        self, session_id: str, tag: str, antenna: str, config: StreamConfig
    ) -> None:
        self.session_id = session_id
        self.tag = tag
        self.antenna = antenna
        self.config = config
        self.state = SessionState.WARMING

        resolved = resolve_config(config.estimator, config.estimator_config)
        self._window_estimator: Estimator = create_estimator(
            config.estimator, resolved
        )

        self._raw_t: Deque[float] = deque(maxlen=config.max_window_reads)
        self._raw_pos: Deque[np.ndarray] = deque(maxlen=config.max_window_reads)
        self._raw_phase: Deque[float] = deque(maxlen=config.max_window_reads)

        self._fast: Optional[StreamingEstimator] = self._build_fast_path()

        self._sequence = 0
        self._reads = 0
        self._reads_since_update = 0
        self._reads_since_resolve = 0
        self._resolves = 0
        self._drift_alarms = 0
        self._last_timestamp_s = 0.0
        self.last_activity_s = 0.0
        self._recent: Deque[np.ndarray] = deque(maxlen=config.settle_window)
        self._last_fast: Optional[np.ndarray] = None
        self._last_estimate: Optional[Dict[str, Any]] = None

    def _build_fast_path(self) -> Optional[StreamingEstimator]:
        """The incremental estimator feeding ``source="fast"`` updates."""
        name = self.config.estimator
        if supports_streaming(name):
            # A *separate* instance from the windowed one: the windowed
            # fallback replays the window through ``estimate``, which
            # resets streaming state.
            return cast(
                StreamingEstimator,
                create_estimator(name, self.config.estimator_config),
            )
        if name == "lion":
            base = resolve_config(name, self.config.estimator_config)
            fast_config: Dict[str, Any] = {
                "dim": int(getattr(base, "dim", 2)),
                "wavelength_m": float(getattr(base, "wavelength_m", 0.0)),
                "positive_side": bool(getattr(base, "positive_side", True)),
                "pair_lag": self.config.fast_pair_lag,
                "min_rows": self.config.fast_min_rows,
            }
            return cast(
                StreamingEstimator, create_estimator("lion-online", fast_config)
            )
        return None

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def add_read(
        self, timestamp_s: float, position: Sequence[float], wrapped_phase_rad: float
    ) -> List[SessionEvent]:
        """Fold one read in; returns the events it triggered, in order.

        Raises:
            SessionClosedError: the session already departed.
            ValueError: on a malformed read (non-finite, wrong shape),
                which is not stored.
        """
        if self.state is SessionState.DEPARTED:
            raise SessionClosedError(f"session {self.session_id} has departed")
        point = np.array(position, dtype=float)
        if point.ndim != 1 or point.shape[0] not in (2, 3):
            raise ValueError(f"position must be a 2- or 3-vector, got {point.shape}")
        if not np.all(np.isfinite(point)):
            raise ValueError("position contains non-finite values")
        phase = float(wrapped_phase_rad)
        if not np.isfinite(phase):
            raise ValueError("phase is non-finite; filter failed reads upstream")

        if self._fast is not None:
            # First: it also rejects a position with fewer axes than its dim.
            self._fast.ingest(point, phase)

        events: List[SessionEvent] = []
        timestamp = float(timestamp_s)
        if self._reads == 0:
            events.append(self._event(TagEntered, timestamp))

        self._raw_t.append(timestamp)
        self._raw_pos.append(point)
        self._raw_phase.append(phase)

        self._reads += 1
        self._reads_since_update += 1
        self._reads_since_resolve += 1
        self._last_timestamp_s = timestamp

        if (
            self._fast is not None
            and self._reads_since_update >= self.config.update_every_reads
            and self._fast.ready()
        ):
            self._reads_since_update = 0
            try:
                report = self._fast.snapshot()
            except ValueError:
                report = None
            if report is not None:
                self._last_fast = np.asarray(report.position, dtype=float)
                events.extend(
                    self._emit_update(self._last_fast, "fast", timestamp)
                )
        return events

    # ------------------------------------------------------------------
    # windowed re-solve
    # ------------------------------------------------------------------
    def window_size(self) -> int:
        """Reads currently in the sliding window."""
        return len(self._raw_phase)

    def window_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The window's raw ``(timestamps, positions, phases)`` arrays."""
        timestamps = np.array(self._raw_t, dtype=float)
        positions = (
            np.array(self._raw_pos, dtype=float) if self._raw_pos else np.empty((0, 2))
        )
        phases = np.array(self._raw_phase, dtype=float)
        return timestamps, positions, phases

    def needs_resolve(self) -> bool:
        """Whether a windowed re-solve is due."""
        return (
            self.state is not SessionState.DEPARTED
            and self.window_size() >= self.config.min_window_reads
            and self._reads_since_resolve >= self.config.resolve_every_reads
        )

    def build_resolve_request(self) -> Tuple[str, Optional[Dict[str, Any]], EstimationRequest]:
        """The ``(estimator, config, request)`` of a windowed re-solve.

        The request carries the window's raw reads; every re-solve is the
        session estimator's ``estimate()`` on it, so a one-shot
        ``repro.pipeline.estimate(*build_resolve_request())`` reproduces
        the session's answer bit for bit.
        """
        return self.config.estimator, self.config.estimator_config, self._window_request()

    def _window_request(self) -> EstimationRequest:
        _, positions, phases = self.window_arrays()
        return EstimationRequest(positions=positions, phases_rad=phases)

    def resolve_windowed(self) -> List[SessionEvent]:
        """Re-solve the window and fold the answer into the session.

        Raises:
            ValueError: the window cannot solve (degenerate geometry, too
                few usable reads). Only the re-solve cadence restarts;
                the fast path keeps serving estimates.
        """
        self._reads_since_resolve = 0
        report = self._window_estimator.estimate(self._window_request())
        self._resolves += 1
        estimate = np.asarray(report.position, dtype=float)
        events = self._emit_update(estimate, "windowed", self._last_timestamp_s)
        # The first re-solve lands while the RLS fast path is still
        # converging; disagreement there is warmup, not drift.
        if (
            self._resolves > 1
            and self._last_fast is not None
            and self._last_fast.shape == estimate.shape
        ):
            drift = float(np.linalg.norm(self._last_fast - estimate))
            if drift > self.config.drift_threshold_m:
                self._drift_alarms += 1
                events.append(
                    self._event(
                        CalibrationDriftAlarm,
                        self._last_timestamp_s,
                        drift_m=drift,
                        fast_position=as_position(self._last_fast),
                        windowed_position=as_position(estimate),
                    )
                )
        return events

    def final_resolve(self) -> Optional[EstimationReport]:
        """The window's re-solve report, or ``None`` when it cannot solve.

        Leaves the session untouched; ``lion replay`` and the stream
        benchmark compare it with a one-shot estimate of the same window.
        """
        try:
            return self._window_estimator.estimate(self._window_request())
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def depart(self, reason: str) -> List[SessionEvent]:
        """End the session; idempotent (a departed session emits nothing)."""
        if self.state is SessionState.DEPARTED:
            return []
        self.state = SessionState.DEPARTED
        return [
            self._event(
                TagDeparted, self._last_timestamp_s, reason=reason, reads=self._reads
            )
        ]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe session summary for ``GET /v1/sessions/{id}``."""
        return {
            "session_id": self.session_id,
            "tag": self.tag,
            "antenna": self.antenna,
            "state": self.state.value,
            "estimator": self.config.estimator,
            "reads": self._reads,
            "window_reads": self.window_size(),
            "events": self._sequence,
            "resolves": self._resolves,
            "drift_alarms": self._drift_alarms,
            "last_timestamp_s": self._last_timestamp_s,
            "estimate": dict(self._last_estimate) if self._last_estimate else None,
        }

    @property
    def reads(self) -> int:
        """Reads consumed so far."""
        return self._reads

    @property
    def last_estimate(self) -> Optional[Dict[str, Any]]:
        """The most recent estimate summary (position/source/reads)."""
        return dict(self._last_estimate) if self._last_estimate else None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _event(
        self, cls: type, timestamp_s: float, **extra: Any
    ) -> SessionEvent:
        self._sequence += 1
        return cast(
            SessionEvent,
            cls(
                session_id=self.session_id,
                tag=self.tag,
                antenna=self.antenna,
                sequence=self._sequence,
                timestamp_s=float(timestamp_s),
                **extra,
            ),
        )

    def _emit_update(
        self, position: np.ndarray, source: str, timestamp_s: float
    ) -> List[SessionEvent]:
        """One estimate → ``PositionUpdated`` plus settle bookkeeping."""
        events: List[SessionEvent] = [
            self._event(
                PositionUpdated,
                timestamp_s,
                position=as_position(position),
                source=source,
                reads=self._reads,
            )
        ]
        self._last_estimate = {
            "position": list(as_position(position)),
            "source": source,
            "reads": self._reads,
        }
        if self.state is SessionState.WARMING:
            self.state = SessionState.TRACKING
        self._recent.append(np.asarray(position, dtype=float))
        if len(self._recent) == self.config.settle_window:
            stacked = np.vstack(list(self._recent))
            center = stacked.mean(axis=0)
            dispersion = float(np.max(np.linalg.norm(stacked - center, axis=1)))
            if dispersion <= self.config.settle_epsilon_m:
                if self.state is SessionState.TRACKING:
                    self.state = SessionState.SETTLED
                    events.append(
                        self._event(
                            TagSettled,
                            timestamp_s,
                            position=as_position(center),
                            dispersion_m=dispersion,
                        )
                    )
            elif self.state is SessionState.SETTLED:
                self.state = SessionState.TRACKING
        return events
