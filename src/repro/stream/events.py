"""Typed lifecycle events of streaming tag sessions, and their bus.

A :class:`~repro.stream.session.TagSession` narrates its life as typed,
immutable events: ``TagEntered`` on the first read, ``PositionUpdated``
on fast-path and windowed estimates, ``TagSettled`` when the estimate
stops moving, ``CalibrationDriftAlarm`` when the incremental fast path
and the windowed re-solve disagree beyond threshold (the streaming
counterpart of the paper's calibration-drift concern), and
``TagDeparted`` at the end. Events serialize to flat JSON-safe dicts
(:meth:`SessionEvent.to_dict`) for the HTTP surface and carry a
per-session monotone ``sequence`` so subscribers can detect gaps.

:class:`EventBus` is a synchronous fan-out: subscribers register a
callback (optionally filtered by event kind); a subscriber raising does
not disturb the session, the publisher, or other subscribers — the
failure is counted and dropped.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Any, Callable, ClassVar, Dict, Iterable, List, Optional, Tuple

Position = Tuple[float, ...]


def as_position(values: Iterable[float]) -> Position:
    """Normalize an array-like into the JSON-safe position tuple."""
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class SessionEvent:
    """Base of every session lifecycle event.

    Attributes:
        session_id: the emitting session.
        tag: tag EPC of the session key.
        antenna: antenna id of the session key.
        sequence: per-session monotone event counter (gap detection).
        timestamp_s: stream time of the triggering read.
    """

    kind: ClassVar[str] = "session_event"

    session_id: str
    tag: str
    antenna: str
    sequence: int
    timestamp_s: float

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-safe representation, ``kind`` included."""
        payload: Dict[str, Any] = {"kind": self.kind}
        payload.update(asdict(self))
        return payload


@dataclass(frozen=True)
class TagEntered(SessionEvent):
    """First read of a new tag session arrived."""

    kind: ClassVar[str] = "tag_entered"


@dataclass(frozen=True)
class PositionUpdated(SessionEvent):
    """A new position estimate is available.

    Attributes:
        position: the estimate, ``(x, y[, z])`` meters.
        source: ``"fast"`` (incremental streaming estimator) or
            ``"windowed"`` (periodic re-solve over the sliding window).
        reads: reads consumed by the session when this estimate was made.
    """

    kind: ClassVar[str] = "position_updated"

    position: Position = ()
    source: str = "fast"
    reads: int = 0


@dataclass(frozen=True)
class TagSettled(SessionEvent):
    """The estimate stopped moving (consecutive updates within epsilon).

    Attributes:
        position: the settled estimate.
        dispersion_m: max distance of the recent updates from their mean.
    """

    kind: ClassVar[str] = "tag_settled"

    position: Position = ()
    dispersion_m: float = 0.0


@dataclass(frozen=True)
class TagDeparted(SessionEvent):
    """The session ended.

    Attributes:
        reason: ``"timeout"`` (idle sweep), ``"closed"`` (explicit
            close), or ``"drain"`` (server shutdown).
        reads: total reads the session consumed.
    """

    kind: ClassVar[str] = "tag_departed"

    reason: str = "closed"
    reads: int = 0


@dataclass(frozen=True)
class CalibrationDriftAlarm(SessionEvent):
    """Fast path and windowed re-solve disagree beyond threshold.

    The incremental RLS estimate accumulates state across the whole
    stream while the windowed re-solve sees only the recent window; a
    persistent gap between them is the streaming symptom of phase/
    calibration drift (the paper's Achilles' heel) or of a stale fast
    path, and warrants recalibration.

    Attributes:
        drift_m: distance between the two estimates.
        fast_position: the incremental estimate.
        windowed_position: the windowed re-solve estimate.
    """

    kind: ClassVar[str] = "calibration_drift_alarm"

    drift_m: float = 0.0
    fast_position: Position = ()
    windowed_position: Position = ()


Subscriber = Callable[[SessionEvent], None]


class EventBus:
    """Thread-safe synchronous fan-out of session events.

    Subscribers run inline on the publishing thread, in subscription
    order; a raising subscriber is isolated (counted, never propagated).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: Dict[int, Tuple[Optional[frozenset[str]], Subscriber]] = {}
        self._next_token = 1
        self._published = 0
        self._subscriber_errors = 0

    def subscribe(
        self, callback: Subscriber, kinds: Optional[Iterable[str]] = None
    ) -> int:
        """Register ``callback``; returns the token for :meth:`unsubscribe`.

        Args:
            kinds: restrict delivery to these event kinds (``None`` = all).
        """
        wanted = frozenset(kinds) if kinds is not None else None
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._subscribers[token] = (wanted, callback)
        return token

    def unsubscribe(self, token: int) -> bool:
        """Remove a subscription; ``False`` when the token is unknown."""
        with self._lock:
            return self._subscribers.pop(token, None) is not None

    def publish(self, event: SessionEvent) -> None:
        """Deliver one event to every matching subscriber."""
        with self._lock:
            targets: List[Subscriber] = [
                callback
                for wanted, callback in self._subscribers.values()
                if wanted is None or event.kind in wanted
            ]
            self._published += 1
        for callback in targets:
            try:
                callback(event)
            except Exception:
                with self._lock:
                    self._subscriber_errors += 1

    def publish_all(self, events: Iterable[SessionEvent]) -> None:
        """Deliver a batch of events in order."""
        for event in events:
            self.publish(event)

    def stats(self) -> Dict[str, int]:
        """Published / subscriber-error counters and subscriber count."""
        with self._lock:
            return {
                "published": self._published,
                "subscriber_errors": self._subscriber_errors,
                "subscribers": len(self._subscribers),
            }
