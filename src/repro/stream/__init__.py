"""Streaming session layer: per-tag read streams, windowed re-solves, events.

The one-shot request path (``locate`` → ``EstimationRequest`` →
``ServeEngine.submit`` → ``POST /v1/locate``) assumes a complete scan;
real deployments emit phase reads continuously. This package refits the
stack around that reality:

- :class:`TagSession` — a per-``(tag, antenna)`` state machine
  (warming → tracking → settled → departed) holding a bounded sliding
  window of timestamped reads, an incremental fast path
  (``lion-online`` RLS), and periodic windowed re-solves, each the
  session estimator's ``estimate()`` on the window and so
  **bit-identical** to a one-shot estimate of the same window.
- :class:`SessionManager` — owns the live sessions: capacity shedding,
  per-session serialization, departure sweeps, session-aware drain, and
  the re-solve counters.
- typed lifecycle events (:class:`TagEntered`, :class:`PositionUpdated`,
  :class:`TagSettled`, :class:`TagDeparted`,
  :class:`CalibrationDriftAlarm`) fanned out on an :class:`EventBus`.
- offline replay (:func:`replay_stream` / :func:`replay_records`) of
  recorded scans at wall-clock or max speed — ``lion replay``.

Layering: this package may import ``repro.core`` and ``repro.pipeline``
but not ``repro.serve``; only ``repro.serve.net`` and the CLI may import
it back (both enforced by ``tools/check_import_hygiene.py``). The HTTP
surface lives in :mod:`repro.serve.net.sessions`; see
``docs/serving.md``.
"""

from repro.stream.config import StreamConfig
from repro.stream.errors import (
    DuplicateSessionError,
    SessionCapacityError,
    SessionClosedError,
    StreamError,
    UnknownSessionError,
)
from repro.stream.events import (
    CalibrationDriftAlarm,
    EventBus,
    PositionUpdated,
    SessionEvent,
    TagDeparted,
    TagEntered,
    TagSettled,
)
from repro.stream.manager import FeedResult, SessionManager
from repro.stream.replay import ReplayResult, replay_records, replay_stream
from repro.stream.session import SessionState, TagSession

__all__ = [
    # config
    "StreamConfig",
    # errors
    "StreamError",
    "SessionCapacityError",
    "UnknownSessionError",
    "DuplicateSessionError",
    "SessionClosedError",
    # events
    "SessionEvent",
    "TagEntered",
    "PositionUpdated",
    "TagSettled",
    "TagDeparted",
    "CalibrationDriftAlarm",
    "EventBus",
    # sessions
    "TagSession",
    "SessionState",
    "SessionManager",
    "FeedResult",
    # replay
    "ReplayResult",
    "replay_stream",
    "replay_records",
]
