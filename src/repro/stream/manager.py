"""The session manager: capacity, feeding, re-solves, sweeps, drain.

:class:`SessionManager` owns every live :class:`TagSession`, serializes
access per session (one lock per session, so a session's reads and
re-solves apply in feed order), enforces a global capacity
(:class:`~repro.stream.errors.SessionCapacityError` → HTTP 429), runs
the departure sweep (:meth:`poll`), and runs each windowed re-solve —
periodic, on close and on drain — on the thread that triggers it,
counting attempts and failures in :meth:`stats`.

Every event flows through one :class:`~repro.stream.events.EventBus`;
``serve.stream.*`` metrics ride the usual :mod:`repro.obs` flag guards.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import get_logger, get_registry, metrics_enabled, span, tracing_enabled
from repro.stream.config import StreamConfig
from repro.stream.errors import (
    DuplicateSessionError,
    SessionCapacityError,
    UnknownSessionError,
)
from repro.stream.events import EventBus, SessionEvent
from repro.stream.session import SessionState, TagSession

_logger = get_logger("stream.manager")

Read = Tuple[float, Sequence[float], float]


@dataclass(frozen=True)
class FeedResult:
    """Outcome of one chunk of reads fed into a session.

    Attributes:
        session_id: the fed session.
        accepted: reads ingested from the chunk.
        state: the session state after the chunk.
        events: the events the chunk triggered, in order.
        estimate: the session's latest estimate summary, or ``None``.
    """

    session_id: str
    accepted: int
    state: str
    events: Tuple[SessionEvent, ...]
    estimate: Optional[Dict[str, Any]]


@dataclass
class _Entry:
    """One managed session plus the lock that serializes its reads,
    re-solves and departure."""

    session: TagSession
    lock: threading.RLock = field(default_factory=threading.RLock)


class SessionManager:
    """Owns the live tag sessions of one process.

    Args:
        defaults: the :class:`StreamConfig` applied to sessions opened
            without an explicit one.
        max_sessions: live-session capacity; opens beyond it shed load.
        bus: event bus to publish on (one is created when omitted).
        clock: monotonic idle clock, injectable for tests.
    """

    def __init__(
        self,
        defaults: Optional[StreamConfig] = None,
        max_sessions: int = 1024,
        bus: Optional[EventBus] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be positive")
        self.defaults = defaults or StreamConfig()
        self.max_sessions = int(max_sessions)
        self.bus = bus or EventBus()
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: Dict[str, _Entry] = {}
        self._by_key: Dict[Tuple[str, str], str] = {}
        self._draining = False
        self._opened = 0
        self._departed = 0
        self._reads_total = 0
        self._events_total = 0
        self._resolves_direct = 0
        self._resolve_errors = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open_session(
        self,
        tag: str,
        antenna: str = "1",
        config: Optional[StreamConfig] = None,
        session_id: Optional[str] = None,
    ) -> TagSession:
        """Open a session for ``(tag, antenna)``.

        Raises:
            SessionCapacityError: at ``max_sessions`` live sessions.
            DuplicateSessionError: the key already has a live session.
            ValueError / KeyError / TypeError: bad stream or estimator
                config (fails here, not at first read).
        """
        if not tag:
            raise ValueError("tag must be non-empty")
        resolved = config or self.defaults
        sid = session_id or uuid.uuid4().hex[:16]
        key = (tag, antenna)
        session = TagSession(sid, tag, antenna, resolved)
        session.last_activity_s = self._clock()
        with self._lock:
            if self._draining:
                raise SessionCapacityError("manager is draining")
            if len(self._entries) >= self.max_sessions:
                raise SessionCapacityError(
                    f"session capacity reached ({self.max_sessions})"
                )
            if key in self._by_key:
                raise DuplicateSessionError(
                    f"tag {tag!r} antenna {antenna!r} already has live session "
                    f"{self._by_key[key]}"
                )
            if sid in self._entries:
                raise DuplicateSessionError(f"session id {sid!r} already exists")
            self._entries[sid] = _Entry(session=session)
            self._by_key[key] = sid
            self._opened += 1
            active = len(self._entries)
        if metrics_enabled():
            registry = get_registry()
            registry.counter("serve.stream.sessions_total", result="opened").inc()
            registry.gauge("serve.stream.sessions_active").set(active)
        return session

    def get_session(self, session_id: str) -> TagSession:
        """Look up a live session.

        Raises:
            UnknownSessionError: for an unknown or already-removed id.
        """
        with self._lock:
            entry = self._entries.get(session_id)
        if entry is None:
            raise UnknownSessionError(f"unknown session {session_id!r}")
        return entry.session

    def close_session(self, session_id: str, reason: str = "closed") -> FeedResult:
        """Depart and remove one session, flushing a final re-solve.

        Raises:
            UnknownSessionError: for an unknown id.
        """
        entry = self._entry(session_id)
        with entry.lock:
            events: List[SessionEvent] = []
            if (
                entry.session.state is not SessionState.DEPARTED
                and entry.session.window_size() >= entry.session.config.min_window_reads
            ):
                events.extend(self._resolve(entry.session))
            events.extend(entry.session.depart(reason))
            snapshot_state = entry.session.state.value
            estimate = entry.session.last_estimate
        self._remove(session_id)
        self._publish(events)
        return FeedResult(
            session_id=session_id,
            accepted=0,
            state=snapshot_state,
            events=tuple(events),
            estimate=estimate,
        )

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def feed(self, session_id: str, reads: Iterable[Read]) -> FeedResult:
        """Feed a chunk of ``(timestamp_s, position, phase)`` reads.

        Reads of one session are serialized under its lock and applied
        in chunk order, and a due re-solve runs under the same lock, so a
        session's estimates never observe its reads out of order. Returns
        the triggered events (also published on the bus).

        Raises:
            UnknownSessionError: for an unknown id.
            SessionClosedError: the session has departed.
            ValueError: on a malformed read.
        """
        entry = self._entry(session_id)
        events: List[SessionEvent] = []
        accepted = 0
        with entry.lock:
            session = entry.session
            for timestamp_s, position, phase in reads:
                events.extend(session.add_read(timestamp_s, position, phase))
                accepted += 1
            session.last_activity_s = self._clock()
            if session.needs_resolve():
                events.extend(self._resolve(session))
            state = session.state.value
            estimate = session.last_estimate
        with self._lock:
            self._reads_total += accepted
        if metrics_enabled() and accepted:
            get_registry().counter("serve.stream.reads_total").inc(accepted)
        self._publish(events)
        return FeedResult(
            session_id=session_id,
            accepted=accepted,
            state=state,
            events=tuple(events),
            estimate=estimate,
        )

    def _resolve(self, session: TagSession) -> List[SessionEvent]:
        """One windowed re-solve of ``session``; the caller holds its lock.

        A window that cannot solve is skipped and counted in
        ``resolve_errors``; the fast path keeps serving estimates.
        """
        failed = False
        try:
            if not tracing_enabled():
                events = session.resolve_windowed()
            else:
                with span("stream.resolve", session=session.session_id):
                    events = session.resolve_windowed()
        except ValueError as error:
            events, failed = [], True
            _logger.debug(
                "windowed re-solve failed: session=%s error=%s",
                session.session_id,
                error,
            )
        with self._lock:
            self._resolves_direct += 1
            self._resolve_errors += int(failed)
        if metrics_enabled():
            get_registry().counter("serve.stream.resolves_total").inc()
        return events

    # ------------------------------------------------------------------
    # sweeping / drain
    # ------------------------------------------------------------------
    def poll(self, now: Optional[float] = None) -> List[SessionEvent]:
        """Depart sessions idle past their ``depart_after_s`` and remove them."""
        current = self._clock() if now is None else now
        expired: List[str] = []
        with self._lock:
            for sid, entry in self._entries.items():
                idle = current - entry.session.last_activity_s
                if idle >= entry.session.config.depart_after_s:
                    expired.append(sid)
        events: List[SessionEvent] = []
        for sid in expired:
            entry = self._entry_or_none(sid)
            if entry is None:
                continue
            with entry.lock:
                events.extend(entry.session.depart("timeout"))
            self._remove(sid)
        self._publish(events)
        return events

    def drain(self) -> Dict[str, Any]:
        """Session-aware drain: final re-solves, departures, removal.

        Stops admitting new sessions, flushes one final windowed
        re-solve per live session, departs them with ``reason="drain"``,
        and returns a summary. Idempotent.
        """
        with self._lock:
            self._draining = True
            sids = list(self._entries)
        finals = 0
        events: List[SessionEvent] = []
        for sid in sids:
            entry = self._entry_or_none(sid)
            if entry is None:
                continue
            with entry.lock:
                session = entry.session
                if (
                    session.state is not SessionState.DEPARTED
                    and session.window_size() >= session.config.min_window_reads
                ):
                    events.extend(self._resolve(session))
                    finals += 1
                events.extend(session.depart("drain"))
            self._remove(sid)
        self._publish(events)
        return {"sessions_drained": len(sids), "final_resolves": finals}

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has begun (new opens are shed)."""
        with self._lock:
            return self._draining

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def active_sessions(self) -> int:
        """Live session count."""
        with self._lock:
            return len(self._entries)

    def session_ids(self) -> List[str]:
        """Ids of the live sessions."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Always-on counters plus per-state occupancy."""
        with self._lock:
            states: Dict[str, int] = {}
            for entry in self._entries.values():
                state = entry.session.state.value
                states[state] = states.get(state, 0) + 1
            return {
                "active": len(self._entries),
                "opened": self._opened,
                "departed": self._departed,
                "reads": self._reads_total,
                "events": self._events_total,
                "resolves_direct": self._resolves_direct,
                # Always 0 since every re-solve runs in the manager;
                # servebench/ladder.py still reads the key.
                "resolves_engine": 0,
                "resolve_errors": self._resolve_errors,
                "draining": self._draining,
                "states": states,
            }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _entry(self, session_id: str) -> _Entry:
        entry = self._entry_or_none(session_id)
        if entry is None:
            raise UnknownSessionError(f"unknown session {session_id!r}")
        return entry

    def _entry_or_none(self, session_id: str) -> Optional[_Entry]:
        with self._lock:
            return self._entries.get(session_id)

    def _remove(self, session_id: str) -> None:
        with self._lock:
            entry = self._entries.pop(session_id, None)
            if entry is None:
                return
            self._by_key.pop((entry.session.tag, entry.session.antenna), None)
            self._departed += 1
            active = len(self._entries)
        if metrics_enabled():
            registry = get_registry()
            registry.counter("serve.stream.sessions_total", result="departed").inc()
            registry.gauge("serve.stream.sessions_active").set(active)

    def _publish(self, events: List[SessionEvent]) -> None:
        if not events:
            return
        with self._lock:
            self._events_total += len(events)
        if metrics_enabled():
            registry = get_registry()
            for event in events:
                registry.counter("serve.stream.events_total", kind=event.kind).inc()
        self.bus.publish_all(events)
