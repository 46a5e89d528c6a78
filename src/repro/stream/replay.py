"""Replay recorded read streams through the session layer.

Recorded scans (:func:`repro.datasets.io.session_streams`) replay
through a :class:`~repro.stream.manager.SessionManager` either at
**wall-clock** pace (sleeping out the recorded inter-read gaps,
optionally time-scaled) or at **max speed** (no sleeping — the offline
test/bench mode). The replay's final windowed re-solve is compared
bit-for-bit against a one-shot batch estimate over the identical window,
and the verdict ships in the :class:`ReplayResult`. ``lion replay`` is the CLI face of this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.io import RecordedStream
from repro.pipeline.registry import estimate as pipeline_estimate
from repro.stream.config import StreamConfig
from repro.stream.events import SessionEvent
from repro.stream.manager import SessionManager


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one recorded stream.

    Attributes:
        session_id / tag / antenna: the replayed session.
        reads: reads fed.
        events: event counts by kind.
        final_position: the final windowed re-solve, or ``None`` when
            the window never became solvable.
        oneshot_position: the one-shot batch estimate over the same
            final window (verification mode only).
        bit_identical: whether the two agree bit-for-bit; ``None`` when
            verification was skipped or the window never solved.
        final_state: session state just before departure.
        wall_s: wall time the replay took.
        reads_per_sec: feed throughput over the replay.
    """

    session_id: str
    tag: str
    antenna: str
    reads: int
    events: Dict[str, int]
    final_position: Optional[Tuple[float, ...]]
    oneshot_position: Optional[Tuple[float, ...]]
    bit_identical: Optional[bool]
    final_state: str
    wall_s: float
    reads_per_sec: float


def replay_stream(
    stream: RecordedStream,
    manager: SessionManager,
    speed: Optional[float] = None,
    chunk_reads: int = 32,
    verify: bool = True,
    sleep: Callable[[float], None] = time.sleep,
) -> ReplayResult:
    """Replay one recorded stream through ``manager``.

    Args:
        stream: the recorded ``(tag, antenna)`` read stream.
        manager: the session manager to feed (its bus sees the events).
        speed: ``None`` replays at max speed; a positive factor replays
            at wall clock scaled by it (``1.0`` = real time, ``2.0`` =
            twice as fast).
        chunk_reads: reads per :meth:`SessionManager.feed` chunk (the
            NDJSON-chunk analogue).
        verify: compare the final windowed re-solve bit-for-bit against
            a one-shot estimate over the identical window.
        sleep: injectable sleeper (tests pace without waiting).

    Raises:
        ValueError: on a non-positive ``speed`` or ``chunk_reads``.
    """
    if speed is not None and speed <= 0.0:
        raise ValueError(f"speed must be positive, got {speed}")
    if chunk_reads < 1:
        raise ValueError(f"chunk_reads must be positive, got {chunk_reads}")

    session = manager.open_session(stream.tag, stream.antenna)
    events: Dict[str, int] = {}
    started = time.perf_counter()
    total = len(stream)
    index = 0
    while index < total:
        end = min(index + chunk_reads, total)
        if speed is not None and index > 0:
            gap = float(stream.timestamps_s[index] - stream.timestamps_s[index - 1])
            if gap > 0.0:
                sleep(gap / speed)
        chunk = [
            (
                float(stream.timestamps_s[i]),
                stream.positions[i],
                float(stream.phases_rad[i]),
            )
            for i in range(index, end)
        ]
        result = manager.feed(session.session_id, chunk)
        for event in result.events:
            events[event.kind] = events.get(event.kind, 0) + 1
        index = end
    wall_s = time.perf_counter() - started

    final_position: Optional[Tuple[float, ...]] = None
    oneshot_position: Optional[Tuple[float, ...]] = None
    bit_identical: Optional[bool] = None
    final = session.final_resolve()
    if final is not None:
        final_position = tuple(float(v) for v in final.position)
        if verify:
            name, config, request = session.build_resolve_request()
            oneshot = pipeline_estimate(name, request, config)
            oneshot_position = tuple(float(v) for v in oneshot.position)
            bit_identical = bool(
                np.array_equal(
                    np.asarray(final.position, dtype=float),
                    np.asarray(oneshot.position, dtype=float),
                )
            )
    final_state = session.state.value
    closing = manager.close_session(session.session_id, reason="closed")
    for event in closing.events:
        events[event.kind] = events.get(event.kind, 0) + 1

    return ReplayResult(
        session_id=session.session_id,
        tag=stream.tag,
        antenna=stream.antenna,
        reads=total,
        events=events,
        final_position=final_position,
        oneshot_position=oneshot_position,
        bit_identical=bit_identical,
        final_state=final_state,
        wall_s=wall_s,
        reads_per_sec=(total / wall_s) if wall_s > 0.0 else float(total),
    )


def replay_records(
    streams: List[RecordedStream],
    config: Optional[StreamConfig] = None,
    speed: Optional[float] = None,
    chunk_reads: int = 32,
    verify: bool = True,
    subscriber: Optional[Callable[[SessionEvent], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> List[ReplayResult]:
    """Replay every recorded stream through a fresh manager, in order.

    Convenience over :func:`replay_stream` for the CLI: one manager,
    sequential sessions, optional event subscriber (the CLI prints
    events through it).
    """
    manager = SessionManager(
        defaults=config or StreamConfig(), max_sessions=max(len(streams), 1)
    )
    token: Optional[int] = None
    if subscriber is not None:
        token = manager.bus.subscribe(subscriber)
    try:
        return [
            replay_stream(
                stream,
                manager,
                speed=speed,
                chunk_reads=chunk_reads,
                verify=verify,
                sleep=sleep,
            )
            for stream in streams
        ]
    finally:
        if token is not None:
            manager.bus.unsubscribe(token)
