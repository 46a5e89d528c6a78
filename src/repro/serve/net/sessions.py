"""HTTP face of the streaming session layer.

The session routes bridge :class:`repro.stream.SessionManager` into the
network front end:

- ``POST /v1/sessions`` — open a session (JSON body: ``tag``, optional
  ``antenna`` / ``session_id`` / ``estimator`` / ``estimator_config`` /
  ``stream`` overrides of :class:`repro.stream.StreamConfig` fields).
- ``POST /v1/sessions/{id}/reads`` — NDJSON chunk ingest: one read per
  line, ``{"t": <seconds>, "position": [x, y], "phase": <rad>}``.
- ``GET /v1/sessions/{id}`` — the session snapshot.
- ``DELETE /v1/sessions/{id}`` — close (final windowed re-solve, then
  departure).

This module owns the parsing and the error taxonomy extension; the
asyncio handler in :mod:`repro.serve.net.http` stays a thin router.
Sessions live in the front-end process (re-solves run on the serving
thread pool), so their events and ``serve.stream.*`` metrics land in
the same registry ``GET /metrics`` merges.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve.net.protocol import BadRequestError, classify_error, error_body
from repro.stream import (
    FeedResult,
    SessionCapacityError,
    SessionClosedError,
    DuplicateSessionError,
    StreamConfig,
    UnknownSessionError,
)

#: ``POST /v1/sessions`` body keys (anything else is a 400).
_CREATE_KEYS = ("tag", "antenna", "session_id", "estimator", "estimator_config", "stream")

Read = Tuple[float, Sequence[float], float]


def parse_session_create(
    raw: bytes, defaults: StreamConfig
) -> Tuple[str, str, Optional[str], StreamConfig]:
    """Parse one ``POST /v1/sessions`` body.

    Returns ``(tag, antenna, session_id, config)`` where ``config`` is
    ``defaults`` overridden by the body's ``estimator`` /
    ``estimator_config`` / ``stream`` fields.

    Raises:
        BadRequestError: on malformed input (maps to 400).
    """
    try:
        body = json.loads(raw) if raw else {}
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as error:
        raise BadRequestError(f"body is not valid JSON: {error}") from error
    if not isinstance(body, dict):
        raise BadRequestError(f"body must be a JSON object, got {type(body).__name__}")
    unknown = sorted(set(body) - set(_CREATE_KEYS))
    if unknown:
        raise BadRequestError(f"unknown session fields: {unknown}")

    tag = body.get("tag")
    if not isinstance(tag, str) or not tag:
        raise BadRequestError("'tag' must be a non-empty string")
    antenna = body.get("antenna", "1")
    if not isinstance(antenna, str) or not antenna:
        raise BadRequestError("'antenna' must be a non-empty string")
    session_id = body.get("session_id")
    if session_id is not None and (not isinstance(session_id, str) or not session_id):
        raise BadRequestError("'session_id' must be a non-empty string when given")

    overrides: Dict[str, Any] = {}
    stream = body.get("stream", {})
    if not isinstance(stream, dict):
        raise BadRequestError("'stream' must be a JSON object of StreamConfig overrides")
    overrides.update(stream)
    if "estimator" in body:
        estimator = body["estimator"]
        if not isinstance(estimator, str) or not estimator:
            raise BadRequestError("'estimator' must be a non-empty string")
        overrides["estimator"] = estimator
    if "estimator_config" in body:
        estimator_config = body["estimator_config"]
        if estimator_config is not None and not isinstance(estimator_config, dict):
            raise BadRequestError("'estimator_config' must be a JSON object when given")
        overrides["estimator_config"] = estimator_config
    try:
        config = defaults.override(**overrides) if overrides else defaults
    except (TypeError, ValueError) as error:
        raise BadRequestError(f"bad stream config: {error}") from error
    return tag, antenna, session_id, config


def parse_reads_ndjson(raw: bytes) -> List[Read]:
    """Parse one NDJSON reads chunk into ``(t, position, phase)`` tuples.

    One read per line: ``{"t": <seconds>, "position": [x, y], "phase":
    <rad>}``. Blank lines are skipped (a trailing newline is fine).

    Raises:
        BadRequestError: on malformed lines (numbers out of float range
            and JSON nested too deep to decode included) or an empty
            chunk.
    """
    reads: List[Read] = []
    for number, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as error:
            raise BadRequestError(f"line {number} is not valid JSON: {error}") from error
        if not isinstance(record, dict):
            raise BadRequestError(f"line {number} must be a JSON object")
        unknown = sorted(set(record) - {"t", "position", "phase"})
        if unknown:
            raise BadRequestError(f"line {number} has unknown fields: {unknown}")
        try:
            timestamp = float(record["t"])
            phase = float(record["phase"])
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise BadRequestError(
                f"line {number} needs numeric 't' and 'phase': {error}"
            ) from error
        position = record.get("position")
        if (
            not isinstance(position, (list, tuple))
            or len(position) not in (2, 3)
            or not all(isinstance(value, (int, float)) for value in position)
        ):
            raise BadRequestError(
                f"line {number} 'position' must be a 2- or 3-element number array"
            )
        try:
            coordinates = [float(value) for value in position]
        except OverflowError as error:
            raise BadRequestError(
                f"line {number} 'position' is out of range: {error}"
            ) from error
        reads.append((timestamp, coordinates, phase))
    if not reads:
        raise BadRequestError("reads chunk is empty")
    return reads


def feed_result_body(result: FeedResult) -> Dict[str, Any]:
    """JSON-safe body for feed/close responses: state, events, estimate."""
    return {
        "session_id": result.session_id,
        "accepted": result.accepted,
        "state": result.state,
        "events": [event.to_dict() for event in result.events],
        "estimate": result.estimate,
    }


def classify_session_error(
    error: BaseException, retry_after_s: float
) -> Tuple[int, Dict[str, Any]]:
    """Session-route error taxonomy; falls back to :func:`classify_error`.

    Capacity shedding is 429 (with the usual retry hint), an unknown id
    is 404, and duplicate/closed sessions are 409 — structural outcomes
    a streaming client branches on, same as the locate path's kinds.
    """
    if isinstance(error, SessionCapacityError):
        return 429, error_body("session_capacity", str(error), retry_after_s=retry_after_s)
    if isinstance(error, UnknownSessionError):
        return 404, error_body("unknown_session", str(error))
    if isinstance(error, DuplicateSessionError):
        return 409, error_body("duplicate_session", str(error))
    if isinstance(error, SessionClosedError):
        return 409, error_body("session_closed", str(error))
    return classify_error(error, retry_after_s)
