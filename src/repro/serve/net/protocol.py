"""JSON wire contract of ``POST /v1/locate`` and the error taxonomy.

One request body carries everything :func:`repro.pipeline.estimate`
takes — the estimator name, optional config overrides, and the
:class:`EstimationRequest` fields (arrays as nested lists) — plus
serving controls (``deadline_ms``, ``include_residuals``)::

    {
      "estimator": "lion",
      "config": {"dim": 2, "max_iterations": 24},
      "request": {"positions": [[x, y], ...], "phases_rad": [...]},
      "deadline_ms": 250,
      "include_residuals": false
    }

Responses round-trip float64 exactly (``json`` serializes doubles via
``repr``), so a position served over the wire is **bit-identical** to
the in-process ``estimate()`` answer — the benchmark asserts this.

Every failure maps to one ``(HTTP status, kind)`` pair via
:func:`classify_error`, and the JSON error body always carries the kind,
so clients branch on structure, not message text. 429 bodies include
``retry_after_s`` and the response carries a ``Retry-After`` header.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.calib.errors import UnknownAntennaError, VersionConflictError
from repro.serve.errors import (
    DeadlineExceededError,
    EngineClosedError,
    QueueFullError,
    RemoteEstimationError,
    WorkerDiedError,
)

#: ndarray-valued :class:`EstimationRequest` fields (wire: nested lists).
ARRAY_FIELDS: Tuple[str, ...] = (
    "positions",
    "phases_rad",
    "segment_ids",
    "exclude_mask",
    "run_ids",
    "angles_rad",
    "initial_guess",
    "offset_corrections_rad",
)

#: Plain-value :class:`EstimationRequest` fields (wire: as-is).
SCALAR_FIELDS: Tuple[str, ...] = ("radius_m", "bounds", "reference_index")

#: String-tuple wire fields (list of strings), never passed on as
#: :class:`EstimationRequest` fields: ``antennas`` names registry entries
#: a calibration-wired front end resolves into ``positions`` /
#: ``offset_corrections_rad`` before routing; see
#: :mod:`repro.calib.resolver`.
STRING_TUPLE_FIELDS: Tuple[str, ...] = ("antennas",)


class BadRequestError(ValueError):
    """The request body is malformed (not JSON, wrong types, bad shapes)."""


@dataclass(frozen=True)
class LocateCall:
    """One parsed ``/v1/locate`` call, ready for the supervisor.

    Attributes:
        estimator: registry name.
        config: config-override dict (``None`` for method defaults).
        arrays: ndarray request fields, keyed by field name.
        scalars: plain request fields, keyed by field name.
        deadline_s: end-to-end deadline in seconds (``None`` = none).
        include_residuals: whether the response carries residuals.
    """

    estimator: str
    config: Optional[Dict[str, Any]]
    arrays: Dict[str, np.ndarray]
    scalars: Dict[str, Any]
    deadline_s: Optional[float]
    include_residuals: bool


def parse_locate_body(raw: bytes, max_deadline_s: Optional[float] = None) -> LocateCall:
    """Parse and validate one request body.

    Raises:
        BadRequestError: on any malformed input — the caller maps this
            to 400 without touching the supervisor. That includes numbers
            out of range for their field (a 400-digit integer, or ``1e400``
            where an integer belongs) and JSON nested too deep to decode.
    """
    try:
        body = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as error:
        raise BadRequestError(f"body is not valid JSON: {error}") from error
    if not isinstance(body, dict):
        raise BadRequestError(f"body must be a JSON object, got {type(body).__name__}")
    estimator = body.get("estimator")
    if not isinstance(estimator, str) or not estimator:
        raise BadRequestError("'estimator' must be a non-empty string")
    config = body.get("config")
    if config is not None and not isinstance(config, dict):
        raise BadRequestError("'config' must be a JSON object when given")
    request_fields = body.get("request")
    if not isinstance(request_fields, dict):
        raise BadRequestError("'request' must be a JSON object of request fields")
    unknown = sorted(
        set(request_fields)
        - set(ARRAY_FIELDS)
        - set(SCALAR_FIELDS)
        - set(STRING_TUPLE_FIELDS)
    )
    if unknown:
        raise BadRequestError(f"unknown request fields: {unknown}")

    arrays: Dict[str, np.ndarray] = {}
    for name in ARRAY_FIELDS:
        value = request_fields.get(name)
        if value is None:
            continue
        try:
            dtype: type = float
            if name in ("segment_ids", "run_ids"):
                dtype = int
            elif name == "exclude_mask":
                dtype = bool
            arrays[name] = np.asarray(value, dtype=dtype)
        except (TypeError, ValueError, OverflowError) as error:
            raise BadRequestError(f"request field {name!r} is not array-like: {error}") from error
    scalars: Dict[str, Any] = {}
    for name in SCALAR_FIELDS:
        value = request_fields.get(name)
        if value is not None:
            scalars[name] = value
    if "bounds" in scalars:
        try:
            scalars["bounds"] = tuple(
                (float(low), float(high)) for low, high in scalars["bounds"]
            )
        except (TypeError, ValueError, OverflowError) as error:
            raise BadRequestError(f"'bounds' must be [[low, high], ...]: {error}") from error
    for name in STRING_TUPLE_FIELDS:
        value = request_fields.get(name)
        if value is None:
            continue
        if (
            not isinstance(value, (list, tuple))
            or not value
            or not all(isinstance(item, str) and item for item in value)
        ):
            raise BadRequestError(
                f"request field {name!r} must be a non-empty list of strings"
            )
        scalars[name] = tuple(value)

    deadline_s: Optional[float] = None
    deadline_ms = body.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or isinstance(deadline_ms, bool):
            raise BadRequestError("'deadline_ms' must be a number")
        if not deadline_ms > 0:  # NaN too: it would never expire, cap or not
            raise BadRequestError(f"'deadline_ms' must be positive, got {deadline_ms}")
        try:
            deadline_s = float(deadline_ms) / 1e3
        except OverflowError as error:
            raise BadRequestError(f"'deadline_ms' is out of range: {error}") from error
    if max_deadline_s is not None:
        deadline_s = max_deadline_s if deadline_s is None else min(deadline_s, max_deadline_s)

    include_residuals = body.get("include_residuals", False)
    if not isinstance(include_residuals, bool):
        raise BadRequestError("'include_residuals' must be a boolean")
    return LocateCall(
        estimator=estimator,
        config=config,
        arrays=arrays,
        scalars=scalars,
        deadline_s=deadline_s,
        include_residuals=include_residuals,
    )


def encode_report_payload(
    payload: Dict[str, Any],
    shard: int,
    server_ms: float,
    request_id: Optional[str] = None,
) -> Dict[str, Any]:
    """JSON-safe success body from a worker's report payload.

    ``payload`` is the picklable report dict a worker ships back
    (:func:`repro.serve.net.worker.report_payload`); arrays become
    lists, and the serving envelope (shard, timing, request id) is
    stamped on.
    """
    body: Dict[str, Any] = {
        "estimator": payload["estimator"],
        "config_hash": payload["config_hash"],
        "position": np.asarray(payload["position"]).tolist(),
        "reference_distance_m": payload["reference_distance_m"],
        "diagnostics": payload["diagnostics"],
        "shard": shard,
        "server_ms": round(server_ms, 3),
    }
    if request_id is not None:
        body["request_id"] = request_id
    residuals = payload.get("residuals")
    if residuals is not None:
        body["residuals"] = np.asarray(residuals).tolist()
    return body


def classify_error(error: BaseException, retry_after_s: float) -> Tuple[int, Dict[str, Any]]:
    """Map one failure to ``(HTTP status, JSON error body)``.

    The mapping is total: anything unrecognized becomes a 500 with kind
    ``"internal"`` (the handler logs it; the body never leaks a
    traceback).
    """
    if isinstance(error, QueueFullError):
        return 429, error_body("queue_full", str(error), retry_after_s=retry_after_s)
    if isinstance(error, DeadlineExceededError):
        return 504, error_body("deadline_exceeded", str(error))
    if isinstance(error, EngineClosedError):
        return 503, error_body("draining", str(error))
    if isinstance(error, WorkerDiedError):
        return 503, error_body("shard_unavailable", str(error))
    if isinstance(error, RemoteEstimationError):
        body = error_body("estimation_failed", str(error))
        body["error"]["exc_type"] = error.exc_type
        return 422, body
    if isinstance(error, UnknownAntennaError):
        return 404, error_body("unknown_antenna", str(error))
    if isinstance(error, VersionConflictError):
        return 409, error_body("version_conflict", str(error))
    if isinstance(error, (BadRequestError, KeyError, TypeError, ValueError)):
        # KeyError/TypeError/ValueError surface config-resolution failures
        # exactly as repro.pipeline.resolve_config raises them.
        message = str(error.args[0]) if isinstance(error, KeyError) and error.args else str(error)
        return 400, error_body("bad_request", message)
    return 500, error_body("internal", f"{type(error).__name__}: {error}")


def error_body(
    kind: str, message: str, retry_after_s: Optional[float] = None
) -> Dict[str, Any]:
    """The uniform JSON error envelope."""
    error: Dict[str, Any] = {"kind": kind, "message": message}
    body: Dict[str, Any] = {"error": error}
    if retry_after_s is not None:
        body["retry_after_s"] = retry_after_s
    return body
