"""Configuration of one streaming tag session.

:class:`StreamConfig` bundles the estimator choice with the window,
cadence, settle, departure, and drift knobs of a session. It is frozen,
validated on construction, and dict-round-trippable (the HTTP create
body carries exactly :meth:`StreamConfig.to_dict`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of one tag session.

    Attributes:
        estimator: registry name of the windowed re-solve method; each
            re-solve is its ``estimate()`` on the window's raw reads.
        estimator_config: dict config for that estimator (``None`` for
            defaults), as accepted by ``repro.pipeline.resolve_config``.
        max_window_reads: sliding-window bound in reads.
        min_window_reads: reads required before the first windowed
            re-solve (must be at least 3 — the solvable minimum).
        update_every_reads: fast-path estimate cadence, in reads.
        resolve_every_reads: windowed re-solve cadence, in reads.
        settle_window: consecutive estimates that must agree to settle.
        settle_epsilon_m: agreement radius for settling, meters.
        depart_after_s: idle time after which the sweep departs a session.
        drift_threshold_m: fast-vs-windowed divergence that raises a
            :class:`~repro.stream.events.CalibrationDriftAlarm`.
        fast_pair_lag: pair lag of the implicit ``lion-online`` fast path
            used when the windowed estimator has no streaming facet.
        fast_min_rows: rows before the implicit fast path reports.
    """

    estimator: str = "lion"
    estimator_config: Optional[Dict[str, Any]] = None
    max_window_reads: int = 512
    min_window_reads: int = 12
    update_every_reads: int = 10
    resolve_every_reads: int = 64
    settle_window: int = 5
    settle_epsilon_m: float = 0.002
    depart_after_s: float = 2.0
    drift_threshold_m: float = 0.25
    fast_pair_lag: int = 25
    fast_min_rows: int = 10

    def __post_init__(self) -> None:
        if not self.estimator:
            raise ValueError("estimator name must be non-empty")
        if self.max_window_reads < 3:
            raise ValueError("max_window_reads must be at least 3")
        if self.min_window_reads < 3:
            raise ValueError("min_window_reads must be at least 3")
        if self.min_window_reads > self.max_window_reads:
            raise ValueError("min_window_reads cannot exceed max_window_reads")
        if self.update_every_reads < 1:
            raise ValueError("update_every_reads must be positive")
        if self.resolve_every_reads < 1:
            raise ValueError("resolve_every_reads must be positive")
        if self.settle_window < 2:
            raise ValueError("settle_window must be at least 2")
        if self.settle_epsilon_m <= 0.0:
            raise ValueError("settle_epsilon_m must be positive")
        if self.depart_after_s <= 0.0:
            raise ValueError("depart_after_s must be positive")
        if self.drift_threshold_m <= 0.0:
            raise ValueError("drift_threshold_m must be positive")
        if self.fast_pair_lag < 1:
            raise ValueError("fast_pair_lag must be positive")
        if self.fast_min_rows < 1:
            raise ValueError("fast_min_rows must be positive")
        if self.estimator_config is not None:
            object.__setattr__(self, "estimator_config", dict(self.estimator_config))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict that :meth:`from_dict` reconstructs exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StreamConfig":
        """Build from a dict, rejecting unknown keys.

        Raises:
            ValueError: on unknown keys (typo protection at the wire).
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown stream config keys: {unknown}")
        return cls(**dict(payload))

    def override(self, **changes: Any) -> "StreamConfig":
        """A copy with ``changes`` applied (validated like a fresh build)."""
        return replace(self, **changes)
