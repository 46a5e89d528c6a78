"""The request/report contract every estimator serves.

One scan, many methods: the paper's evaluation (Sec. V) runs LION and
four baselines over identical scan data, and deployable systems
(RF-CHORD-style) need a uniform serving interface over interchangeable
solvers. :class:`EstimationRequest` is the superset of inputs any
registered method consumes; :class:`EstimationReport` is the common
output — estimate, residuals, diagnostics and the serialized config that
produced it (hashable into a :class:`repro.obs.RunManifest`).

Methods validate the *subset* of request fields they need and ignore the
rest, so one request built from a scan can be replayed through every
registered estimator (the cross-estimator golden test does exactly
that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.obs.manifest import config_fingerprint
from repro.pipeline.config import EstimatorConfig

Bounds = Tuple[float, float]


def _as_optional_array(value: Any, dtype: type) -> np.ndarray | None:
    if value is None:
        return None
    return np.asarray(value, dtype=dtype)


@dataclass(frozen=True)
class EstimationRequest:
    """Inputs for one localization, the superset across all methods.

    Attributes:
        positions: known tag positions (trajectory-based methods) or
            antenna centers (``lion-multiantenna``), shape ``(n, 2|3)``.
        phases_rad: wrapped phases, one per row of ``positions`` (for
            ``lion-multiantenna``: one averaged phase per antenna).
        segment_ids: per-read sweep labels of a multi-line scan.
        exclude_mask: reads to exclude (e.g. transit moves).
        run_ids: independent-datum labels for ``lion-multiref``
            (separate sweeps, frequency-hop blocks). Falls back to
            ``segment_ids`` when omitted.
        angles_rad: turntable angle per read (``angle`` method only).
        radius_m: turntable radius (``angle`` method only).
        bounds: per-axis ``(low, high)`` search bounds for grid methods
            (``hologram``, ``lion-multiantenna``).
        initial_guess: optimizer start for iterative methods.
        offset_corrections_rad: per-antenna phase-offset corrections
            (``lion-multiantenna`` only).
        reference_index: Eq. (6) reference read override (``lion``,
            ``hologram``).
    """

    positions: np.ndarray | None = None
    phases_rad: np.ndarray | None = None
    segment_ids: np.ndarray | None = None
    exclude_mask: np.ndarray | None = None
    run_ids: np.ndarray | None = None
    angles_rad: np.ndarray | None = None
    radius_m: float | None = None
    bounds: Tuple[Bounds, ...] | None = None
    initial_guess: np.ndarray | None = None
    offset_corrections_rad: np.ndarray | None = None
    reference_index: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", _as_optional_array(self.positions, float))
        object.__setattr__(self, "phases_rad", _as_optional_array(self.phases_rad, float))
        object.__setattr__(self, "segment_ids", _as_optional_array(self.segment_ids, int))
        object.__setattr__(self, "exclude_mask", _as_optional_array(self.exclude_mask, bool))
        object.__setattr__(self, "run_ids", _as_optional_array(self.run_ids, int))
        object.__setattr__(self, "angles_rad", _as_optional_array(self.angles_rad, float))
        object.__setattr__(
            self, "initial_guess", _as_optional_array(self.initial_guess, float)
        )
        object.__setattr__(
            self,
            "offset_corrections_rad",
            _as_optional_array(self.offset_corrections_rad, float),
        )
        if self.bounds is not None:
            object.__setattr__(
                self,
                "bounds",
                tuple((float(low), float(high)) for low, high in self.bounds),
            )

    @classmethod
    def from_scan(
        cls,
        scan: Any,
        bounds: Sequence[Bounds] | None = None,
        **overrides: Any,
    ) -> "EstimationRequest":
        """Build a request from a scan-like object.

        Accepts anything exposing ``positions`` and ``phases`` (and
        optionally ``segment_ids`` / ``exclude_mask``), such as
        :class:`repro.datasets.ScanData` — duck-typed so the contract
        layer stays independent of the dataset layer.

        Args:
            scan: the scan-like object.
            bounds: optional search bounds for grid methods.
            **overrides: any other request field (e.g. ``run_ids``).
        """
        fields: Dict[str, Any] = {
            "positions": scan.positions,
            "phases_rad": scan.phases,
            "segment_ids": getattr(scan, "segment_ids", None),
            "exclude_mask": getattr(scan, "exclude_mask", None),
            "bounds": tuple(bounds) if bounds is not None else None,
        }
        fields.update(overrides)
        return cls(**fields)

    def require(self, *names: str) -> None:
        """Raise if any of the named request fields is missing.

        Adapters call this first, so "this method needs bounds" reads as
        one uniform error instead of nine ad-hoc ones.

        Raises:
            ValueError: naming the missing fields.
        """
        missing = [name for name in names if getattr(self, name) is None]
        if missing:
            raise ValueError(f"request is missing required fields: {missing}")


@dataclass(frozen=True)
class EstimationReport:
    """Output of one estimator run, uniform across methods.

    Attributes:
        estimator: registry name of the method that produced this.
        position: the estimate, shape ``(dim,)`` (method-specific frame
            for scan-frame methods like ``parabola``/``angle``).
        config: the serialized (:meth:`EstimatorConfig.to_dict`) config.
        config_hash: :func:`repro.obs.manifest.config_fingerprint` of
            ``{"estimator": name, **config}`` — the provenance key that
            ties a result to the exact method + settings that made it.
        reference_distance_m: estimated reference distance ``d_r`` for
            methods that carry one, else ``None``.
        residuals: per-equation/per-row residuals when the method
            produces them, else ``None``.
        diagnostics: method-specific scalars (mean residual, likelihood,
            iteration counts, ...), all plain JSON-safe values.
        raw: the method's native result object, for callers needing the
            full solver output (systems, holograms, recovery details).
    """

    estimator: str
    position: np.ndarray
    config: Dict[str, Any]
    config_hash: str
    reference_distance_m: float | None = None
    residuals: np.ndarray | None = None
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    raw: Any = None

    def manifest_config(self) -> Dict[str, Any]:
        """The dict whose fingerprint is :attr:`config_hash`.

        Feed this as ``config=`` to :func:`repro.obs.collect_manifest`
        so a run manifest's config hash identifies the estimator setup.
        """
        return {"estimator": self.estimator, **self.config}


def build_report(
    name: str,
    config: EstimatorConfig,
    position: np.ndarray,
    reference_distance_m: float | None = None,
    residuals: np.ndarray | None = None,
    diagnostics: Dict[str, Any] | None = None,
    raw: Any = None,
) -> EstimationReport:
    """Assemble an :class:`EstimationReport`, stamping the config hash."""
    serialized = config.to_dict()
    return EstimationReport(
        estimator=name,
        position=np.asarray(position, dtype=float),
        config=serialized,
        config_hash=config_fingerprint({"estimator": name, **serialized}),
        reference_distance_m=reference_distance_m,
        residuals=residuals,
        diagnostics=dict(diagnostics or {}),
        raw=raw,
    )


@runtime_checkable
class Estimator(Protocol):
    """The protocol every registered estimator implements.

    An estimator is constructed from its typed config (see
    :func:`repro.pipeline.registry.create_estimator`) and exposes one
    method: :meth:`estimate`. Streaming methods may offer additional
    incremental entry points (``lion-online``), but batch estimation
    through this protocol is always available.
    """

    name: str
    config: EstimatorConfig

    def estimate(self, request: EstimationRequest) -> EstimationReport:
        """Run the method on ``request`` and report the estimate."""
        ...


@runtime_checkable
class StreamingEstimator(Estimator, Protocol):
    """The incremental facet a streaming-capable estimator adds.

    Estimators that can fold reads in one at a time (``lion-online``)
    implement this on top of the batch :class:`Estimator` contract, and
    advertise it in the registry (``EstimatorSpec.streaming``). The
    session layer (:mod:`repro.stream`) drives :meth:`ingest` per read
    and :meth:`snapshot` for fast-path estimates; estimators *without*
    this facet still serve sessions through the windowed-re-solve
    fallback (a periodic batch :meth:`Estimator.estimate` over the
    sliding window), so streaming support is an optimization, never a
    requirement.
    """

    def ingest(self, position: np.ndarray, wrapped_phase_rad: float) -> None:
        """Fold one read (known position + wrapped phase) into the state."""
        ...

    def ready(self) -> bool:
        """Whether enough state has accumulated for :meth:`snapshot`."""
        ...

    def snapshot(self) -> EstimationReport:
        """Report the current incremental estimate without consuming state."""
        ...

    def reset(self) -> None:
        """Clear the incremental state (new target / new session)."""
        ...
