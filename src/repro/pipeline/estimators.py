"""Adapters wrapping every localization method behind the contract.

Each adapter pairs a typed config (:mod:`repro.pipeline.config`) with the
underlying solver from :mod:`repro.core` / :mod:`repro.baselines`, maps
the relevant :class:`EstimationRequest` fields onto that solver's native
signature, and normalizes the native result into an
:class:`EstimationReport` (keeping the native object on ``report.raw``).

Registered names:

========================  =====================================================
``lion``                  batch LION (:class:`repro.core.localizer.LionLocalizer`)
``lion-online``           streaming RLS LION (also exposes incremental ingest)
``lion-multiref``         per-run reference distances (separate sweeps / hops)
``lion-multiantenna``     differential hologram over one phase per antenna
``lion-adaptive``         LION + (range, interval) sweep selection
``hyperbola``             nonlinear TDoA fit baseline
``parabola``              quadratic phase-profile fit baseline (linear scans)
``angle``                 rotating-tag AoA baseline (turntable scans)
``hologram``              Tagoram-style differential augmented hologram
========================  =====================================================

Importing this module performs the registrations (it is imported by
``repro.pipeline``'s ``__init__``), each exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH_M
from repro.core.adaptive import ParameterGrid, _adaptive_localize_impl
from repro.core.localizer import LionLocalizer, LocalizationResult, PreprocessConfig
from repro.core.multiantenna import _differential_hologram_impl
from repro.core.multiref import _locate_multireference_impl
from repro.core.online import OnlineLionLocalizer
from repro.baselines.angle import _locate_rotating_tag_impl
from repro.baselines.hologram import DifferentialHologram
from repro.baselines.hyperbola import _locate_hyperbola_impl
from repro.baselines.parabola import _locate_parabola_2d_impl
from repro.parallel import Executor
from repro.pipeline.config import EstimatorConfig
from repro.pipeline.contract import (
    EstimationReport,
    EstimationRequest,
    build_report,
)
from repro.pipeline.registry import register_estimator


def _masked(request: EstimationRequest, *arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Drop rows the request excludes (for methods without native masks).

    Methods that unwrap the filtered profile assume the excluded reads
    are edge trims (range windows, warm-up reads), not interior gaps
    larger than half a wavelength — the same continuity condition the
    methods already place on the scan itself.
    """
    if request.exclude_mask is None:
        return arrays
    keep = ~request.exclude_mask
    return tuple(array[keep] for array in arrays)


# ---------------------------------------------------------------------------
# LION batch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LionConfig(EstimatorConfig):
    """Config of the batch LION estimator (mirrors ``LionLocalizer``).

    Attributes:
        dim / wavelength_m / method / interval_m / positive_side /
        max_iterations / tolerance_m: as on
            :class:`repro.core.localizer.LionLocalizer`.
        smoothing_window / jump_threshold_rad / hampel_window: as on
            :class:`repro.core.localizer.PreprocessConfig`.
    """

    dim: int = 2
    wavelength_m: float = DEFAULT_WAVELENGTH_M
    method: str = "wls"
    interval_m: float = 0.25
    positive_side: bool = True
    smoothing_window: int = 9
    jump_threshold_rad: float = float(np.pi)
    hampel_window: int = 0
    max_iterations: int = 20
    tolerance_m: float = 1e-6

    def build_localizer(self) -> LionLocalizer:
        """Construct the configured :class:`LionLocalizer`."""
        return LionLocalizer(
            dim=self.dim,
            wavelength_m=self.wavelength_m,
            method=self.method,
            interval_m=self.interval_m,
            positive_side=self.positive_side,
            preprocess=PreprocessConfig(
                smoothing_window=self.smoothing_window,
                jump_threshold_rad=self.jump_threshold_rad,
                hampel_window=self.hampel_window,
            ),
            max_iterations=self.max_iterations,
            tolerance_m=self.tolerance_m,
        )


class LionEstimator:
    """Batch LION through the unified contract."""

    name = "lion"

    def __init__(self, config: LionConfig) -> None:
        self.config = config
        self._localizer = config.build_localizer()
        # Serialized config + fingerprint are pure functions of the frozen
        # config; computed once on first report, then every report is a
        # dict copy instead of a re-serialize + re-hash (the serving
        # engine builds one report per request on the hot path).
        self._serialized_config: Dict[str, object] | None = None
        self._config_hash: str | None = None

    @property
    def localizer(self) -> LionLocalizer:
        """The configured core localizer (serving layer batches through it)."""
        return self._localizer

    def estimate(self, request: EstimationRequest) -> EstimationReport:
        """Locate from one continuous scan (honors segments/exclusions)."""
        request.require("positions", "phases_rad")
        result = self._localizer.locate(
            request.positions,
            request.phases_rad,
            segment_ids=request.segment_ids,
            exclude_mask=request.exclude_mask,
            reference_index=request.reference_index,
        )
        return self.report(result)

    def report(
        self,
        result: LocalizationResult,
        diagnostics: Dict[str, object] | None = None,
    ) -> EstimationReport:
        """Wrap a core localization result in the contract report.

        Split from :meth:`estimate` so the serving engine
        (:mod:`repro.serve`) can run the solve through the fused batch path
        and still emit reports field-identical to the scalar path.
        ``diagnostics`` lets that engine pass the summary scalars it
        already computed batched (float32 pipeline) instead of re-deriving
        them per member from the :class:`Solution` properties.
        """
        if diagnostics is None:
            diagnostics = self._diagnostics(result)
        if self._serialized_config is None or self._config_hash is None:
            report = build_report(
                self.name,
                self.config,
                result.position,
                reference_distance_m=result.reference_distance_m,
                residuals=result.solution.normalized_residuals,
                diagnostics=diagnostics,
                raw=result,
            )
            self._serialized_config = dict(report.config)
            self._config_hash = report.config_hash
            return report
        return EstimationReport(
            estimator=self.name,
            position=np.asarray(result.position, dtype=float),
            config=dict(self._serialized_config),
            config_hash=self._config_hash,
            reference_distance_m=result.reference_distance_m,
            residuals=result.solution.normalized_residuals,
            diagnostics=diagnostics,
            raw=result,
        )

    @staticmethod
    def _diagnostics(result: LocalizationResult) -> Dict[str, object]:
        return {
            "mean_residual": float(result.mean_residual),
            "mean_abs_residual": float(result.solution.mean_abs_residual),
            "iterations": int(result.solution.iterations),
            "converged": bool(result.solution.converged),
            "recovered_axis": result.recovered_axis,
            "position_std_m": reported_position_std(result),
        }


def reported_position_std(result: LocalizationResult) -> List[float] | None:
    """The report's ``diagnostics.position_std_m``: world-frame σ or ``None``.

    The solver's formal per-axis σ (optimistic; see
    :attr:`Solution.position_std_m`) describes the answer only when every
    coordinate was solved in the world frame. On a line scan the cross
    coordinate is recovered from ``d_r`` after the solve, so the solver's
    0 on that axis is no standard error at all, and a slanted line is
    solved in a rotated frame; both report ``None``, as do answers of the
    float32 kernel, which forms no covariance.
    """
    std = result.solution.position_std_m
    if std is None or result.recovered_axis is not None:
        return None
    return std.tolist()


# ---------------------------------------------------------------------------
# LION online / streaming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OnlineLionConfig(EstimatorConfig):
    """Config of the streaming estimator (mirrors ``OnlineLionLocalizer``)."""

    dim: int = 2
    wavelength_m: float = DEFAULT_WAVELENGTH_M
    pair_lag: int = 150
    forgetting: float = 1.0
    gate_threshold: float = 4.0
    positive_side: bool = True
    min_rows: int = 10

    def build_localizer(self) -> OnlineLionLocalizer:
        """Construct the configured :class:`OnlineLionLocalizer`."""
        return OnlineLionLocalizer(
            dim=self.dim,
            wavelength_m=self.wavelength_m,
            pair_lag=self.pair_lag,
            forgetting=self.forgetting,
            gate_threshold=self.gate_threshold,
            positive_side=self.positive_side,
            min_rows=self.min_rows,
        )


class OnlineLionEstimator:
    """Streaming LION: batch replay plus incremental ingest.

    :meth:`estimate` replays a whole request through a fresh streaming
    state (the batch contract). Streaming callers instead drive
    :meth:`ingest` read-by-read and call :meth:`snapshot` at any point
    — the ``ext_online`` figure measures convergence exactly this way.
    """

    name = "lion-online"

    def __init__(self, config: OnlineLionConfig) -> None:
        self.config = config
        self._localizer = config.build_localizer()

    def ingest(self, position: np.ndarray, wrapped_phase_rad: float) -> None:
        """Feed one read into the streaming state."""
        self._localizer.add_read(position, wrapped_phase_rad)

    def ready(self) -> bool:
        """Whether enough rows accumulated for an estimate."""
        return self._localizer.ready()

    def reset(self) -> None:
        """Clear the streaming state."""
        self._localizer.reset()

    def snapshot(self) -> EstimationReport:
        """Report the current streaming estimate without consuming state."""
        estimate = self._localizer.estimate()
        return build_report(
            self.name,
            self.config,
            estimate.position,
            reference_distance_m=estimate.reference_distance_m,
            diagnostics={
                "reads": int(estimate.reads),
                "rows": int(estimate.rows),
                "recovered_axis": estimate.recovered_axis,
            },
            raw=estimate,
        )

    def estimate(self, request: EstimationRequest) -> EstimationReport:
        """Replay the request's reads in order and report the final state.

        The streaming unwrapper needs the full consecutive profile, so
        ``exclude_mask`` is not applied here; pre-trim the request if
        reads must be dropped.
        """
        request.require("positions", "phases_rad")
        self.reset()
        for position, phase in zip(request.positions, request.phases_rad):
            self.ingest(position, float(phase))
        return self.snapshot()


# ---------------------------------------------------------------------------
# LION multi-reference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiRefLionConfig(EstimatorConfig):
    """Config of the multi-reference solver.

    Attributes:
        wavelengths_by_run: per-run wavelength overrides for
            frequency-hopped scans, keyed by run id; ``None`` uses
            ``wavelength_m`` for every run. (JSON keys are strings; they
            are normalized back to ints on construction.)
    """

    dim: int = 3
    interval_m: float = 0.25
    wavelength_m: float = DEFAULT_WAVELENGTH_M
    wavelengths_by_run: Dict[int, float] | None = None
    smoothing_window: int = 9
    weighted: bool = True
    positive_side: bool = True

    def __post_init__(self) -> None:
        if self.wavelengths_by_run is not None:
            object.__setattr__(
                self,
                "wavelengths_by_run",
                {int(run): float(wl) for run, wl in self.wavelengths_by_run.items()},
            )


class MultiRefLionEstimator:
    """Multi-run LION (one reference distance per run)."""

    name = "lion-multiref"

    def __init__(self, config: MultiRefLionConfig) -> None:
        self.config = config

    def estimate(self, request: EstimationRequest) -> EstimationReport:
        """Solve runs jointly; run labels come from ``run_ids`` (or
        ``segment_ids`` as a fallback)."""
        request.require("positions", "phases_rad")
        runs = request.run_ids if request.run_ids is not None else request.segment_ids
        if runs is None:
            raise ValueError(
                "lion-multiref needs run_ids (or segment_ids) labeling each read's run"
            )
        positions, phases, runs = _masked(
            request, request.positions, request.phases_rad, runs
        )
        wavelengths = (
            self.config.wavelengths_by_run
            if self.config.wavelengths_by_run is not None
            else self.config.wavelength_m
        )
        solution = _locate_multireference_impl(
            positions,
            phases,
            runs,
            dim=self.config.dim,
            interval_m=self.config.interval_m,
            wavelengths_m=wavelengths,
            smoothing_window=self.config.smoothing_window,
            weighted=self.config.weighted,
            positive_side=self.config.positive_side,
        )
        return build_report(
            self.name,
            self.config,
            solution.position,
            residuals=solution.residuals,
            diagnostics={
                "iterations": int(solution.iterations),
                "run_count": len(solution.reference_distances),
                "reference_distances": {
                    str(run): float(d)
                    for run, d in sorted(solution.reference_distances.items())
                },
            },
            raw=solution,
        )


# ---------------------------------------------------------------------------
# LION multi-antenna (differential hologram over antenna anchors)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiAntennaConfig(EstimatorConfig):
    """Config of the multi-antenna differential grid search."""

    wavelength_m: float = DEFAULT_WAVELENGTH_M
    grid_size_m: float = 0.004


class MultiAntennaEstimator:
    """Static-tag localization from one phase per (calibrated) antenna."""

    name = "lion-multiantenna"

    def __init__(self, config: MultiAntennaConfig) -> None:
        self.config = config

    def estimate(self, request: EstimationRequest) -> EstimationReport:
        """Grid-search ``bounds``; ``positions`` are the antenna centers."""
        request.require("positions", "phases_rad", "bounds")
        result = _differential_hologram_impl(
            request.positions,
            request.phases_rad,
            request.bounds,
            grid_size_m=self.config.grid_size_m,
            offset_corrections_rad=request.offset_corrections_rad,
            wavelength_m=self.config.wavelength_m,
        )
        return build_report(
            self.name,
            self.config,
            result.position,
            diagnostics={
                "likelihood": float(result.likelihood),
                "cell_count": int(result.cell_count),
            },
            raw=result,
        )


# ---------------------------------------------------------------------------
# LION adaptive sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptiveLionConfig(LionConfig):
    """Config of the adaptive (range, interval) sweep around LION.

    Extends :class:`LionConfig` with the grid and selection knobs of
    :func:`repro.core.adaptive.adaptive_localize`. ``executor`` names a
    :mod:`repro.parallel` backend for fanning grid cells out. ``fused``
    forces the fused batch sweep on or off; ``None`` keeps the default
    (fused on the serial backend, per-cell dispatch otherwise).
    """

    ranges_m: Tuple[float, ...] = (0.6, 0.7, 0.8, 0.9, 1.0, 1.1)
    intervals_m: Tuple[float, ...] = (0.10, 0.15, 0.20, 0.25, 0.30, 0.35)
    axis: int = 0
    center: float = 0.0
    selection_quantile: float = 0.25
    criterion: str = "abs_mean"
    executor: str = "serial"
    jobs: int | None = None
    fused: bool | None = None

    def build_grid(self) -> ParameterGrid:
        """Construct the configured :class:`ParameterGrid`."""
        return ParameterGrid(
            ranges_m=self.ranges_m,
            intervals_m=self.intervals_m,
            axis=self.axis,
            center=self.center,
        )


class AdaptiveLionEstimator:
    """LION with the paper's adaptive parameter selection (Sec. IV-C1).

    Attributes:
        runtime_executor: optional prebuilt :class:`repro.parallel.Executor`
            overriding the config's backend name (executors are live
            objects and therefore not part of the serializable config).
    """

    name = "lion-adaptive"

    def __init__(self, config: AdaptiveLionConfig) -> None:
        self.config = config
        self._localizer = config.build_localizer()
        self.runtime_executor: Executor | None = None

    def estimate(self, request: EstimationRequest) -> EstimationReport:
        """Sweep the grid and fuse the lowest-|mean residual| solves."""
        request.require("positions", "phases_rad")
        result = _adaptive_localize_impl(
            self._localizer,
            request.positions,
            request.phases_rad,
            grid=self.config.build_grid(),
            segment_ids=request.segment_ids,
            exclude_mask=request.exclude_mask,
            selection_quantile=self.config.selection_quantile,
            criterion=self.config.criterion,
            executor=self.runtime_executor or self.config.executor,
            jobs=self.config.jobs,
            fused=self.config.fused,
        )
        best = result.best_outcome
        return build_report(
            self.name,
            self.config,
            result.position,
            reference_distance_m=result.reference_distance_m,
            residuals=best.result.solution.normalized_residuals,
            diagnostics={
                "grid_outcomes": len(result.outcomes),
                "selected": len(result.selected),
                "best_range_m": float(best.range_m),
                "best_interval_m": float(best.interval_m),
                "best_abs_mean_residual": float(best.abs_mean_residual),
            },
            raw=result,
        )


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperbolaConfig(EstimatorConfig):
    """Config of the hyperbola/TDoA baseline."""

    wavelength_m: float = DEFAULT_WAVELENGTH_M
    dim: int | None = None


class HyperbolaEstimator:
    """Nonlinear distance-difference fit baseline."""

    name = "hyperbola"

    def __init__(self, config: HyperbolaConfig) -> None:
        self.config = config

    def estimate(self, request: EstimationRequest) -> EstimationReport:
        """Fit hyperbolas over the (mask-filtered) continuous scan."""
        request.require("positions", "phases_rad")
        positions, phases = _masked(request, request.positions, request.phases_rad)
        result = _locate_hyperbola_impl(
            positions,
            phases,
            initial_guess=request.initial_guess,
            wavelength_m=self.config.wavelength_m,
            dim=self.config.dim,
        )
        return build_report(
            self.name,
            self.config,
            result.position,
            diagnostics={
                "cost": float(result.cost),
                "iterations": int(result.iterations),
                "converged": bool(result.converged),
            },
            raw=result,
        )


@dataclass(frozen=True)
class ParabolaConfig(EstimatorConfig):
    """Config of the parabola-fit baseline (linear scans only).

    Attributes:
        scan_axis: which position coordinate is the scan coordinate.
    """

    wavelength_m: float = DEFAULT_WAVELENGTH_M
    positive_side: bool = True
    scan_axis: int = 0


class ParabolaEstimator:
    """Quadratic phase-profile fit; position is in the scan frame."""

    name = "parabola"

    def __init__(self, config: ParabolaConfig) -> None:
        self.config = config

    def estimate(self, request: EstimationRequest) -> EstimationReport:
        """Fit the (mask-filtered) profile along ``scan_axis``."""
        request.require("positions", "phases_rad")
        positions, phases = _masked(request, request.positions, request.phases_rad)
        result = _locate_parabola_2d_impl(
            positions[:, self.config.scan_axis],
            phases,
            wavelength_m=self.config.wavelength_m,
            positive_side=self.config.positive_side,
        )
        return build_report(
            self.name,
            self.config,
            result.position,
            diagnostics={
                "curvature": float(result.curvature),
                "rms_residual_rad": float(result.rms_residual_rad),
            },
            raw=result,
        )


@dataclass(frozen=True)
class AngleConfig(EstimatorConfig):
    """Config of the rotating-tag AoA baseline (turntable scans only)."""

    wavelength_m: float = DEFAULT_WAVELENGTH_M
    initial_distance_m: float = 1.0


class AngleEstimator:
    """Rotating-tag AoA fit; position is in the turntable plane frame."""

    name = "angle"

    def __init__(self, config: AngleConfig) -> None:
        self.config = config

    def estimate(self, request: EstimationRequest) -> EstimationReport:
        """Fit azimuth + distance from ``angles_rad`` and ``radius_m``."""
        request.require("angles_rad", "phases_rad", "radius_m")
        angles, phases = _masked(request, request.angles_rad, request.phases_rad)
        result = _locate_rotating_tag_impl(
            angles,
            phases,
            radius_m=request.radius_m,
            wavelength_m=self.config.wavelength_m,
            initial_distance_m=self.config.initial_distance_m,
        )
        return build_report(
            self.name,
            self.config,
            result.position,
            reference_distance_m=float(result.center_distance_m),
            diagnostics={
                "azimuth_rad": float(result.azimuth_rad),
                "converged": bool(result.converged),
            },
            raw=result,
        )


@dataclass(frozen=True)
class HologramConfig(EstimatorConfig):
    """Config of the DAH baseline (mirrors ``DifferentialHologram``)."""

    wavelength_m: float = DEFAULT_WAVELENGTH_M
    grid_size_m: float = 0.001
    augmentation_rounds: int = 1
    chunk_cells: int = 200_000

    def build_hologram(self) -> DifferentialHologram:
        """Construct the configured :class:`DifferentialHologram`."""
        return DifferentialHologram(
            wavelength_m=self.wavelength_m,
            grid_size_m=self.grid_size_m,
            augmentation_rounds=self.augmentation_rounds,
            chunk_cells=self.chunk_cells,
        )


class HologramEstimator:
    """Tagoram-style differential augmented hologram grid search."""

    name = "hologram"

    def __init__(self, config: HologramConfig) -> None:
        self.config = config
        self._hologram = config.build_hologram()

    def estimate(self, request: EstimationRequest) -> EstimationReport:
        """Search ``bounds`` over the (mask-filtered) reads."""
        request.require("positions", "phases_rad", "bounds")
        positions, phases = _masked(request, request.positions, request.phases_rad)
        result = self._hologram.locate(
            positions,
            phases,
            request.bounds,
            reference_index=(
                request.reference_index if request.reference_index is not None else 0
            ),
        )
        return build_report(
            self.name,
            self.config,
            result.position,
            diagnostics={
                "likelihood": float(result.likelihood),
                "cell_count": int(result.cell_count),
                "grid_shape": list(result.grid_shape),
            },
            raw=result,
        )


# ---------------------------------------------------------------------------
# Registrations (exactly one per method)
# ---------------------------------------------------------------------------

register_estimator(
    "lion", LionConfig, LionEstimator,
    summary="batch LION linear localization (paper Sec. IV)",
)
register_estimator(
    "lion-online", OnlineLionConfig, OnlineLionEstimator,
    summary="streaming RLS LION with incremental ingest",
    streaming=True,
)
register_estimator(
    "lion-multiref", MultiRefLionConfig, MultiRefLionEstimator,
    summary="multi-run LION: one reference distance per sweep/hop block",
)
register_estimator(
    "lion-multiantenna", MultiAntennaConfig, MultiAntennaEstimator,
    summary="differential grid search over one phase per antenna (Fig. 20)",
)
register_estimator(
    "lion-adaptive", AdaptiveLionConfig, AdaptiveLionEstimator,
    summary="LION with adaptive (range, interval) selection (Sec. IV-C1)",
)
register_estimator(
    "hyperbola", HyperbolaConfig, HyperbolaEstimator,
    summary="nonlinear hyperbola/TDoA baseline",
)
register_estimator(
    "parabola", ParabolaConfig, ParabolaEstimator,
    summary="parabola phase-profile fit baseline (2D, linear scans)",
)
register_estimator(
    "angle", AngleConfig, AngleEstimator,
    summary="rotating-tag AoA baseline (turntable scans)",
)
register_estimator(
    "hologram", HologramConfig, HologramEstimator,
    summary="Tagoram differential augmented hologram baseline",
)
