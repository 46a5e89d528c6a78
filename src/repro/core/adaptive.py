"""Adaptive parameter selection (paper Sec. IV-C1, evaluated in Sec. V-E).

Scanning range and scanning interval strongly affect accuracy: too small a
range and the phase barely varies (plane-wave regime); too large and
off-beam reads inject noise; too small an interval and the phase difference
drowns in noise. Instead of hand-tuning, LION sweeps a grid of
(range, interval) settings, solves each, and observes that *the weighted
mean residual of good solves sits near zero* — weighting skews the mean
residual away from zero exactly when the data is dirty. The scheme keeps
the estimates whose |mean residual| is smallest and averages them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.localizer import (
    DegenerateGeometryError,
    LionLocalizer,
    LocalizationResult,
    TooFewReadsError,
)
from repro.core.sweep import fused_sweep
from repro.obs import (
    RESIDUAL_BUCKETS_M,
    get_registry,
    metrics_enabled,
    span,
)


@dataclass(frozen=True)
class ParameterGrid:
    """The (scanning range, scanning interval) sweep grid.

    Attributes:
        ranges_m: candidate scanning-range widths (paper: 0.6-1.1 m).
        intervals_m: candidate scanning intervals (paper: 0.10-0.35 m).
        axis: coordinate along which the range window applies (0 = x).
        center: center of the range window along that axis.
    """

    ranges_m: Sequence[float] = (0.6, 0.7, 0.8, 0.9, 1.0, 1.1)
    intervals_m: Sequence[float] = (0.10, 0.15, 0.20, 0.25, 0.30, 0.35)
    axis: int = 0
    center: float = 0.0

    def __post_init__(self) -> None:
        if not self.ranges_m or not self.intervals_m:
            raise ValueError("grid must contain at least one range and one interval")
        if any(r <= 0.0 for r in self.ranges_m):
            raise ValueError("scanning ranges must be positive")
        if any(i <= 0.0 for i in self.intervals_m):
            raise ValueError("scanning intervals must be positive")


@dataclass(frozen=True)
class ConfigOutcome:
    """One grid point's solve."""

    range_m: float
    interval_m: float
    result: LocalizationResult

    @property
    def abs_mean_residual(self) -> float:
        """|weighted mean normalized residual| — the paper's criterion."""
        return abs(self.result.mean_residual)

    @property
    def mean_abs_residual(self) -> float:
        """Mean |normalized residual| — a direct data-dirtiness measure."""
        return self.result.solution.mean_abs_residual


@dataclass(frozen=True)
class CellRejection:
    """A grid cell that could not produce a solve, with the reason why.

    Reasons are coarse, stable categories (usable as metric labels):
    ``"too_few_reads"`` (the range window left < 3 reads),
    ``"degenerate_geometry"`` (unobservable/unsolvable configuration),
    and ``"solve_error"`` (any other :class:`ValueError` from the solve).
    """

    range_m: float
    interval_m: float
    reason: str


def _classify_rejection(error: ValueError) -> str:
    """Map a localization ``ValueError`` to a stable reason label.

    The localizer raises typed exceptions
    (:class:`repro.core.localizer.TooFewReadsError`,
    :class:`repro.core.localizer.DegenerateGeometryError`) for the two
    structured failure modes; anything else is a generic solve error.
    The labels are unchanged — dashboards keyed on them keep working.
    """
    if isinstance(error, TooFewReadsError):
        return "too_few_reads"
    if isinstance(error, DegenerateGeometryError):
        return "degenerate_geometry"
    return "solve_error"


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of the adaptive sweep.

    Attributes:
        position: average position of the selected estimates.
        reference_distance_m: average ``d_r`` of the selected estimates.
        outcomes: every grid point's solve, in sweep order.
        selected: indices into ``outcomes`` that passed selection.
    """

    position: np.ndarray
    reference_distance_m: float
    outcomes: List[ConfigOutcome] = field(default_factory=list)
    selected: List[int] = field(default_factory=list)

    @property
    def best_outcome(self) -> ConfigOutcome:
        """The single grid point with the smallest |mean residual|."""
        return min(self.outcomes, key=lambda o: o.abs_mean_residual)


def _fused_cells(
    localizer: LionLocalizer,
    points: np.ndarray,
    profile: np.ndarray,
    segments: np.ndarray | None,
    excludes: np.ndarray,
    cells: List[Tuple[float, float, int]],
) -> List[ConfigOutcome | CellRejection]:
    """Solve every grid cell through the fused engine of :mod:`repro.core.sweep`.

    Returns one slot per cell, in sweep order: the cell's outcome, or a
    :class:`CellRejection` carrying the reason its solve failed.
    """
    wrapped: List[ConfigOutcome | CellRejection] = []
    for (range_m, interval_m, _), result in zip(
        cells, fused_sweep(localizer, points, profile, segments, excludes, cells)
    ):
        if isinstance(result, ValueError):
            wrapped.append(
                CellRejection(range_m, interval_m, _classify_rejection(result))
            )
        else:
            wrapped.append(ConfigOutcome(range_m, interval_m, result))
    return wrapped


def _adaptive_localize_impl(
    localizer: LionLocalizer,
    positions: np.ndarray,
    wrapped_phase_rad: np.ndarray,
    grid: ParameterGrid | None = None,
    segment_ids: np.ndarray | None = None,
    exclude_mask: np.ndarray | None = None,
    selection_quantile: float = 0.25,
    criterion: str = "abs_mean",
) -> AdaptiveResult:
    """Run the localizer over the parameter grid and fuse the cleanest solves.

    The wrapped profile is preprocessed (unwrapped + smoothed) exactly
    once — preprocessing does not depend on the grid point — and the
    per-cell window masks for every scanning range are built in one
    vectorized pass. The grid is solved through the fused engine of
    :mod:`repro.core.sweep`: one preparation per range window, cached
    pair selection, and a single batch IRLS solve — bit-identical to
    calling ``localizer.locate`` once per cell, only faster.

    Args:
        localizer: a configured :class:`LionLocalizer`.
        positions: scan positions, shape ``(n, 2)`` or ``(n, 3)``.
        wrapped_phase_rad: wrapped phases, shape ``(n,)``.
        grid: the sweep grid; defaults to the paper's evaluation ranges.
        segment_ids: optional per-read sweep ids (forwarded to the localizer).
        exclude_mask: reads excluded a priori (e.g. transit reads); the
            range window adds further exclusions per grid point.
        selection_quantile: fraction of grid points (by the criterion)
            whose estimates are averaged. The minimum-residual point is
            always included.
        criterion: ``"abs_mean"`` ranks by |weighted mean normalized
            residual| (the paper's description); ``"mean_abs"`` ranks by
            mean |normalized residual| (a direct dirtiness measure).

    Raises:
        ValueError: if every grid point fails to produce a solve or the
            criterion is unknown.
    """
    if grid is None:
        grid = ParameterGrid()
    if not 0.0 < selection_quantile <= 1.0:
        raise ValueError(f"selection_quantile must be in (0, 1], got {selection_quantile}")
    if criterion not in ("abs_mean", "mean_abs"):
        raise ValueError(f"unknown criterion {criterion!r}")

    points = np.asarray(positions, dtype=float)
    base_exclude = (
        np.asarray(exclude_mask, dtype=bool)
        if exclude_mask is not None
        else np.zeros(points.shape[0], dtype=bool)
    )
    segments = np.asarray(segment_ids, dtype=int) if segment_ids is not None else None
    profile = localizer.preprocess_phase(
        np.asarray(wrapped_phase_rad, dtype=float), segment_ids=segments
    )

    # All range windows at once: (ranges, reads) broadcast of the
    # |coordinate - center| > range/2 test, OR-ed with the a-priori mask.
    ranges = np.asarray(grid.ranges_m, dtype=float)
    offsets = np.abs(points[:, grid.axis] - grid.center)
    excludes = base_exclude[np.newaxis, :] | (offsets[np.newaxis, :] > ranges[:, np.newaxis] / 2.0)

    cells: List[Tuple[float, float, int]] = [
        (float(range_m), float(interval_m), row)
        for row, range_m in enumerate(grid.ranges_m)
        for interval_m in grid.intervals_m
        if interval_m < range_m
    ]
    grid_size = len(grid.ranges_m) * len(grid.intervals_m)

    with span("adaptive_sweep", cells=len(cells), criterion=criterion):
        raw = _fused_cells(localizer, points, profile, segments, excludes, cells)
    outcomes = [result for result in raw if isinstance(result, ConfigOutcome)]
    rejections = [result for result in raw if isinstance(result, CellRejection)]

    if metrics_enabled():
        registry = get_registry()
        registry.counter("adaptive.cells_total", outcome="accepted").inc(len(outcomes))
        registry.counter(
            "adaptive.cells_total", outcome="skipped", reason="interval_ge_range"
        ).inc(grid_size - len(cells))
        for rejection in rejections:
            registry.counter(
                "adaptive.cells_total", outcome="rejected", reason=rejection.reason
            ).inc()
        score_histogram = registry.histogram(
            "adaptive.abs_mean_residual", buckets=RESIDUAL_BUCKETS_M
        )
        for outcome in outcomes:
            score_histogram.observe(outcome.abs_mean_residual)

    if not outcomes:
        raise ValueError("no grid configuration produced a valid localization")

    scores = [
        o.abs_mean_residual if criterion == "abs_mean" else o.mean_abs_residual
        for o in outcomes
    ]
    order = np.argsort(scores)
    keep = max(int(np.ceil(selection_quantile * len(outcomes))), 1)
    selected = [int(i) for i in order[:keep]]
    if metrics_enabled():
        get_registry().counter("adaptive.cells_selected_total").inc(len(selected))
    stacked = np.vstack([outcomes[i].result.position for i in selected])
    distances = np.array([outcomes[i].result.reference_distance_m for i in selected])
    return AdaptiveResult(
        position=stacked.mean(axis=0),
        reference_distance_m=float(distances.mean()),
        outcomes=outcomes,
        selected=selected,
    )
