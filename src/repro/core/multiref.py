"""Multi-reference radical systems: several scans, one target.

The base model (Eq. 7/9) carries *one* unknown reference distance ``d_r``
because the whole scan is one continuous phase profile. Two practical
situations break that assumption:

* **separate sweeps** — the Fig. 11 lines scanned as independent passes
  (no transit moves): each sweep's unwrapped profile floats on its own
  datum, so phase differences *across* sweeps are meaningless without the
  stitching trick;
* **frequency blocks** — a hopping reader dwells on one channel per block;
  phases on different channels are not mutually comparable (different
  wavelength *and* channel-dependent hardware offset).

Both are handled by giving every *run* its own reference unknown. With
runs ``1..R`` the unknown vector becomes ``[x, y, (z,) d_r1, ..., d_rR]``
and a pair of reads within run ``k`` contributes::

    2(p_i - p_j)·p + 2(Δd_i - Δd_j)·d_rk = ‖p_i‖² - ‖p_j‖² - Δd_i² + Δd_j²

exactly Eq. (7)/(9) with the ``d_r`` coefficient placed in run ``k``'s
column. The target couples the runs; no cross-run pairs (and hence no
phase stitching) are needed. Per-run wavelengths are supported, so a
frequency-hopped scan localizes without ever comparing phases across
channels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH_M
from repro.core.pairing import spacing_pairs
from repro.core.radical import AssemblyRecipe
from repro.core.system import delta_distances
from repro.core.weights import gaussian_residual_weights
from repro.signalproc.smoothing import smooth_phase_profile
from repro.signalproc.unwrap import unwrap_phase

Pair = Tuple[int, int]


@dataclass(frozen=True)
class MultiReferenceSystem:
    """A radical system with one reference-distance column per run.

    Attributes:
        matrix: shape ``(m, dim + run_count)``.
        rhs: shape ``(m,)``.
        dim: spatial dimension (2 or 3).
        run_ids: the distinct run labels, in column order.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    dim: int
    run_ids: Tuple[int, ...]

    @property
    def run_count(self) -> int:
        """Number of independent phase runs."""
        return len(self.run_ids)

    @property
    def equation_count(self) -> int:
        """Number of radical equations."""
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class MultiReferenceSolution:
    """Solution of a multi-reference system.

    Attributes:
        position: estimated target, shape ``(dim,)``.
        reference_distances: per-run ``d_r`` estimates, keyed by run id.
        residuals: final per-equation residuals.
        weights: final per-equation weights.
        iterations: WLS re-weighting rounds performed.
    """

    position: np.ndarray
    reference_distances: Dict[int, float]
    residuals: np.ndarray
    weights: np.ndarray
    iterations: int


def build_multireference_system(
    positions: np.ndarray,
    delta_d: np.ndarray,
    run_ids: np.ndarray,
    pairs: Sequence[Pair],
    dim: int | None = None,
) -> MultiReferenceSystem:
    """Assemble the system from per-read delta distances and run labels.

    ``delta_d[i]`` must be relative to *its own run's* reference read —
    use :func:`delta_distances` per run (or the ``"lion-multiref"``
    estimator which does all of this). Every pair must stay within one
    run.

    Raises:
        ValueError: on shape mismatches, cross-run pairs, coincident pair
            positions, or an invalid dimension.
    """
    points = np.asarray(positions, dtype=float)
    deltas = np.asarray(delta_d, dtype=float)
    runs = np.asarray(run_ids, dtype=int)
    if points.ndim != 2 or points.shape[1] not in (2, 3):
        raise ValueError(f"positions must be (n, 2) or (n, 3), got {points.shape}")
    n = points.shape[0]
    if deltas.shape != (n,) or runs.shape != (n,):
        raise ValueError("delta_d and run_ids must match positions length")
    if dim is None:
        dim = points.shape[1]
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    recipe = AssemblyRecipe(pairs, points, dim)
    run_i = runs[recipe.index_i]
    if np.any(run_i != runs[recipe.index_j]):
        raise ValueError("pairs must not cross runs (phase data are not comparable)")

    # The single-reference rows, with each row's d_r coefficient moved to
    # its run's column.
    rows = recipe.assemble(deltas)
    distinct = np.unique(runs)
    matrix = np.zeros((rows.equation_count, dim + distinct.size))
    matrix[:, :dim] = rows.matrix[:, :dim]
    matrix[np.arange(rows.equation_count), dim + np.searchsorted(distinct, run_i)] = (
        rows.matrix[:, dim]
    )
    return MultiReferenceSystem(
        matrix=matrix, rhs=rows.rhs, dim=dim, run_ids=tuple(int(v) for v in distinct)
    )


def solve_multireference(
    system: MultiReferenceSystem,
    weighted: bool = True,
    max_iterations: int = 20,
    tolerance_m: float = 1e-6,
) -> MultiReferenceSolution:
    """(Weighted) least squares over the multi-reference unknowns.

    Raises:
        ValueError: on an empty system or bad iteration parameters.
    """
    if system.equation_count == 0:
        raise ValueError("cannot solve an empty system")
    if max_iterations <= 0 or tolerance_m <= 0.0:
        raise ValueError("iteration parameters must be positive")

    weights = np.ones(system.equation_count)

    def solve(w: np.ndarray) -> np.ndarray:
        root = np.sqrt(w)
        estimate, *_ = np.linalg.lstsq(
            system.matrix * root[:, np.newaxis], system.rhs * root, rcond=None
        )
        return estimate

    estimate = solve(weights)
    iterations = 0
    if weighted:
        for iterations in range(1, max_iterations + 1):
            residuals = system.matrix @ estimate - system.rhs
            weights = gaussian_residual_weights(residuals)
            updated = solve(weights)
            step = float(np.linalg.norm(updated - estimate))
            estimate = updated
            if step < tolerance_m:
                break
    residuals = system.matrix @ estimate - system.rhs
    references = {
        run: float(estimate[system.dim + index])
        for index, run in enumerate(system.run_ids)
    }
    return MultiReferenceSolution(
        position=estimate[: system.dim].copy(),
        reference_distances=references,
        residuals=residuals,
        weights=weights,
        iterations=iterations,
    )


def _locate_multireference_impl(
    positions: np.ndarray,
    wrapped_phase_rad: np.ndarray,
    run_ids: np.ndarray,
    dim: int = 3,
    interval_m: float = 0.25,
    wavelengths_m: "Dict[int, float] | float" = DEFAULT_WAVELENGTH_M,
    smoothing_window: int = 9,
    weighted: bool = True,
    positive_side: bool = True,
) -> MultiReferenceSolution:
    """End-to-end multi-run localization from wrapped phases.

    Per run: unwrap (runs are assumed internally continuous), smooth,
    convert to delta distances against the run's middle read, and emit
    spacing pairs. No stitching, no transit reads, no cross-run phase
    comparison — the runs are tied together only through the shared
    target coordinates.

    Args:
        positions: all reads' positions, shape ``(n, 2)`` or ``(n, 3)``.
        wrapped_phase_rad: all reads' wrapped phases, shape ``(n,)``,
            time-ordered within each run.
        run_ids: per-read run labels (sweep index, hop-block index, ...).
        dim: answer dimension. The combined scan geometry must excite all
            ``dim`` coordinates (no lower-dimension recovery here).
        interval_m: pair spacing within each run.
        wavelengths_m: a single wavelength, or a mapping run id ->
            wavelength for frequency-hopped scans.
        smoothing_window: per-run moving-average window (1 disables).
        weighted: use the Gaussian-residual WLS (default) or plain LS.
        positive_side: deployment prior used when an unobserved
            coordinate must be recovered from a single reference sphere
            (collinear reference geometry), as in
            :func:`repro.core.lowerdim.recover_coordinate_from_reference`.

    Raises:
        ValueError: on shape errors, a run too short to pair, or an
            unknown run's wavelength.
    """
    points = np.asarray(positions, dtype=float)
    phases = np.asarray(wrapped_phase_rad, dtype=float)
    runs = np.asarray(run_ids, dtype=int)
    if points.ndim != 2 or phases.shape != (points.shape[0],) or runs.shape != phases.shape:
        raise ValueError("positions, phases and run_ids must align")

    work_points = points[:, :dim] if dim <= points.shape[1] else np.hstack(
        [points, np.zeros((points.shape[0], dim - points.shape[1]))]
    )
    deltas = np.zeros(points.shape[0])
    pairs: List[Pair] = []
    for run in (int(v) for v in np.unique(runs)):
        members = np.flatnonzero(runs == run)
        if members.size < 3:
            raise ValueError(f"run {run} has too few reads ({members.size})")
        if isinstance(wavelengths_m, dict):
            if run not in wavelengths_m:
                raise ValueError(f"no wavelength given for run {run}")
            wavelength = wavelengths_m[run]
        else:
            wavelength = float(wavelengths_m)
        profile = unwrap_phase(phases[members])
        if smoothing_window > 1:
            profile = smooth_phase_profile(profile, smoothing_window)
        deltas[members] = delta_distances(profile, members.size // 2, wavelength)
        local_pairs = spacing_pairs(work_points[members], interval_m)
        pairs += [(int(members[i]), int(members[j])) for i, j in local_pairs]

    system = build_multireference_system(work_points, deltas, runs, pairs, dim=dim)
    solution = solve_multireference(system, weighted=weighted)

    # Parallel sweeps leave the coordinates orthogonal to every run's
    # direction unobserved by the within-run rows (their columns are
    # zero). The per-run reference distances recover them: each run's
    # d_rk is the absolute distance to a *known* reference point, and the
    # radical rows between those reference spheres are linear in the
    # target with no extra unknowns.
    excitation = np.sqrt(np.mean(system.matrix[:, :dim] ** 2, axis=0))
    unobserved = excitation < 1e-9 * max(float(excitation.max()), 1.0)
    if np.any(unobserved):
        reference_points = []
        reference_distances = []
        for run in system.run_ids:
            members = np.flatnonzero(runs == run)
            reference_points.append(work_points[members[members.size // 2]])
            reference_distances.append(solution.reference_distances[run])
        try:
            refined = _refine_with_references(
                solution.position,
                ~unobserved,
                np.vstack(reference_points),
                np.asarray(reference_distances),
            )
        except ValueError:
            # Collinear references cannot trilaterate (e.g. hop blocks on
            # one straight sweep): fall back to the single-sphere square-
            # root recovery with the deployment prior, as in the base
            # lower-dimension path (Sec. III-C).
            dead_axes = np.flatnonzero(unobserved)
            if dead_axes.size != 1:
                raise
            from repro.core.lowerdim import recover_coordinate_from_reference

            recovery = recover_coordinate_from_reference(
                solution.position,
                int(dead_axes[0]),
                max(reference_distances[0], 0.0),
                reference_points[0],
                positive_side=positive_side,
            )
            refined = recovery.position
        solution = MultiReferenceSolution(
            position=refined,
            reference_distances=solution.reference_distances,
            residuals=solution.residuals,
            weights=solution.weights,
            iterations=solution.iterations,
        )
    return solution


def _refine_with_references(
    position: np.ndarray,
    observed_mask: np.ndarray,
    reference_points: np.ndarray,
    reference_distances: np.ndarray,
) -> np.ndarray:
    """Fill unobserved coordinates via reference-sphere radical rows.

    Solves the linear system combining (a) radical rows between the
    reference spheres ``|p - ref_k| = d_rk`` — pairwise differences cancel
    the quadratic target terms — and (b) identity rows pinning the
    already-observed coordinates to their first-stage estimates.

    Raises:
        ValueError: if the combined system still cannot determine the
            target (e.g. all reference points collinear with the
            unobserved plane).
    """
    dim = position.shape[0]
    rows: List[np.ndarray] = []
    rhs: List[float] = []
    count = reference_points.shape[0]
    for i in range(count):
        for j in range(i + 1, count):
            difference = reference_points[i] - reference_points[j]
            if np.linalg.norm(difference) < 1e-12:
                continue
            rows.append(2.0 * difference)
            rhs.append(
                float(
                    reference_points[i] @ reference_points[i]
                    - reference_points[j] @ reference_points[j]
                    - reference_distances[i] ** 2
                    + reference_distances[j] ** 2
                )
            )
    # Pin observed coordinates strongly (they carry far more data than the
    # handful of reference rows).
    anchor_weight = 1e3
    for axis in np.flatnonzero(observed_mask):
        row = np.zeros(dim)
        row[axis] = anchor_weight
        rows.append(row)
        rhs.append(anchor_weight * float(position[axis]))
    matrix = np.vstack(rows)
    vector = np.asarray(rhs)
    if np.linalg.matrix_rank(matrix) < dim:
        raise ValueError(
            "reference geometry cannot determine the unobserved coordinates "
            "(reference points do not span them)"
        )
    refined, *_ = np.linalg.lstsq(matrix, vector, rcond=None)
    return refined


def locate_multireference(
    positions: np.ndarray,
    wrapped_phase_rad: np.ndarray,
    run_ids: np.ndarray,
    dim: int = 3,
    interval_m: float = 0.25,
    wavelengths_m: "Dict[int, float] | float" = DEFAULT_WAVELENGTH_M,
    smoothing_window: int = 9,
    weighted: bool = True,
    positive_side: bool = True,
) -> MultiReferenceSolution:
    """Deprecated entry point for multi-run localization.

    Use the ``"lion-multiref"`` estimator from :mod:`repro.pipeline`
    instead; this shim forwards through the registry (identical results)
    and will be removed once downstream callers have migrated. See
    :func:`_locate_multireference_impl` for the algorithm and argument
    documentation.
    """
    warnings.warn(
        "locate_multireference() is deprecated; use "
        "repro.pipeline.estimate('lion-multiref', request, config) instead",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro import pipeline

    config = pipeline.MultiRefLionConfig(
        dim=dim,
        interval_m=interval_m,
        wavelength_m=(
            DEFAULT_WAVELENGTH_M
            if isinstance(wavelengths_m, dict)
            else float(wavelengths_m)
        ),
        wavelengths_by_run=wavelengths_m if isinstance(wavelengths_m, dict) else None,
        smoothing_window=smoothing_window,
        weighted=weighted,
        positive_side=positive_side,
    )
    request = pipeline.EstimationRequest(
        positions=positions, phases_rad=wrapped_phase_rad, run_ids=run_ids
    )
    return pipeline.estimate("lion-multiref", request, config).raw
