"""High-level LION localizer: wrapped phases in, position out.

:class:`LionLocalizer` wires the whole Sec. IV pipeline together:
preprocessing (unwrap + smooth), Eq. (6) distance differences, pair
selection, system assembly, the (weighted) least-squares solve, and
lower-dimension coordinate recovery. It is symmetric in who moves: give it
tag positions to locate an antenna (calibration), or antenna-relative
positions to locate a tag (the conveyor and turntable applications).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence, Tuple

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH_M
from repro.core.lowerdim import (
    RecoveryResult,
    detect_missing_axis,
    recover_coordinate_from_reference,
)
from repro.core.pairing import lag_pairs, spacing_pairs, three_line_pairs
from repro.core.radical import AssemblyRecipe, LinearSystem
from repro.core.solvers import (
    Solution,
    solve_least_squares,
    solve_weighted_least_squares,
)
from repro.core.system import delta_distances
from repro.core.weights import gaussian_residual_weights
from repro.geometry.transforms import to_line_frame_2d
from repro.obs import span, tracing_enabled
from repro.signalproc.smoothing import hampel_filter, smooth_phase_profile
from repro.signalproc.unwrap import unwrap_phase

Method = Literal["wls", "ls"]


class TooFewReadsError(ValueError):
    """A scan (or its exclusion mask) leaves fewer than three usable reads.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    callers keep working; the adaptive sweep maps it to the stable
    ``"too_few_reads"`` rejection label.
    """


class DegenerateGeometryError(ValueError):
    """The scan geometry cannot observe a position of the requested dim.

    Raised for the Sec. III-C unsolvable cases (e.g. a single straight
    line for a 3D target). Subclasses :class:`ValueError`; the adaptive
    sweep maps it to the stable ``"degenerate_geometry"`` label.
    """


@dataclass(frozen=True)
class PreprocessConfig:
    """Signal preprocessing knobs (paper Sec. IV-A).

    Attributes:
        smoothing_window: moving-average window in samples (1 disables).
        jump_threshold_rad: unwrap jump threshold; ``pi`` per the paper.
        hampel_window: when positive, apply Hampel outlier rejection of
            this window before smoothing (multipath spike removal).
    """

    smoothing_window: int = 9
    jump_threshold_rad: float = float(np.pi)
    hampel_window: int = 0


@dataclass(frozen=True)
class LocalizationResult:
    """Full output of one localization run.

    Attributes:
        position: estimated target position, shape ``(dim,)``, meters.
        reference_distance_m: estimated ``d_r``.
        solution: the underlying least-squares solution (residuals,
            weights, iteration count).
        system: the assembled linear system (for diagnostics).
        recovered_axis: index of the coordinate recovered from ``d_r``
            via the lower-dimension path, or ``None``.
        recovery: details of that recovery (both candidates), or ``None``.
        reference_position: the tag position used as Eq. (6) reference.
    """

    position: np.ndarray
    reference_distance_m: float
    solution: Solution
    system: LinearSystem
    recovered_axis: int | None
    recovery: RecoveryResult | None
    reference_position: np.ndarray

    @property
    def mean_residual(self) -> float:
        """Weighted mean residual of the final solve (adaptive-selection signal)."""
        return self.solution.mean_residual


@dataclass(frozen=True)
class PreparedScan:
    """A scan reduced to its solve-ready, pairing-independent pieces.

    A :class:`ScanTemplate` (the geometry step of
    :meth:`LionLocalizer.prepare`) completed by the phase step: the
    masked preprocessed profile and its Eq. (6) distance differences.
    Nothing here depends on the pairing interval, which is what lets the
    fused adaptive sweep (:mod:`repro.core.sweep`) prepare each distinct
    range window once and reuse it across every interval.

    Attributes:
        solve_points: included positions in the solve frame (rotated for
            collinear 2D scans, cross coordinate exactly 0), shape
            ``(k, dim)``.
        used_profile: preprocessed phases of the included reads.
        used_segments: segment ids of the included reads, or ``None``.
        reference_index: Eq. (6) reference, index into included reads.
        missing_axis: axis to recover via ``d_r``, or ``None``.
        rotation / frame_origin: the 2D line-frame transform, or ``None``.
        delta_d: Eq. (6) distance differences of the included reads.
    """

    solve_points: np.ndarray
    used_profile: np.ndarray
    used_segments: np.ndarray | None
    reference_index: int
    missing_axis: int | None
    rotation: np.ndarray | None
    frame_origin: np.ndarray | None
    delta_d: np.ndarray


@dataclass(frozen=True)
class ScanTemplate:
    """The geometry step's output: every phase-independent part of a scan.

    Built by :meth:`LionLocalizer.scan_template` from the positions,
    segment ids, exclusion mask, reference override and the localizer's
    dimension alone, validated once. The include-index vector maps a
    full-scan profile onto the masked reads. One template serves every
    scan that re-reads the same trajectory with fresh phases, which is
    what the batched serve path caches.

    The arrays are shared, never copied, across the prepared scans built
    from one template; callers must treat prepared fields as immutable
    (nothing downstream mutates a prepared scan).
    """

    n_reads: int
    include_indices: np.ndarray
    solve_points: np.ndarray
    used_segments: np.ndarray | None
    reference_index: int
    missing_axis: int | None
    rotation: np.ndarray | None
    frame_origin: np.ndarray | None

    def complete(self, used_profile: np.ndarray, delta_d: np.ndarray) -> PreparedScan:
        """Pair the geometry with one scan's phase-dependent pieces."""
        return PreparedScan(
            solve_points=self.solve_points,
            used_profile=used_profile,
            used_segments=self.used_segments,
            reference_index=self.reference_index,
            missing_axis=self.missing_axis,
            rotation=self.rotation,
            frame_origin=self.frame_origin,
            delta_d=delta_d,
        )


@dataclass
class LionLocalizer:
    """Configurable LION pipeline.

    Attributes:
        dim: spatial dimension of the answer, 2 or 3.
        wavelength_m: carrier wavelength.
        method: ``"wls"`` (paper default) or ``"ls"``.
        interval_m: default scanning interval (pair spacing), meters.
        positive_side: deployment prior for lower-dimension recovery —
            whether the target lies on the positive side of the scan along
            the unobserved axis.
        preprocess: signal preprocessing configuration.
        max_iterations / tolerance_m: WLS iteration control.
    """

    dim: int = 2
    wavelength_m: float = DEFAULT_WAVELENGTH_M
    method: Method = "wls"
    interval_m: float = 0.25
    positive_side: bool = True
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    max_iterations: int = 20
    tolerance_m: float = 1e-6

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.wavelength_m <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.method not in ("wls", "ls"):
            raise ValueError(f"method must be 'wls' or 'ls', got {self.method!r}")
        if self.interval_m <= 0.0:
            raise ValueError("interval must be positive")

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    def preprocess_phase(
        self,
        wrapped_phase_rad: np.ndarray,
        segment_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Unwrap and smooth a continuous wrapped-phase profile.

        Unwrapping runs over the whole profile (the scan is continuous,
        transits included); smoothing and outlier rejection run *per
        segment* — a moving average across a trajectory corner would mix
        reads with discontinuous phase slope and bias the profile there.
        """
        profile = unwrap_phase(
            np.asarray(wrapped_phase_rad, dtype=float),
            self.preprocess.jump_threshold_rad,
        )
        if segment_ids is None:
            runs = [np.arange(profile.shape[0])]
        else:
            ids = np.asarray(segment_ids, dtype=int)
            boundaries = np.flatnonzero(np.diff(ids) != 0) + 1
            runs = np.split(np.arange(profile.shape[0]), boundaries)
        for run in runs:
            if run.size == 0:
                continue
            chunk = profile[run]
            if self.preprocess.hampel_window > 1:
                chunk, _ = hampel_filter(chunk, self.preprocess.hampel_window)
            if self.preprocess.smoothing_window > 1:
                chunk = smooth_phase_profile(chunk, self.preprocess.smoothing_window)
            profile[run] = chunk
        return profile

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def locate(
        self,
        positions: np.ndarray,
        wrapped_phase_rad: np.ndarray,
        segment_ids: np.ndarray | None = None,
        exclude_mask: np.ndarray | None = None,
        pairs: Sequence[Tuple[int, int]] | None = None,
        interval_m: float | None = None,
        reference_index: int | None = None,
        assume_preprocessed: bool = False,
    ) -> LocalizationResult:
        """Locate the target from one continuous scan (traced as ``locate``)."""
        if not tracing_enabled():
            return self._locate_impl(
                positions,
                wrapped_phase_rad,
                segment_ids=segment_ids,
                exclude_mask=exclude_mask,
                pairs=pairs,
                interval_m=interval_m,
                reference_index=reference_index,
                assume_preprocessed=assume_preprocessed,
            )
        with span("locate", dim=self.dim, method=self.method):
            return self._locate_impl(
                positions,
                wrapped_phase_rad,
                segment_ids=segment_ids,
                exclude_mask=exclude_mask,
                pairs=pairs,
                interval_m=interval_m,
                reference_index=reference_index,
                assume_preprocessed=assume_preprocessed,
            )

    def _locate_impl(
        self,
        positions: np.ndarray,
        wrapped_phase_rad: np.ndarray,
        segment_ids: np.ndarray | None = None,
        exclude_mask: np.ndarray | None = None,
        pairs: Sequence[Tuple[int, int]] | None = None,
        interval_m: float | None = None,
        reference_index: int | None = None,
        assume_preprocessed: bool = False,
    ) -> LocalizationResult:
        """Locate the target from one continuous scan.

        Args:
            positions: known scan positions, shape ``(n, 2)`` or ``(n, 3)``,
                in time order. For ``dim == 2`` a 3-column input uses the
                first two columns (scan and target must share the plane).
            wrapped_phase_rad: reported wrapped phases, shape ``(n,)``, in
                the same time order — assumed *continuously* sampled so the
                whole profile unwraps as one piece (include transit reads
                of multi-line scans; mark them with ``exclude_mask``).
            segment_ids: per-read sweep ids. When exactly three data
                segments are present and ``dim == 3``, the structured
                three-line pairing of Sec. IV-B1 is used automatically.
            exclude_mask: boolean mask of reads to keep for unwrapping but
                exclude from equations (transit reads, out-of-range reads).
            pairs: explicit pair selection (indices into the *included*
                reads); overrides automatic pairing.
            interval_m: scanning interval override for this call.
            reference_index: index (into included reads) of the Eq. (6)
                reference; defaults to the middle read, which keeps the
                reference inside the antenna's main beam.
            assume_preprocessed: when True, ``wrapped_phase_rad`` is taken
                to be an already unwrapped and smoothed profile (from
                :meth:`preprocess_phase`) and preprocessing is skipped.
                Preprocessing depends only on the full profile — not on
                the exclusion mask or interval — so callers sweeping many
                configurations over one scan (``repro.core.adaptive``)
                hoist it out of the per-configuration loop.

        Raises:
            TooFewReadsError: when fewer than three (included) reads remain.
            DegenerateGeometryError: on an unobservable geometry (e.g. a
                single straight line for a 3D target).
            ValueError: on shape mismatches or other solve failures.
        """
        prepared = self.prepare(
            positions,
            wrapped_phase_rad,
            segment_ids=segment_ids,
            exclude_mask=exclude_mask,
            reference_index=reference_index,
            assume_preprocessed=assume_preprocessed,
        )
        return self._solve_prepared(prepared, pairs=pairs, interval_m=interval_m)

    def prepare(
        self,
        positions: np.ndarray,
        wrapped_phase_rad: np.ndarray,
        segment_ids: np.ndarray | None = None,
        exclude_mask: np.ndarray | None = None,
        reference_index: int | None = None,
        assume_preprocessed: bool = False,
    ) -> PreparedScan:
        """Validate, preprocess, and reduce one scan to its solve-ready pieces.

        This is exactly the front half of :meth:`locate`: the geometry
        step (:meth:`scan_template`), then the phase checks, phase
        preprocessing and the phase step (:meth:`complete_scan`). Split
        out so batch engines (:mod:`repro.serve`) can run it per request
        and then fuse the remaining pair/assemble/solve work across
        requests. ``locate`` is ``prepare`` + ``_solve_prepared``, so
        results stay bit-identical.

        Copy contract: inputs are never mutated, and the returned
        :class:`PreparedScan` never aliases caller arrays — every array it
        carries is produced by index gathers or arithmetic, both of which
        allocate. ``assume_preprocessed`` therefore uses the caller's
        phase array in place (read-only) instead of defensively copying
        it; sweep engines call this per candidate window, so that copy was
        pure overhead.

        Raises:
            TooFewReadsError / DegenerateGeometryError / ValueError: as on
                :meth:`locate`. Geometry faults are reported before phase
                faults.
        """
        template = self.scan_template(positions, segment_ids, exclude_mask, reference_index)
        phases = np.asarray(wrapped_phase_rad, dtype=float)
        if phases.shape != (template.n_reads,):
            raise ValueError(
                f"phases must have shape ({template.n_reads},), got {phases.shape}"
            )
        if not np.all(np.isfinite(phases)):
            raise ValueError(
                "phases contain non-finite values; filter failed reads upstream"
            )
        if not assume_preprocessed:
            phases = self.preprocess_phase(
                phases,
                segment_ids=np.asarray(segment_ids, dtype=int)
                if segment_ids is not None
                else None,
            )
        return self.complete_scan(template, phases)

    def scan_template(
        self,
        positions: np.ndarray,
        segment_ids: np.ndarray | None = None,
        exclude_mask: np.ndarray | None = None,
        reference_index: int | None = None,
    ) -> ScanTemplate:
        """The geometry step of :meth:`prepare`; no phases involved.

        Validates the positions, applies the mask, picks the Eq. (6)
        reference read and handles degeneracy (missing-axis detection,
        line-frame rotation of a collinear 2D scan). The result depends
        only on the arguments and ``dim``, so callers that see one
        trajectory many times (the serve template cache, the fused
        sweep's range windows) run it once per geometry.

        Raises:
            TooFewReadsError: with fewer than three reads, before or after
                masking.
            DegenerateGeometryError: on an unobservable geometry.
            ValueError: on malformed positions, mask, segment ids or
                reference index.
        """
        points = np.asarray(positions, dtype=float)
        if points.ndim != 2 or points.shape[1] not in (2, 3):
            raise ValueError(f"positions must be (n, 2) or (n, 3), got {points.shape}")
        if points.shape[0] < 3:
            raise TooFewReadsError("need at least three reads to localize")
        if not np.all(np.isfinite(points)):
            raise ValueError("positions contain non-finite values")
        include = np.ones(points.shape[0], dtype=bool)
        if exclude_mask is not None:
            mask = np.asarray(exclude_mask, dtype=bool)
            if mask.shape != include.shape:
                raise ValueError("exclude_mask must match the number of reads")
            include = ~mask
        used_segments = None
        if segment_ids is not None:
            segments = np.asarray(segment_ids, dtype=int)
            if segments.shape != include.shape:
                raise ValueError("segment_ids must match the number of reads")
            used_segments = segments[include]
        if int(np.count_nonzero(include)) < 3:
            raise TooFewReadsError("need at least three included reads")

        used_points = points[include]
        if reference_index is None:
            if used_segments is not None:
                # Middle of the most-populated sweep: keeps the reference
                # read far from trajectory corners, where even symmetric
                # smoothing has reduced support.
                ids, counts = np.unique(used_segments, return_counts=True)
                largest = ids[int(np.argmax(counts))]
                members = np.flatnonzero(used_segments == largest)
                reference_index = int(members[members.size // 2])
            else:
                reference_index = used_points.shape[0] // 2
        if not 0 <= reference_index < used_points.shape[0]:
            raise ValueError("reference index out of range of included reads")

        if self.dim == 2:
            used_points = used_points[:, :2]
        elif used_points.shape[1] == 2:
            used_points = np.hstack([used_points, np.zeros((used_points.shape[0], 1))])

        # Degeneracy handling: find the axis (if any) the scan never moves
        # along; for 2D a non-axis-aligned line is rotated into its frame.
        rotation: np.ndarray | None = None
        frame_origin: np.ndarray | None = None
        solve_points = used_points
        missing_axis = self._detect_degeneracy(used_points)
        if self.dim == 2 and missing_axis is None and self._is_collinear(used_points):
            direction = self._principal_direction(used_points)
            frame_origin = used_points[0].copy()
            solve_points, rotation = to_line_frame_2d(used_points, frame_origin, direction)
            # In the line frame the cross coordinate is rounding noise
            # (~1e-16): left in, the solver would fit that column with a
            # huge coefficient and variance. Zeroed, it is pinned like an
            # axis-aligned line's, and the answer does not depend on the slant.
            solve_points[:, 1] = 0.0
            missing_axis = 1

        return ScanTemplate(
            n_reads=int(points.shape[0]),
            include_indices=np.flatnonzero(include),
            solve_points=solve_points,
            used_segments=used_segments,
            reference_index=reference_index,
            missing_axis=missing_axis,
            rotation=rotation,
            frame_origin=frame_origin,
        )

    def complete_scan(self, template: ScanTemplate, profile: np.ndarray) -> PreparedScan:
        """The phase step of :meth:`prepare`: mask a preprocessed profile, apply Eq. (6).

        ``profile`` is the full-scan preprocessed phase profile, one entry
        per read of the scan ``template`` was built from.
        """
        used_profile = profile[template.include_indices]
        return template.complete(
            used_profile,
            delta_distances(used_profile, template.reference_index, self.wavelength_m),
        )

    def _solve_prepared(
        self,
        prepared: PreparedScan,
        pairs: Sequence[Tuple[int, int]] | None = None,
        interval_m: float | None = None,
        recipe: AssemblyRecipe | None = None,
    ) -> LocalizationResult:
        """Pair, assemble, and solve one prepared scan.

        A caller holding a cached ``recipe`` for this scan's geometry
        (streaming re-solves) passes it instead of ``pairs``/``interval_m``.
        """
        if recipe is None:
            if pairs is None:
                pairs = self._auto_pairs(
                    prepared.solve_points,
                    prepared.used_segments,
                    interval_m or self.interval_m,
                )
            recipe = AssemblyRecipe(pairs, prepared.solve_points, self.dim)
        system = recipe.assemble(prepared.delta_d)
        if self.method == "wls":
            solution = solve_weighted_least_squares(
                system,
                weight_function=gaussian_residual_weights,
                max_iterations=self.max_iterations,
                tolerance_m=self.tolerance_m,
            )
        else:
            solution = solve_least_squares(system)
        return self._finalize_solution(prepared, system, solution)

    def _finalize_solution(
        self, prepared: PreparedScan, system: LinearSystem, solution: Solution
    ) -> LocalizationResult:
        """Recover the missing coordinate and rotate back to world frame."""
        position = solution.position.copy()
        reference_position = prepared.solve_points[prepared.reference_index].copy()
        recovery: RecoveryResult | None = None
        if prepared.missing_axis is not None:
            recovery = recover_coordinate_from_reference(
                position,
                prepared.missing_axis,
                max(solution.reference_distance, 0.0),
                reference_position,
                positive_side=self.positive_side,
            )
            position = recovery.position

        if prepared.rotation is not None and prepared.frame_origin is not None:
            position = prepared.rotation.T @ position + prepared.frame_origin
            reference_position = prepared.rotation.T @ reference_position + prepared.frame_origin

        return LocalizationResult(
            position=position,
            reference_distance_m=solution.reference_distance,
            solution=solution,
            system=system,
            recovered_axis=prepared.missing_axis,
            recovery=recovery,
            reference_position=reference_position,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _detect_degeneracy(self, points: np.ndarray) -> int | None:
        """Missing-axis detection with the Sec. III-C unsolvable case check."""
        try:
            return detect_missing_axis(points, span_threshold_m=1e-6)
        except ValueError as error:
            raise DegenerateGeometryError(
                f"trajectory cannot observe a {self.dim}-D position: {error}"
            ) from error

    @staticmethod
    def _is_collinear(points: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether all 2D points lie on one straight line."""
        centered = points - points.mean(axis=0)
        singular_values = np.linalg.svd(centered, compute_uv=False)
        return bool(singular_values[-1] <= tol * max(singular_values[0], 1.0))

    @staticmethod
    def _principal_direction(points: np.ndarray) -> np.ndarray:
        """Dominant direction of a point cloud (first right singular vector)."""
        centered = points - points.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        return vt[0]

    def _auto_pairs(
        self,
        points: np.ndarray,
        segments: np.ndarray | None,
        interval_m: float,
    ) -> Sequence[Tuple[int, int]]:
        """Pick a pairing strategy from the scan structure."""
        if segments is not None:
            unique_ids = np.unique(segments)
            if self.dim == 3 and unique_ids.size == 3:
                ids = tuple(int(v) for v in unique_ids)
                return three_line_pairs(points, segments, interval_m, line_ids=ids)
            if unique_ids.size > 1:
                # Multi-segment but not the canonical three-line scan: pair
                # within segments at the interval, plus across consecutive
                # segments by matching the sweep coordinate.
                return self._generic_multisegment_pairs(
                    points, segments, interval_m, unique_ids
                )
        try:
            return spacing_pairs(points, interval_m)
        except ValueError:
            # Trajectory shorter than the interval: fall back to widest lag.
            return lag_pairs(points.shape[0], max(points.shape[0] // 2, 1))

    def _generic_multisegment_pairs(
        self,
        points: np.ndarray,
        segments: np.ndarray,
        interval_m: float,
        unique_ids: np.ndarray | None = None,
    ) -> list[Tuple[int, int]]:
        from repro.core.pairing import cross_segment_pairs

        if unique_ids is None:
            unique_ids = np.unique(segments)
        pairs: list[Tuple[int, int]] = []
        unique = [int(v) for v in unique_ids]
        for segment in unique:
            index = np.flatnonzero(segments == segment)
            if index.size < 2:
                continue
            try:
                local = spacing_pairs(points[index], interval_m)
            except ValueError:
                continue
            pairs += [(int(index[i]), int(index[j])) for i, j in local]
        for first, second in zip(unique, unique[1:]):
            pairs += cross_segment_pairs(points, segments, first, second)
        if not pairs:
            raise ValueError("could not build any radical-equation pairs")
        return pairs
