"""Fused adaptive sweep: bitwise equivalence, pairing cache, shared arrays.

The fused engine (:mod:`repro.core.sweep`) must be indistinguishable from
solving each grid cell with its own :meth:`LionLocalizer.locate` down to
the last bit — same positions, same solver trajectories, same rejection
reasons in the same order — in both 2-D and 3-D. These tests pin that
contract against the per-cell reference below.
"""

import numpy as np
import pytest

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.adaptive import (
    ParameterGrid,
    _adaptive_localize_impl,
    _classify_rejection,
    _fused_cells,
    CellRejection,
    ConfigOutcome,
)
from repro.core.localizer import (
    DegenerateGeometryError,
    LionLocalizer,
    PreprocessConfig,
    TooFewReadsError,
)
from repro.core.sweep import clear_pair_cache, pair_cache_info
from repro.parallel import SharedArrayBundle, attach_shared_arrays
from repro.trajectory.raster import RasterScan


def _line_scan(target, seed=0, n=400, half=1.0, noise_std=0.08):
    rng = np.random.default_rng(seed)
    x = np.linspace(-half, half, n)
    positions = np.stack([x, np.zeros_like(x)], axis=1)
    distances = np.linalg.norm(positions - target[np.newaxis, :], axis=1)
    phases = 2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances + 0.4
    phases = phases + rng.normal(0.0, noise_std, size=n)
    return positions, np.mod(phases, TWO_PI), None, None


def _raster_scan(target, seed=0, noise_std=0.05):
    scan_path = RasterScan(-0.5, 0.5, row_start=-0.4, row_count=5, row_spacing=0.1)
    samples = scan_path.sample(speed_mps=0.1, read_rate_hz=30.0)
    rng = np.random.default_rng(seed)
    distances = np.linalg.norm(samples.positions - target[np.newaxis, :], axis=1)
    phases = 2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances + 0.5
    phases = phases + rng.normal(0.0, noise_std, size=distances.size)
    return (
        samples.positions,
        np.mod(phases, TWO_PI),
        samples.segment_ids,
        scan_path.transit_mask(samples),
    )


def _scenario(name):
    if name == "line2d":
        positions, phases, segments, mask = _line_scan(np.array([0.05, 0.85]), seed=3)
        localizer = LionLocalizer(dim=2)
    else:
        positions, phases, segments, mask = _raster_scan(np.array([0.1, 0.8, 0.15]))
        localizer = LionLocalizer(dim=3, preprocess=PreprocessConfig(smoothing_window=5))
    return localizer, positions, phases, segments, mask


def _sweep_inputs(localizer, positions, phases, segments, mask, grid):
    """The profile, range-window masks and cells the sweep solves."""
    profile = localizer.preprocess_phase(phases, segment_ids=segments)
    base = mask if mask is not None else np.zeros(len(positions), dtype=bool)
    offsets = np.abs(positions[:, grid.axis] - grid.center)
    ranges = np.asarray(grid.ranges_m)
    excludes = base[np.newaxis, :] | (offsets[np.newaxis, :] > ranges[:, np.newaxis] / 2.0)
    cells = [
        (float(range_m), float(interval_m), row)
        for row, range_m in enumerate(grid.ranges_m)
        for interval_m in grid.intervals_m
        if interval_m < range_m
    ]
    return profile, excludes, cells


def _per_cell_reference(localizer, positions, profile, segments, excludes, cells):
    """One ``locate()`` per cell: the answers the fused engine must match."""
    results = []
    for range_m, interval_m, row in cells:
        try:
            result = localizer.locate(
                positions,
                profile,
                segment_ids=segments,
                exclude_mask=excludes[row],
                interval_m=interval_m,
                assume_preprocessed=True,
            )
        except ValueError as error:
            results.append(CellRejection(range_m, interval_m, _classify_rejection(error)))
        else:
            results.append(ConfigOutcome(range_m, interval_m, result))
    return results


class TestFusedEquivalence:
    @pytest.mark.parametrize("scenario", ("line2d", "raster3d"))
    def test_bitwise_identical_to_per_cell(self, scenario):
        localizer, positions, phases, segments, mask = _scenario(scenario)
        fused = _adaptive_localize_impl(
            localizer,
            positions,
            phases,
            segment_ids=segments,
            exclude_mask=mask,
        )
        profile, excludes, cells = _sweep_inputs(
            localizer, positions, phases, segments, mask, ParameterGrid()
        )
        reference = [
            outcome
            for outcome in _per_cell_reference(
                localizer, positions, profile, segments, excludes, cells
            )
            if isinstance(outcome, ConfigOutcome)
        ]
        assert len(fused.outcomes) == len(reference)
        for ours, theirs in zip(fused.outcomes, reference):
            assert ours.range_m == theirs.range_m
            assert ours.interval_m == theirs.interval_m
            assert np.array_equal(ours.result.position, theirs.result.position)
            assert ours.result.reference_distance_m == theirs.result.reference_distance_m
            mine, ref = ours.result.solution, theirs.result.solution
            assert np.array_equal(mine.estimate, ref.estimate)
            assert np.array_equal(mine.residuals, ref.residuals)
            assert np.array_equal(mine.normalized_residuals, ref.normalized_residuals)
            assert np.array_equal(mine.weights, ref.weights)
            assert mine.iterations == ref.iterations
            assert mine.converged == ref.converged

    def test_rejection_reasons_and_order_match(self):
        # The 5 mm window keeps < 3 reads (samples sit ~5 mm apart) -> a
        # too_few_reads rejection for that row, interleaved with good cells.
        localizer, positions, phases, _, _ = _scenario("line2d")
        grid = ParameterGrid(ranges_m=(0.005, 0.8), intervals_m=(0.004, 0.15))
        profile, excludes, cells = _sweep_inputs(localizer, positions, phases, None, None, grid)
        fused = _fused_cells(localizer, positions, profile, None, excludes, cells)
        reference = _per_cell_reference(localizer, positions, profile, None, excludes, cells)
        assert len(fused) == len(reference)
        rejected = 0
        for ours, theirs in zip(fused, reference):
            assert type(ours) is type(theirs)
            if isinstance(ours, CellRejection):
                assert ours.reason == theirs.reason
                rejected += 1
            else:
                assert np.array_equal(ours.result.position, theirs.result.position)
        assert rejected > 0


class TestPairCache:
    def test_cache_hits_across_trials_on_one_trajectory(self):
        clear_pair_cache()
        localizer, positions, _, segments, mask = _scenario("line2d")
        for seed in (11, 12):
            _, phases, _, _ = _line_scan(np.array([0.05, 0.85]), seed=seed)
            _adaptive_localize_impl(
                localizer, positions, phases, segment_ids=segments, exclude_mask=mask
            )
        info = pair_cache_info()
        # Second trial re-noises the same trajectory: every cell hits.
        assert info["misses"] > 0
        assert info["hits"] >= info["misses"]
        clear_pair_cache()
        info = pair_cache_info()
        assert info == {"hits": 0, "misses": 0, "size": 0, "max_size": info["max_size"]}


class TestSharedArrays:
    def test_roundtrip_and_none_passthrough(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(50, 2))
        excludes = rng.random(size=(3, 50)) > 0.5
        with SharedArrayBundle(points=points, segments=None, excludes=excludes) as bundle:
            assert bundle.specs["segments"] is None
            attached = attach_shared_arrays(bundle.specs)
            assert attached["segments"] is None
            assert np.array_equal(attached["points"], points)
            assert np.array_equal(attached["excludes"], excludes)
            with pytest.raises(ValueError):
                attached["points"][0, 0] = 1.0  # read-only view


class TestTypedExceptions:
    def test_too_few_reads(self):
        localizer = LionLocalizer(dim=2)
        with pytest.raises(TooFewReadsError):
            localizer.locate(np.zeros((2, 2)), np.zeros(2))

    def test_too_few_included_reads(self):
        localizer = LionLocalizer(dim=2)
        positions = np.stack([np.linspace(-0.5, 0.5, 10), np.zeros(10)], axis=1)
        mask = np.ones(10, dtype=bool)
        mask[:2] = False
        with pytest.raises(TooFewReadsError):
            localizer.locate(positions, np.zeros(10), exclude_mask=mask)

    def test_degenerate_geometry(self):
        localizer = LionLocalizer(dim=3, preprocess=PreprocessConfig(smoothing_window=1))
        positions = np.zeros((20, 3))  # zero spatial extent: unobservable
        with pytest.raises(DegenerateGeometryError):
            localizer.locate(positions, np.zeros(20))

    def test_both_are_value_errors(self):
        assert issubclass(TooFewReadsError, ValueError)
        assert issubclass(DegenerateGeometryError, ValueError)
