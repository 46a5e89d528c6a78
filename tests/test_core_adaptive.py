"""Tests for repro.core.adaptive."""

import numpy as np
import pytest

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.adaptive import ParameterGrid, _adaptive_localize_impl
from repro.core.localizer import LionLocalizer, PreprocessConfig


def _scan(target, noise_std=0.0, rng=None, n=400, half=1.0):
    x = np.linspace(-half, half, n)
    positions = np.stack([x, np.zeros_like(x)], axis=1)
    distances = np.linalg.norm(positions - target[np.newaxis, :], axis=1)
    phases = 2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances + 0.4
    if noise_std > 0.0:
        phases = phases + rng.normal(0.0, noise_std, size=n)
    return positions, np.mod(phases, TWO_PI)


class TestParameterGrid:
    def test_defaults_match_paper_sweeps(self):
        grid = ParameterGrid()
        assert min(grid.ranges_m) == pytest.approx(0.6)
        assert max(grid.ranges_m) == pytest.approx(1.1)
        assert min(grid.intervals_m) == pytest.approx(0.10)
        assert max(grid.intervals_m) == pytest.approx(0.35)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterGrid(ranges_m=())
        with pytest.raises(ValueError):
            ParameterGrid(ranges_m=(0.0,))
        with pytest.raises(ValueError):
            ParameterGrid(intervals_m=(-0.1,))


class TestAdaptiveLocalize:
    def test_noiseless_recovery(self):
        target = np.array([0.1, 0.8])
        positions, phases = _scan(target)
        localizer = LionLocalizer(dim=2, preprocess=PreprocessConfig(smoothing_window=1))
        result = _adaptive_localize_impl(localizer, positions, phases)
        assert result.position == pytest.approx(target, abs=1e-5)

    def test_outcomes_cover_grid(self):
        target = np.array([0.0, 0.9])
        positions, phases = _scan(target)
        grid = ParameterGrid(ranges_m=(0.6, 0.8), intervals_m=(0.2, 0.3))
        localizer = LionLocalizer(dim=2, preprocess=PreprocessConfig(smoothing_window=1))
        result = _adaptive_localize_impl(localizer, positions, phases, grid=grid)
        assert len(result.outcomes) == 4
        combos = {(o.range_m, o.interval_m) for o in result.outcomes}
        assert combos == {(0.6, 0.2), (0.6, 0.3), (0.8, 0.2), (0.8, 0.3)}

    def test_interval_geq_range_skipped(self):
        target = np.array([0.0, 0.9])
        positions, phases = _scan(target)
        grid = ParameterGrid(ranges_m=(0.3,), intervals_m=(0.2, 0.4))
        localizer = LionLocalizer(dim=2, preprocess=PreprocessConfig(smoothing_window=1))
        result = _adaptive_localize_impl(localizer, positions, phases, grid=grid)
        assert len(result.outcomes) == 1
        assert result.outcomes[0].interval_m == pytest.approx(0.2)

    def test_selection_quantile(self, rng):
        target = np.array([0.0, 0.8])
        positions, phases = _scan(target, noise_std=0.1, rng=rng)
        localizer = LionLocalizer(dim=2)
        result = _adaptive_localize_impl(
            localizer, positions, phases, selection_quantile=0.5
        )
        assert len(result.selected) == int(np.ceil(0.5 * len(result.outcomes)))

    def test_best_outcome_minimises_criterion(self, rng):
        target = np.array([0.0, 0.8])
        positions, phases = _scan(target, noise_std=0.1, rng=rng)
        localizer = LionLocalizer(dim=2)
        result = _adaptive_localize_impl(localizer, positions, phases)
        best = result.best_outcome
        assert all(best.abs_mean_residual <= o.abs_mean_residual for o in result.outcomes)

    def test_mean_abs_criterion(self, rng):
        target = np.array([0.0, 0.8])
        positions, phases = _scan(target, noise_std=0.1, rng=rng)
        localizer = LionLocalizer(dim=2)
        result = _adaptive_localize_impl(
            localizer, positions, phases, criterion="mean_abs"
        )
        assert np.linalg.norm(result.position - target) < 0.05

    def test_unknown_criterion_rejected(self):
        localizer = LionLocalizer(dim=2)
        with pytest.raises(ValueError):
            _adaptive_localize_impl(localizer, np.zeros((5, 2)), np.zeros(5), criterion="bogus")

    def test_bad_quantile_rejected(self):
        localizer = LionLocalizer(dim=2)
        with pytest.raises(ValueError):
            _adaptive_localize_impl(
                localizer, np.zeros((5, 2)), np.zeros(5), selection_quantile=0.0
            )

    def test_no_valid_configuration_rejected(self):
        # Scan far smaller than every grid range/interval combination.
        x = np.linspace(-0.01, 0.01, 10)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        grid = ParameterGrid(ranges_m=(0.001,), intervals_m=(0.3,))
        localizer = LionLocalizer(dim=2)
        with pytest.raises(ValueError):
            _adaptive_localize_impl(localizer, positions, np.zeros(10), grid=grid)
