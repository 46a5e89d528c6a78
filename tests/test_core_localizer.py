"""Tests for repro.core.localizer — the end-to-end LION pipeline."""

import numpy as np
import pytest

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.localizer import LionLocalizer, PreprocessConfig
from repro.datasets.synthetic import simulate_scan
from repro.rf.antenna import Antenna
from repro.rf.noise import GaussianPhaseNoise
from repro.trajectory.linear import LinearTrajectory
from repro.trajectory.multiline import ThreeLineScan, TwoLineScan


def _wrapped_phases(positions, target, offset=0.9):
    distances = np.linalg.norm(positions - target[np.newaxis, :], axis=1)
    return np.mod(2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances + offset, TWO_PI)


@pytest.fixture
def exact_localizer():
    return LionLocalizer(dim=2, preprocess=PreprocessConfig(smoothing_window=1))


class TestNoiselessExactness:
    def test_circle_scan_2d(self, exact_localizer):
        angles = np.linspace(0, 2 * np.pi, 300, endpoint=False)
        positions = 0.3 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        target = np.array([0.8, 0.4])
        result = exact_localizer.locate(positions, _wrapped_phases(positions, target))
        assert result.position == pytest.approx(target, abs=1e-6)
        assert result.recovered_axis is None

    def test_linear_scan_2d_lower_dimension(self, exact_localizer):
        x = np.linspace(-0.3, 0.3, 200)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        target = np.array([0.2, 1.0])
        result = exact_localizer.locate(positions, _wrapped_phases(positions, target))
        assert result.recovered_axis == 1
        assert result.position == pytest.approx(target, abs=1e-6)

    def test_diagonal_linear_scan_2d(self, exact_localizer):
        """A non-axis-aligned line is handled via the line-frame rotation."""
        t = np.linspace(0, 0.6, 200)
        direction = np.array([np.cos(0.4), np.sin(0.4)])
        positions = t[:, np.newaxis] * direction[np.newaxis, :]
        # Target on the positive (left) side of the travel direction.
        normal = np.array([-direction[1], direction[0]])
        target = positions[100] + 0.9 * normal
        result = exact_localizer.locate(positions, _wrapped_phases(positions, target))
        assert result.position == pytest.approx(target, abs=1e-5)

    def test_three_line_scan_3d(self):
        scan = ThreeLineScan(-0.5, 0.5)
        samples = scan.sample(speed_mps=0.1, read_rate_hz=40.0)
        target = np.array([0.1, 0.8, 0.2])
        phases = _wrapped_phases(samples.positions, target)
        localizer = LionLocalizer(dim=3, preprocess=PreprocessConfig(smoothing_window=1))
        result = localizer.locate(
            samples.positions,
            phases,
            segment_ids=samples.segment_ids,
            exclude_mask=scan.transit_mask(samples),
        )
        assert result.position == pytest.approx(target, abs=1e-6)
        assert result.recovered_axis is None

    def test_two_line_scan_3d_recovers_z(self):
        scan = TwoLineScan(-0.5, 0.5)
        samples = scan.sample(speed_mps=0.1, read_rate_hz=40.0)
        target = np.array([0.0, 0.7, 0.25])
        phases = _wrapped_phases(samples.positions, target)
        localizer = LionLocalizer(dim=3, preprocess=PreprocessConfig(smoothing_window=1))
        result = localizer.locate(
            samples.positions,
            phases,
            segment_ids=samples.segment_ids,
            exclude_mask=scan.transit_mask(samples),
        )
        assert result.recovered_axis == 2
        assert result.position == pytest.approx(target, abs=1e-5)


class TestNoisyAccuracy:
    def test_2d_noisy_subcentimeter(self, rng):
        antenna = Antenna(physical_center=(0.2, 1.0, 0.0), boresight=(0, -1, 0))
        scan = simulate_scan(
            LinearTrajectory((-0.4, 0, 0), (0.4, 0, 0)),
            antenna,
            rng=rng,
            noise=GaussianPhaseNoise(0.1),
        )
        result = LionLocalizer(dim=2).locate(scan.positions, scan.phases)
        error = np.linalg.norm(result.position - antenna.phase_center[:2])
        assert error < 0.01

    def test_3d_noisy(self, rng):
        antenna = Antenna(physical_center=(0.0, 0.8, 0.1), boresight=(0, -1, 0))
        scan = simulate_scan(ThreeLineScan(-0.5, 0.5), antenna, rng=rng,
                             noise=GaussianPhaseNoise(0.05), read_rate_hz=60.0)
        result = LionLocalizer(dim=3).locate(
            scan.positions, scan.phases,
            segment_ids=scan.segment_ids, exclude_mask=scan.exclude_mask,
        )
        error = np.linalg.norm(result.position - antenna.phase_center)
        assert error < 0.01

    @pytest.mark.parametrize("slant_rad", [0.5, 2.0])
    def test_slanted_noisy_line_solves_like_the_axis_aligned_one(self, slant_rad):
        # In the line frame the cross coordinate is rounding noise; fitted,
        # it drew a ~1e11 m coefficient and a slant-dependent answer.
        x = np.linspace(-0.5, 0.5, 200)
        aligned = np.stack([x, np.zeros_like(x)], axis=1)
        noise = np.random.default_rng(3).normal(0.0, 0.03, x.size)
        phases = np.mod(_wrapped_phases(aligned, np.array([0.15, 0.9])) + noise, TWO_PI)
        cos, sin = np.cos(slant_rad), np.sin(slant_rad)
        rotation = np.array([[cos, sin], [-sin, cos]])
        localizer = LionLocalizer(dim=2)
        expected = localizer.locate(aligned, phases)
        result = localizer.locate(aligned @ rotation, phases)
        assert result.solution.estimate[1] == 0.0
        assert result.solution.position_std_m[1] == 0.0
        assert result.solution.iterations == expected.solution.iterations
        np.testing.assert_allclose(result.position @ rotation.T, expected.position, atol=1e-9)


class TestHardwareOffsetsInvariance:
    def test_offsets_do_not_affect_result(self, rng):
        """Phase differences cancel theta_T + theta_R (Sec. II-B)."""
        x = np.linspace(-0.3, 0.3, 200)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        target = np.array([0.1, 0.9])
        localizer = LionLocalizer(dim=2, preprocess=PreprocessConfig(smoothing_window=1))
        results = [
            localizer.locate(positions, _wrapped_phases(positions, target, offset))
            for offset in (0.0, 1.3, 4.5)
        ]
        for result in results[1:]:
            assert result.position == pytest.approx(results[0].position, abs=1e-9)


class TestExcludeMaskAndReference:
    def test_exclude_mask_filters_equations(self, exact_localizer):
        x = np.linspace(-0.5, 0.5, 300)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        target = np.array([0.0, 0.8])
        phases = _wrapped_phases(positions, target)
        # Corrupt the reads at |x| > 0.3 badly, then exclude them.
        corrupted = phases.copy()
        mask = np.abs(x) > 0.3
        result = exact_localizer.locate(positions, corrupted, exclude_mask=mask)
        assert result.position == pytest.approx(target, abs=1e-6)

    def test_explicit_reference_index(self, exact_localizer):
        x = np.linspace(-0.3, 0.3, 100)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        target = np.array([0.0, 1.0])
        result = exact_localizer.locate(
            positions, _wrapped_phases(positions, target), reference_index=10
        )
        assert result.position == pytest.approx(target, abs=1e-6)
        assert result.reference_position == pytest.approx(positions[10])

    def test_too_few_reads_rejected(self, exact_localizer):
        with pytest.raises(ValueError):
            exact_localizer.locate(np.zeros((2, 2)), np.zeros(2))

    def test_all_excluded_rejected(self, exact_localizer):
        positions = np.stack([np.linspace(0, 1, 10), np.zeros(10)], axis=1)
        with pytest.raises(ValueError):
            exact_localizer.locate(
                positions, np.zeros(10), exclude_mask=np.ones(10, dtype=bool)
            )

    def test_shape_mismatch_rejected(self, exact_localizer):
        with pytest.raises(ValueError):
            exact_localizer.locate(np.zeros((5, 2)), np.zeros(4))


class TestUnobservableGeometry:
    def test_line_scan_cannot_give_3d(self):
        x = np.linspace(-0.5, 0.5, 100)
        positions = np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=1)
        target = np.array([0.0, 0.8, 0.0])
        phases = _wrapped_phases(positions, target)
        localizer = LionLocalizer(dim=3)
        with pytest.raises(ValueError):
            localizer.locate(positions, phases)


class TestConfiguration:
    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError):
            LionLocalizer(dim=4)

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            LionLocalizer(method="magic")

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            LionLocalizer(interval_m=-0.1)

    def test_ls_method_runs(self, rng):
        x = np.linspace(-0.3, 0.3, 100)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        target = np.array([0.0, 1.0])
        localizer = LionLocalizer(
            dim=2, method="ls", preprocess=PreprocessConfig(smoothing_window=1)
        )
        result = localizer.locate(positions, _wrapped_phases(positions, target))
        assert result.position == pytest.approx(target, abs=1e-6)
