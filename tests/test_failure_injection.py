"""Failure-injection tests: degraded inputs must degrade gracefully.

Production scans are not clean: readers drop reads, report duplicates,
suffer interference bursts, and operators point antennas the wrong way.
These tests pin how the pipeline behaves at the edges — either still
producing a sane estimate or failing with a clear ValueError, never
silently returning garbage shapes or NaNs.
"""

import numpy as np
import pytest

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.localizer import LionLocalizer, PreprocessConfig
from repro.datasets.synthetic import simulate_scan
from repro.rf.noise import GaussianPhaseNoise
from repro.rf.reader import ReaderConfig
from repro.trajectory.linear import LinearTrajectory


def _phases(positions, target, noise=0.0, rng=None, offset=0.4):
    distances = np.linalg.norm(positions - target[np.newaxis, :], axis=1)
    phases = 2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances + offset
    if noise > 0:
        phases = phases + rng.normal(0.0, noise, len(distances))
    return np.mod(phases, TWO_PI)


class TestDropouts:
    def test_heavy_dropouts_still_localize(self, ideal_antenna, rng):
        scan = simulate_scan(
            LinearTrajectory((-0.5, 0, 0), (0.5, 0, 0)),
            ideal_antenna,
            rng=rng,
            noise=GaussianPhaseNoise(0.08),
            reader_config=ReaderConfig(dropout_probability=0.6),
        )
        assert len(scan) < 800  # most reads gone
        result = LionLocalizer(dim=2).locate(scan.positions, scan.phases)
        error = np.linalg.norm(result.position - ideal_antenna.phase_center[:2])
        assert error < 0.02

    def test_irregular_sampling_still_localizes(self, rng):
        """Non-uniform read spacing (as dropouts create) is handled by the
        spacing-based pairing."""
        target = np.array([0.1, 0.9])
        x = np.sort(rng.uniform(-0.5, 0.5, 300))
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        phases = _phases(positions, target, noise=0.05, rng=rng)
        result = LionLocalizer(dim=2).locate(positions, phases)
        assert np.linalg.norm(result.position - target) < 0.02


class TestDuplicateReads:
    def test_repeated_positions_tolerated(self, rng):
        """Back-to-back duplicate positions (reader bursts at one spot)
        must not produce degenerate radical rows."""
        target = np.array([0.0, 0.8])
        x = np.repeat(np.linspace(-0.4, 0.4, 100), 3)  # each position 3x
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        phases = _phases(positions, target, noise=0.05, rng=rng)
        result = LionLocalizer(dim=2).locate(positions, phases)
        assert np.linalg.norm(result.position - target) < 0.02


class TestExtremeNoise:
    def test_huge_noise_returns_finite_estimate(self, rng):
        target = np.array([0.0, 0.8])
        x = np.linspace(-0.5, 0.5, 400)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        phases = _phases(positions, target, noise=0.8, rng=rng)
        result = LionLocalizer(dim=2).locate(positions, phases)
        assert np.all(np.isfinite(result.position))

    def test_pure_random_phases_do_not_crash(self, rng):
        x = np.linspace(-0.5, 0.5, 200)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        phases = rng.uniform(0, TWO_PI, 200)
        result = LionLocalizer(dim=2).locate(positions, phases)
        assert np.all(np.isfinite(result.position))


class TestGeometryEdgeCases:
    def test_target_between_scan_points(self, rng):
        """Target inside the scan hull (circle scan around the antenna)."""
        target = np.array([0.02, -0.03])
        angles = np.linspace(0, 2 * np.pi, 300, endpoint=False)
        positions = 0.4 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        phases = _phases(positions, target, noise=0.05, rng=rng)
        result = LionLocalizer(dim=2, interval_m=0.3).locate(positions, phases)
        assert np.linalg.norm(result.position - target) < 0.02

    def test_target_far_away(self, rng):
        target = np.array([0.0, 5.0])
        x = np.linspace(-1.0, 1.0, 500)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        phases = _phases(positions, target, noise=0.02, rng=rng)
        result = LionLocalizer(dim=2, interval_m=0.4).locate(positions, phases)
        # Far-field depth is poorly conditioned; along-track must stay tight.
        assert abs(result.position[0] - target[0]) < 0.05

    def test_very_short_scan_rejected_or_poor(self):
        positions = np.array([[0.0, 0.0], [0.01, 0.0], [0.02, 0.0]])
        localizer = LionLocalizer(dim=2, preprocess=PreprocessConfig(smoothing_window=1))
        target = np.array([0.0, 0.8])
        phases = _phases(positions, target)
        # Either a clear error (no valid pairs) or a finite estimate.
        try:
            result = localizer.locate(positions, phases)
        except ValueError:
            return
        assert np.all(np.isfinite(result.position))

    def test_negative_side_deployment(self, rng):
        """Antenna *below* the scan plane: positive_side=False required."""
        target = np.array([0.1, -0.9])
        x = np.linspace(-0.4, 0.4, 300)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        phases = _phases(positions, target, noise=0.03, rng=rng)
        wrong = LionLocalizer(dim=2).locate(positions, phases)
        right = LionLocalizer(dim=2, positive_side=False).locate(positions, phases)
        assert np.linalg.norm(right.position - target) < 0.01
        # The wrong prior lands on the mirror image.
        assert wrong.position[1] == pytest.approx(-right.position[1], abs=0.01)


class TestNonFiniteInputs:
    def test_nan_phase_rejected_with_clear_error(self):
        x = np.linspace(-0.4, 0.4, 100)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        phases = _phases(positions, np.array([0.0, 0.8]))
        phases[50] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            LionLocalizer(dim=2).locate(positions, phases)

    def test_inf_position_rejected(self):
        x = np.linspace(-0.4, 0.4, 100)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        phases = _phases(positions, np.array([0.0, 0.8]))
        positions = positions.copy()
        positions[10, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            LionLocalizer(dim=2).locate(positions, phases)


class TestScanDirectionInvariance:
    def test_reversed_scan_same_answer(self, rng):
        target = np.array([0.1, 0.9])
        x = np.linspace(-0.4, 0.4, 300)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        phases = _phases(positions, target)
        localizer = LionLocalizer(dim=2, preprocess=PreprocessConfig(smoothing_window=1))
        forward = localizer.locate(positions, phases)
        backward = localizer.locate(positions[::-1].copy(), phases[::-1].copy())
        assert forward.position == pytest.approx(backward.position, abs=1e-6)
