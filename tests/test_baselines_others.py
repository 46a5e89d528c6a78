"""Tests for the hyperbola, parabola and rotating-tag baselines."""

import numpy as np
import pytest

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.baselines.angle import _locate_rotating_tag_impl
from repro.baselines.hyperbola import _locate_hyperbola_impl
from repro.baselines.parabola import _locate_parabola_2d_impl


def _phases(positions, target, offset=0.4, noise=None, rng=None):
    distances = np.linalg.norm(positions - target[np.newaxis, :], axis=1)
    phases = 2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances + offset
    if noise:
        phases = phases + rng.normal(0.0, noise, size=len(distances))
    return np.mod(phases, TWO_PI)


class TestHyperbola:
    def test_noiseless_2d(self):
        angles = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        positions = 0.3 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        target = np.array([0.9, 0.3])
        result = _locate_hyperbola_impl(positions, _phases(positions, target))
        assert result.converged
        assert result.position == pytest.approx(target, abs=1e-4)

    def test_noisy_2d(self, rng):
        angles = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        positions = 0.3 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        target = np.array([0.0, 1.0])
        phases = _phases(positions, target, noise=0.1, rng=rng)
        result = _locate_hyperbola_impl(positions, phases)
        assert np.linalg.norm(result.position - target) < 0.03

    def test_noiseless_3d(self):
        # A continuous helix: unwrapping (which both LION and this baseline
        # rely on) requires small displacement between consecutive reads.
        t = np.linspace(0, 4 * np.pi, 400)
        positions = np.stack(
            [0.3 * np.cos(t), 0.3 * np.sin(t), 0.05 * t / np.pi], axis=1
        )
        target = np.array([0.1, 0.9, 0.2])
        result = _locate_hyperbola_impl(
            positions, _phases(positions, target), initial_guess=np.array([0.0, 0.5, 0.0])
        )
        assert result.position == pytest.approx(target, abs=1e-3)

    def test_explicit_initial_guess_shape_checked(self, rng):
        positions = rng.uniform(-0.5, 0.5, size=(20, 2))
        with pytest.raises(ValueError):
            _locate_hyperbola_impl(
                positions, np.zeros(20), initial_guess=np.zeros(3), dim=2
            )

    def test_too_few_reads_rejected(self):
        with pytest.raises(ValueError):
            _locate_hyperbola_impl(np.zeros((2, 2)), np.zeros(2))

    def test_iterations_reported(self):
        angles = np.linspace(0, 2 * np.pi, 60, endpoint=False)
        positions = 0.3 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        result = _locate_hyperbola_impl(positions, _phases(positions, np.array([0.8, 0.2])))
        assert result.iterations > 0


class TestParabola:
    def test_noiseless_recovery(self):
        x = np.linspace(-0.4, 0.4, 200)
        target = np.array([0.1, 0.9])
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        result = _locate_parabola_2d_impl(x, _phases(positions, target))
        # The parabola is a second-order approximation of the true distance
        # profile, so a systematic depth bias of a few centimeters remains
        # even on clean data — one of the limitations the paper cites [8].
        assert result.position[0] == pytest.approx(0.1, abs=0.01)
        assert result.position[1] == pytest.approx(0.9, abs=0.08)

    def test_negative_side(self):
        x = np.linspace(-0.4, 0.4, 200)
        target = np.array([0.0, 0.8])
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        result = _locate_parabola_2d_impl(x, _phases(positions, target), positive_side=False)
        assert result.position[1] < 0.0

    def test_rms_residual_small_for_clean_data(self):
        x = np.linspace(-0.3, 0.3, 150)
        target = np.array([0.0, 1.0])
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        result = _locate_parabola_2d_impl(x, _phases(positions, target))
        assert result.rms_residual_rad < 0.2

    def test_non_convex_profile_rejected(self):
        x = np.linspace(0.0, 0.3, 50)
        phases = np.linspace(0.0, -3.0, 50)  # concave/linear, no valley
        with pytest.raises(ValueError):
            _locate_parabola_2d_impl(x, np.mod(phases, TWO_PI))

    def test_too_few_reads_rejected(self):
        with pytest.raises(ValueError):
            _locate_parabola_2d_impl(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


class TestRotatingTag:
    def _scan(self, target, radius, noise=None, rng=None, n=300):
        angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
        positions = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        phases = _phases(positions, target, noise=noise, rng=rng)
        return angles, phases

    def test_recovers_azimuth_and_distance(self):
        target = np.array([0.5, 0.5])
        angles, phases = self._scan(target, 0.2)
        result = _locate_rotating_tag_impl(angles, phases, radius_m=0.2)
        assert result.azimuth_rad == pytest.approx(np.pi / 4, abs=0.01)
        assert result.center_distance_m == pytest.approx(np.hypot(0.5, 0.5), abs=0.01)

    def test_position_estimate(self, rng):
        target = np.array([0.0, 0.7])
        angles, phases = self._scan(target, 0.15, noise=0.05, rng=rng)
        result = _locate_rotating_tag_impl(angles, phases, radius_m=0.15)
        assert np.linalg.norm(result.position - target) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            _locate_rotating_tag_impl(np.zeros(4), np.zeros(4), radius_m=0.2)
        with pytest.raises(ValueError):
            _locate_rotating_tag_impl(np.zeros(20), np.zeros(20), radius_m=0.0)
        with pytest.raises(ValueError):
            _locate_rotating_tag_impl(np.zeros(20), np.zeros(19), radius_m=0.2)
