"""Tests for repro.core.multiref — multi-run radical systems."""

import numpy as np
import pytest

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI, wavelength_for_frequency
from repro.core.multiref import (
    build_multireference_system,
    _locate_multireference_impl,
    solve_multireference,
)


def _run_phases(positions, target, wavelength, offset, noise, rng):
    distances = np.linalg.norm(positions - target, axis=1)
    phases = 2.0 * TWO_PI / wavelength * distances + offset
    if noise > 0:
        phases = phases + rng.normal(0.0, noise, len(distances))
    return np.mod(phases, TWO_PI)


def _three_sweeps(target, n=150, noise=0.0, rng=None):
    """Three parallel x-sweeps with independent phase datums."""
    x = np.linspace(-0.5, 0.5, n)
    lines = [
        np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=1),
        np.stack([x, np.zeros_like(x), np.full_like(x, 0.2)], axis=1),
        np.stack([x, np.full_like(x, -0.2), np.zeros_like(x)], axis=1),
    ]
    local_rng = rng or np.random.default_rng(0)
    positions = np.vstack(lines)
    runs = np.repeat([0, 1, 2], n)
    phases = np.concatenate(
        [
            _run_phases(
                line, target, DEFAULT_WAVELENGTH_M,
                local_rng.uniform(0, TWO_PI), noise, local_rng,
            )
            for line in lines
        ]
    )
    return positions, phases, runs


class TestSeparateSweeps:
    def test_exact_3d_without_stitching(self):
        """The headline feature: Fig. 11 geometry with NO transit moves and
        independent per-line phase datums still localizes exactly."""
        target = np.array([0.1, 0.8, 0.15])
        positions, phases, runs = _three_sweeps(target)
        solution = _locate_multireference_impl(
            positions, phases, runs, dim=3, interval_m=0.25, smoothing_window=1
        )
        assert solution.position == pytest.approx(target, abs=1e-6)

    def test_reference_distances_match_geometry(self):
        target = np.array([0.0, 0.9, 0.1])
        positions, phases, runs = _three_sweeps(target)
        solution = _locate_multireference_impl(
            positions, phases, runs, dim=3, interval_m=0.25, smoothing_window=1
        )
        for run in (0, 1, 2):
            members = np.flatnonzero(runs == run)
            reference = positions[members[members.size // 2]]
            expected = float(np.linalg.norm(target - reference))
            assert solution.reference_distances[run] == pytest.approx(expected, abs=1e-6)

    def test_noisy_centimeter_accuracy(self, rng):
        target = np.array([0.1, 0.8, 0.15])
        errors = []
        for _ in range(5):
            positions, phases, runs = _three_sweeps(target, noise=0.05, rng=rng)
            solution = _locate_multireference_impl(
                positions, phases, runs, dim=3, interval_m=0.25
            )
            errors.append(np.linalg.norm(solution.position - target))
        # The y/z recovery amplifies d_r noise by ~depth/line-offset (4-5x
        # here), so individual draws can reach several centimeters; the
        # mean stays centimeter-scale. The stitched single-datum pipeline
        # remains the higher-accuracy option when transits are available.
        assert float(np.mean(errors)) < 0.04

    def test_datum_invariance(self):
        """Changing any run's phase datum must not change the answer."""
        target = np.array([0.05, 0.75, 0.2])
        x = np.linspace(-0.5, 0.5, 120)
        lines = [
            np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=1),
            np.stack([x, np.zeros_like(x), np.full_like(x, 0.2)], axis=1),
            np.stack([x, np.full_like(x, -0.2), np.zeros_like(x)], axis=1),
        ]
        positions = np.vstack(lines)
        runs = np.repeat([0, 1, 2], 120)
        results = []
        for datums in ([0.0, 0.0, 0.0], [1.0, 3.0, 5.5]):
            phases = np.concatenate(
                [
                    _run_phases(line, target, DEFAULT_WAVELENGTH_M, datum, 0.0, None)
                    for line, datum in zip(lines, datums)
                ]
            )
            results.append(
                _locate_multireference_impl(
                    positions, phases, runs, dim=3, interval_m=0.25, smoothing_window=1
                ).position
            )
        assert results[0] == pytest.approx(results[1], abs=1e-9)


class TestFrequencyHopping:
    def test_two_channels_on_a_circle(self, rng):
        target = np.array([0.9, 0.2])
        angles = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        circle = 0.3 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        runs = np.repeat([0, 1], 200)
        wavelengths = {
            0: wavelength_for_frequency(903e6),
            1: wavelength_for_frequency(920e6),
        }
        phases = np.zeros(400)
        for run in (0, 1):
            members = runs == run
            phases[members] = _run_phases(
                circle[members], target, wavelengths[run],
                rng.uniform(0, TWO_PI), 0.05, rng,
            )
        solution = _locate_multireference_impl(
            circle, phases, runs, dim=2, interval_m=0.2, wavelengths_m=wavelengths
        )
        assert np.linalg.norm(solution.position - target) < 0.015

    def test_collinear_runs_fall_back_to_sqrt_recovery(self, rng):
        """Hop blocks on a single straight sweep: references are collinear,
        so the unobserved depth comes from one reference sphere + prior."""
        target = np.array([0.1, 0.9])
        x = np.linspace(-0.5, 0.5, 400)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        runs = np.repeat([0, 1], 200)
        wavelengths = {
            0: wavelength_for_frequency(903e6),
            1: wavelength_for_frequency(925e6),
        }
        phases = np.zeros(400)
        for run in (0, 1):
            members = runs == run
            phases[members] = _run_phases(
                positions[members], target, wavelengths[run],
                rng.uniform(0, TWO_PI), 0.03, rng,
            )
        solution = _locate_multireference_impl(
            positions, phases, runs, dim=2, interval_m=0.2,
            wavelengths_m=wavelengths,
        )
        assert np.linalg.norm(solution.position - target) < 0.02

    def test_negative_side_prior(self):
        target = np.array([0.0, -0.8])
        x = np.linspace(-0.5, 0.5, 300)
        positions = np.stack([x, np.zeros_like(x)], axis=1)
        runs = np.zeros(300, dtype=int)
        phases = _run_phases(
            positions, target, DEFAULT_WAVELENGTH_M, 0.3, 0.0, None
        )
        solution = _locate_multireference_impl(
            positions, phases, runs, dim=2, interval_m=0.2,
            smoothing_window=1, positive_side=False,
        )
        assert solution.position == pytest.approx(target, abs=1e-5)

    def test_missing_wavelength_rejected(self, rng):
        positions = np.stack([np.linspace(0, 1, 20), np.zeros(20)], axis=1)
        with pytest.raises(ValueError):
            _locate_multireference_impl(
                positions, np.zeros(20), np.zeros(20, dtype=int),
                dim=2, wavelengths_m={5: 0.3},
            )


class TestBuildSystem:
    def _simple(self):
        positions = np.array(
            [[0.0, 0.0], [0.2, 0.0], [0.4, 0.0], [0.0, 0.3], [0.2, 0.3], [0.4, 0.3]]
        )
        runs = np.array([0, 0, 0, 1, 1, 1])
        deltas = np.zeros(6)
        return positions, deltas, runs

    def test_column_layout(self):
        positions, deltas, runs = self._simple()
        system = build_multireference_system(
            positions, deltas, runs, [(0, 1), (3, 4)]
        )
        assert system.matrix.shape == (2, 2 + 2)
        assert system.run_ids == (0, 1)
        # Row 0 belongs to run 0: its d_r coefficient sits in column 2.
        assert system.matrix[0, 3] == 0.0
        assert system.matrix[1, 2] == 0.0

    def test_cross_run_pair_rejected(self):
        positions, deltas, runs = self._simple()
        with pytest.raises(ValueError):
            build_multireference_system(positions, deltas, runs, [(0, 3)])

    def test_coincident_pair_rejected(self):
        positions, deltas, runs = self._simple()
        positions[1] = positions[0]
        with pytest.raises(ValueError):
            build_multireference_system(positions, deltas, runs, [(0, 1)])

    def test_empty_pairs_rejected(self):
        positions, deltas, runs = self._simple()
        with pytest.raises(ValueError):
            build_multireference_system(positions, deltas, runs, [])

    def test_solver_validation(self):
        positions, deltas, runs = self._simple()
        system = build_multireference_system(positions, deltas, runs, [(0, 1)])
        with pytest.raises(ValueError):
            solve_multireference(system, max_iterations=0)

    def test_short_run_rejected(self):
        positions = np.stack([np.linspace(0, 1, 10), np.zeros(10)], axis=1)
        runs = np.array([0] * 8 + [1] * 2)
        with pytest.raises(ValueError):
            _locate_multireference_impl(positions, np.zeros(10), runs, dim=2)
