"""Integration tests: the full calibrate-then-localize story of the paper."""

import numpy as np
import pytest

from repro.baselines.hologram import DifferentialHologram
from repro.core.adaptive import ParameterGrid
from repro.core.calibration import calibrate_antenna, relative_phase_offsets
from repro.core.localizer import LionLocalizer
from repro.datasets.synthetic import simulate_scan
from repro.pipeline import EstimationRequest, estimate
from repro.rf.antenna import Antenna
from repro.rf.noise import GaussianPhaseNoise
from repro.rf.tag import Tag
from repro.trajectory.circular import CircularTrajectory
from repro.trajectory.linear import LinearTrajectory
from repro.trajectory.multiline import ThreeLineScan

FAST_GRID = ParameterGrid(ranges_m=(0.8, 1.0), intervals_m=(0.2, 0.3))


class TestCalibrationImprovesLocalization:
    """The paper's core claim, end to end."""

    def test_2d_error_with_vs_without_calibration(self, rng):
        antenna = Antenna(
            physical_center=(0.0, 0.8, 0.0),
            center_displacement=(0.022, -0.018, 0.01),
            phase_offset_rad=2.2,
            boresight=(0, -1, 0),
        )
        # Calibrate with a three-line scan.
        cal_scan = simulate_scan(
            ThreeLineScan(-0.5, 0.5), antenna, rng=rng,
            noise=GaussianPhaseNoise(0.05), read_rate_hz=40.0,
        )
        calibration, _ = calibrate_antenna(
            cal_scan.positions, cal_scan.phases, antenna.physical_center_array,
            segment_ids=cal_scan.segment_ids, exclude_mask=cal_scan.exclude_mask,
            grid=FAST_GRID,
        )
        # Localize from a fresh conveyor scan.
        scan = simulate_scan(
            LinearTrajectory((-0.5, 0, 0), (0.5, 0, 0)), antenna, rng=rng,
            noise=GaussianPhaseNoise(0.05), read_rate_hz=40.0,
        )
        result = LionLocalizer(dim=2).locate(scan.positions, scan.phases)
        error_uncalibrated = np.linalg.norm(
            result.position - antenna.physical_center_array[:2]
        )
        error_calibrated = np.linalg.norm(
            result.position - calibration.estimated_center[:2]
        )
        assert error_calibrated < error_uncalibrated / 2.0
        assert error_calibrated < 0.01

    def test_multi_antenna_relative_offsets(self, rng):
        """Two antennas sharing one tag: relative offset is tag-free."""
        tag = Tag(phase_offset_rad=1.7)
        offsets_true = (0.5, 2.1)
        calibrations = []
        for index, offset in enumerate(offsets_true):
            antenna = Antenna(
                physical_center=(0.3 * index, 0.8, 0.0),
                center_displacement=(0.01, 0.02, -0.01),
                phase_offset_rad=offset,
                boresight=(0, -1, 0),
            )
            scan = simulate_scan(
                ThreeLineScan(-0.5, 0.5, origin=(0.3 * index, 0.0, 0.0)),
                antenna, tag=tag, rng=rng,
                noise=GaussianPhaseNoise(0.03), read_rate_hz=40.0,
            )
            calibration, _ = calibrate_antenna(
                scan.positions, scan.phases, antenna.physical_center_array,
                antenna_name=f"A{index}", segment_ids=scan.segment_ids,
                exclude_mask=scan.exclude_mask, grid=FAST_GRID,
            )
            calibrations.append(calibration)
        relative = relative_phase_offsets(calibrations)
        assert relative["A1"] == pytest.approx(
            offsets_true[1] - offsets_true[0], abs=0.1
        )


class TestMethodsAgree:
    """LION, DAH and the hyperbola solver should agree on clean data."""

    def test_three_methods_same_answer(self, rng):
        antenna = Antenna(physical_center=(0.15, 0.9, 0.0), boresight=(0, -1, 0))
        scan = simulate_scan(
            CircularTrajectory((0, 0, 0), radius=0.3), antenna, rng=rng,
            noise=GaussianPhaseNoise(0.05), read_rate_hz=60.0,
        )
        truth = antenna.phase_center[:2]

        lion = LionLocalizer(dim=2, interval_m=0.3).locate(scan.positions, scan.phases)
        assert np.linalg.norm(lion.position - truth) < 0.01

        hyperbola = estimate(
            "hyperbola",
            EstimationRequest(
                positions=scan.positions[:, :2],
                phases_rad=scan.phases,
                initial_guess=np.array([0.0, 0.5]),
            ),
        )
        assert np.linalg.norm(hyperbola.position - truth) < 0.01

        stride = max(len(scan) // 30, 1)
        dah = DifferentialHologram(grid_size_m=0.004).locate(
            scan.positions[::stride, :2],
            scan.phases[::stride],
            [(truth[0] - 0.1, truth[0] + 0.1), (truth[1] - 0.1, truth[1] + 0.1)],
        )
        assert np.linalg.norm(dah.position - truth) < 0.01

        assert np.linalg.norm(lion.position - hyperbola.position) < 0.01
        assert np.linalg.norm(lion.position - dah.position) < 0.015


class TestSymmetry:
    """Locating the antenna from tag motion == locating a tag from antenna
    knowledge: the model only sees relative geometry."""

    def test_translation_invariance(self, rng):
        offsets = [np.zeros(3), np.array([5.0, -3.0, 0.0])]
        results = []
        for offset in offsets:
            antenna = Antenna(
                physical_center=tuple(np.array([0.1, 0.9, 0.0]) + offset),
                boresight=(0, -1, 0),
            )
            scan = simulate_scan(
                LinearTrajectory(offset + [-0.4, 0, 0], offset + [0.4, 0, 0]),
                antenna, rng=np.random.default_rng(11),
                noise=GaussianPhaseNoise(0.05), read_rate_hz=40.0,
            )
            result = LionLocalizer(dim=2).locate(scan.positions, scan.phases)
            results.append(result.position - offset[:2])
        assert results[0] == pytest.approx(results[1], abs=1e-4)
