"""Tests for repro.core.calibration (Sec. IV-C, Eq. 17)."""

import numpy as np
import pytest

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.adaptive import ParameterGrid
from repro.core.calibration import (
    AntennaCalibration,
    calibrate_antenna,
    estimate_phase_offset,
    relative_phase_offsets,
)
from repro.core.localizer import LionLocalizer
from repro.datasets.synthetic import simulate_scan
from repro.rf.antenna import Antenna
from repro.rf.noise import GaussianPhaseNoise
from repro.rf.tag import Tag
from repro.trajectory.multiline import ThreeLineScan


class TestEstimatePhaseOffset:
    def test_recovers_known_offset(self, rng):
        center = np.array([0.0, 0.8, 0.0])
        true_offset = 2.3
        positions = rng.uniform(-0.5, 0.5, size=(200, 3))
        distances = np.linalg.norm(positions - center, axis=1)
        phases = np.mod(
            2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances + true_offset, TWO_PI
        )
        estimate = estimate_phase_offset(positions, phases, center)
        assert estimate == pytest.approx(true_offset, abs=1e-9)

    def test_robust_to_noise(self, rng):
        center = np.array([0.1, 0.9, 0.0])
        true_offset = 5.9  # near the wrap boundary: circular mean required
        positions = rng.uniform(-0.5, 0.5, size=(500, 3))
        distances = np.linalg.norm(positions - center, axis=1)
        phases = np.mod(
            2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances
            + true_offset
            + rng.normal(0, 0.1, 500),
            TWO_PI,
        )
        estimate = estimate_phase_offset(positions, phases, center)
        delta = np.mod(estimate - true_offset + np.pi, TWO_PI) - np.pi
        assert abs(delta) < 0.02

    def test_2d_positions_accepted(self):
        center = np.array([0.0, 1.0])
        positions = np.array([[0.0, 0.0], [0.3, 0.0]])
        distances = np.linalg.norm(positions - center, axis=1)
        phases = np.mod(2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances + 1.0, TWO_PI)
        assert estimate_phase_offset(positions, phases, center) == pytest.approx(1.0)

    def test_3d_center_with_2d_positions(self):
        center = np.array([0.0, 1.0, 0.0])
        positions = np.array([[0.0, 0.0], [0.3, 0.0]])
        distances = np.linalg.norm(positions - center[:2], axis=1)
        phases = np.mod(2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances, TWO_PI)
        assert estimate_phase_offset(positions, phases, center) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            estimate_phase_offset(np.zeros((3, 3)), np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            estimate_phase_offset(np.zeros((0, 3)), np.zeros(0), np.zeros(3))


class TestCalibrateAntenna:
    def test_full_calibration_pipeline(self, rng):
        antenna = Antenna(
            physical_center=(0.0, 0.8, 0.0),
            center_displacement=(0.02, -0.02, 0.015),
            phase_offset_rad=1.5,
            boresight=(0, -1, 0),
        )
        tag = Tag(phase_offset_rad=0.8)
        scan = simulate_scan(
            ThreeLineScan(-0.5, 0.5),
            antenna,
            tag=tag,
            rng=rng,
            noise=GaussianPhaseNoise(0.03),
            read_rate_hz=40.0,
        )
        calibration, adaptive = calibrate_antenna(
            scan.positions,
            scan.phases,
            antenna.physical_center_array,
            antenna_name="A1",
            segment_ids=scan.segment_ids,
            exclude_mask=scan.exclude_mask,
            grid=ParameterGrid(ranges_m=(0.8, 1.0), intervals_m=(0.2, 0.3)),
        )
        # Phase center recovered to a few millimeters.
        assert np.linalg.norm(
            calibration.estimated_center - antenna.phase_center
        ) < 0.005
        # Displacement estimate close to the hidden truth.
        assert calibration.center_displacement == pytest.approx(
            np.asarray(antenna.center_displacement), abs=0.005
        )
        # Offset estimate = theta_T + theta_R (mod 2*pi).
        expected = np.mod(1.5 + 0.8, TWO_PI)
        delta = np.mod(calibration.phase_offset_rad - expected + np.pi, TWO_PI) - np.pi
        assert abs(delta) < 0.1
        assert len(adaptive.outcomes) > 0

    def test_rank_deficient_trajectory_fails_cleanly(self):
        # Every read from the same point: the linear model has no
        # geometric diversity, so no sweep cell can localize and the
        # whole calibration must fail loudly, not return garbage.
        positions = np.tile(np.array([[0.1, 0.0, 0.0]]), (30, 1))
        phases = np.linspace(0.0, 1.0, 30)
        with pytest.raises(ValueError, match="no grid configuration"):
            calibrate_antenna(positions, phases, np.array([0.0, 0.8, 0.0]))

    def test_single_line_scan_fails_cleanly(self):
        # One straight line is still rank-deficient for a 3-D phase
        # center (the paper needs multiple non-collinear lines).
        x = np.linspace(-0.5, 0.5, 60)
        positions = np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=1)
        distances = np.abs(x - 0.1)
        phases = np.mod(2 * TWO_PI / DEFAULT_WAVELENGTH_M * distances + 0.3, TWO_PI)
        with pytest.raises(ValueError, match="no grid configuration"):
            calibrate_antenna(positions, phases, np.array([0.1, 0.8, 0.0]))

    def test_requires_3d_localizer(self):
        with pytest.raises(ValueError):
            calibrate_antenna(
                np.zeros((10, 3)),
                np.zeros(10),
                np.zeros(3),
                localizer=LionLocalizer(dim=2),
            )


class TestRelativePhaseOffsets:
    def _calibration(self, name, offset):
        return AntennaCalibration(
            antenna_name=name,
            physical_center=np.zeros(3),
            estimated_center=np.zeros(3),
            phase_offset_rad=offset,
        )

    def test_reference_is_zero(self):
        cals = [self._calibration("A1", 1.0), self._calibration("A2", 2.5)]
        offsets = relative_phase_offsets(cals)
        assert offsets["A1"] == pytest.approx(0.0)
        assert offsets["A2"] == pytest.approx(1.5)

    def test_wraps_shortest_way(self):
        cals = [self._calibration("A1", 0.2), self._calibration("A2", TWO_PI - 0.2)]
        offsets = relative_phase_offsets(cals)
        assert offsets["A2"] == pytest.approx(-0.4)

    def test_custom_reference(self):
        cals = [self._calibration("A1", 1.0), self._calibration("A2", 2.0)]
        offsets = relative_phase_offsets(cals, reference_index=1)
        assert offsets["A2"] == pytest.approx(0.0)
        assert offsets["A1"] == pytest.approx(-1.0)

    def test_tag_offset_cancels(self, rng):
        """Offsets estimated with the same tag yield tag-free differences."""
        tag_offset = 1.1
        estimates = []
        for antenna_offset in (0.5, 2.0):
            center = np.array([0.0, 0.8, 0.0])
            positions = rng.uniform(-0.4, 0.4, size=(100, 3))
            distances = np.linalg.norm(positions - center, axis=1)
            phases = np.mod(
                2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances
                + antenna_offset
                + tag_offset,
                TWO_PI,
            )
            estimates.append(estimate_phase_offset(positions, phases, center))
        cals = [
            self._calibration("A1", estimates[0]),
            self._calibration("A2", estimates[1]),
        ]
        offsets = relative_phase_offsets(cals)
        assert offsets["A2"] == pytest.approx(1.5, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            relative_phase_offsets([])

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_phase_offsets([self._calibration("A1", 1.0)], reference_index=3)


class TestAntennaCalibrationRecord:
    def test_displacement_magnitude(self):
        calibration = AntennaCalibration(
            antenna_name="A",
            physical_center=np.zeros(3),
            estimated_center=np.array([0.03, 0.04, 0.0]),
            phase_offset_rad=0.0,
        )
        assert calibration.displacement_magnitude_m == pytest.approx(0.05)
