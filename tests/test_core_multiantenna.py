"""Tests for repro.core.multiantenna."""

import numpy as np
import pytest

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.calibration import AntennaCalibration
from repro.core.multiantenna import (
    CalibratedArray,
    _differential_hologram_impl,
    locate_tag_differential,
    locate_tag_with_array,
)
from repro.rf.antenna import Antenna


def _measured_phases(centers, tag, offsets):
    k = 2.0 * TWO_PI / DEFAULT_WAVELENGTH_M
    distances = np.linalg.norm(np.asarray(centers) - np.asarray(tag), axis=1)
    return np.mod(k * distances + np.asarray(offsets), TWO_PI)


@pytest.fixture
def line_array():
    centers = np.array([[-0.3, 0.0], [0.0, 0.0], [0.3, 0.0]])
    tag = np.array([-0.1, 0.8])
    offsets = np.array([1.0, 1.2, 0.9])
    phases = _measured_phases(centers, tag, offsets)
    return centers, tag, offsets, phases


class TestDifferentialHologram:
    def test_exact_with_corrections(self, line_array):
        centers, tag, offsets, phases = line_array
        result = _differential_hologram_impl(
            centers,
            phases,
            bounds=[(tag[0] - 0.15, tag[0] + 0.15), (tag[1] - 0.15, tag[1] + 0.15)],
            grid_size_m=0.002,
            offset_corrections_rad=offsets - offsets[0],
        )
        assert np.linalg.norm(result.position - tag) < 0.005
        assert result.likelihood == pytest.approx(1.0, abs=0.01)

    def test_uncorrected_offsets_degrade(self, line_array):
        centers, tag, offsets, phases = line_array
        bounds = [(tag[0] - 0.15, tag[0] + 0.15), (tag[1] - 0.15, tag[1] + 0.15)]
        corrected = _differential_hologram_impl(
            centers, phases, bounds, 0.004, offsets - offsets[0]
        )
        uncorrected = _differential_hologram_impl(centers, phases, bounds, 0.004)
        error_corrected = np.linalg.norm(corrected.position - tag)
        error_uncorrected = np.linalg.norm(uncorrected.position - tag)
        assert error_corrected < error_uncorrected

    def test_3d_bounds(self):
        centers = np.array([[-0.3, 0.0, 0.0], [0.0, 0.0, 0.2], [0.3, 0.0, 0.0],
                            [0.0, 0.3, 0.0]])
        tag = np.array([0.05, 0.7, 0.1])
        phases = _measured_phases(centers, tag, np.zeros(4))
        result = _differential_hologram_impl(
            centers, phases,
            bounds=[(t - 0.08, t + 0.08) for t in tag],
            grid_size_m=0.008,
        )
        assert np.linalg.norm(result.position - tag) < 0.02

    def test_validation(self, line_array):
        centers, tag, offsets, phases = line_array
        bounds = [(-0.2, 0.2), (0.6, 1.0)]
        with pytest.raises(ValueError):
            _differential_hologram_impl(centers[:1], phases[:1], bounds)
        with pytest.raises(ValueError):
            _differential_hologram_impl(centers, phases[:2], bounds)
        with pytest.raises(ValueError):
            _differential_hologram_impl(centers, phases, bounds, grid_size_m=0.0)
        with pytest.raises(ValueError):
            _differential_hologram_impl(
                centers, phases, bounds, offset_corrections_rad=np.zeros(2)
            )
        with pytest.raises(ValueError):
            _differential_hologram_impl(centers, phases, [(-0.2, 0.2)])


class TestLocateTagDifferential:
    def test_converges_from_nearby_guess(self, line_array):
        centers, tag, offsets, phases = line_array
        result = locate_tag_differential(
            centers,
            phases,
            initial_guess=tag + [0.03, -0.04],
            offset_corrections_rad=offsets - offsets[0],
        )
        assert np.linalg.norm(result.position - tag) < 0.005
        assert result.cell_count == 0

    def test_guess_shape_checked(self, line_array):
        centers, _, _, phases = line_array
        with pytest.raises(ValueError):
            locate_tag_differential(centers, phases, initial_guess=np.zeros(3))


class TestCalibratedArray:
    def _build(self):
        antennas = [
            Antenna(physical_center=(x, 0.0, 0.0), boresight=(0, 1, 0), name=f"A{i}")
            for i, x in enumerate((-0.3, 0.0, 0.3))
        ]
        calibrations = [
            AntennaCalibration(
                antenna_name=a.name,
                physical_center=a.physical_center_array,
                estimated_center=a.physical_center_array + [0.02, -0.01, 0.0],
                phase_offset_rad=1.0 + 0.3 * i,
            )
            for i, a in enumerate(antennas)
        ]
        return CalibratedArray(antennas=antennas, calibrations=calibrations)

    def test_centers_per_level(self):
        array = self._build()
        none = array.centers("none")
        full = array.centers("full")
        assert none[0] == pytest.approx([-0.3, 0.0])
        assert full[0] == pytest.approx([-0.28, -0.01])

    def test_offset_corrections(self):
        array = self._build()
        assert array.offset_corrections("none") == pytest.approx(np.zeros(3))
        assert array.offset_corrections("center") == pytest.approx(np.zeros(3))
        assert array.offset_corrections("full") == pytest.approx([0.0, 0.3, 0.6])

    def test_level_ordering_end_to_end(self):
        """Through locate_tag_with_array, full <= center in error."""
        array = self._build()
        tag = np.array([-0.05, 0.75])
        true_centers = np.vstack([c.estimated_center[:2] for c in array.calibrations])
        true_offsets = np.array([c.phase_offset_rad for c in array.calibrations])
        phases = _measured_phases(true_centers, tag, true_offsets)
        bounds = [(tag[0] - 0.12, tag[0] + 0.12), (tag[1] - 0.12, tag[1] + 0.12)]
        errors = {}
        for level in ("none", "center", "full"):
            result = locate_tag_with_array(array, phases, bounds, level=level,
                                           grid_size_m=0.004)
            errors[level] = np.linalg.norm(result.position - tag)
        assert errors["full"] <= errors["center"] + 1e-9
        assert errors["full"] < 0.01

    def test_validation(self):
        array = self._build()
        with pytest.raises(ValueError):
            CalibratedArray(antennas=array.antennas[:2], calibrations=array.calibrations)
        with pytest.raises(ValueError):
            CalibratedArray(antennas=array.antennas[:1], calibrations=array.calibrations[:1])
