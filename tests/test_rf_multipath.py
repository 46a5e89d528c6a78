"""Tests for repro.rf.multipath."""

import pytest

from repro.constants import DEFAULT_WAVELENGTH_M
from repro.rf.multipath import Reflector, WallReflector, multipath_components


class TestReflector:
    def test_path_length(self):
        reflector = Reflector(image_position=(0.0, 0.0, 0.0))
        assert reflector.path_length((3.0, 4.0, 0.0)) == pytest.approx(5.0)

    def test_amplitude_validated(self):
        with pytest.raises(ValueError):
            Reflector(image_position=(0, 0, 0), amplitude=1.5)


class TestWallReflector:
    def test_image_mirrored_across_plane(self):
        wall = WallReflector(point_on_plane=(0.0, 2.0, 0.0), normal=(0.0, 1.0, 0.0))
        image = wall.image_for((0.0, 0.5, 0.0))
        assert image.image_array() == pytest.approx([0.0, 3.5, 0.0])

    def test_image_preserves_in_plane_coordinates(self):
        wall = WallReflector(point_on_plane=(5.0, 0.0, 0.0), normal=(1.0, 0.0, 0.0))
        image = wall.image_for((1.0, 2.0, 3.0))
        assert image.image_array() == pytest.approx([9.0, 2.0, 3.0])

    def test_antenna_on_plane_maps_to_itself(self):
        wall = WallReflector(point_on_plane=(0.0, 1.0, 0.0), normal=(0.0, 1.0, 0.0))
        image = wall.image_for((0.3, 1.0, -0.2))
        assert image.image_array() == pytest.approx([0.3, 1.0, -0.2])

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            WallReflector(point_on_plane=(0, 0, 0), normal=(0, 0, 0))


class TestMultipathComponents:
    def test_no_reflectors_zero(self):
        assert multipath_components([], (1.0, 0.0, 0.0), DEFAULT_WAVELENGTH_M, 1.0) == 0.0

    def test_magnitude_scales_with_amplitude(self):
        tag = (0.0, 1.0, 0.0)
        weak = multipath_components(
            [Reflector((0.0, -3.0, 0.0), amplitude=0.1)], tag, DEFAULT_WAVELENGTH_M, 1.0
        )
        strong = multipath_components(
            [Reflector((0.0, -3.0, 0.0), amplitude=0.3)], tag, DEFAULT_WAVELENGTH_M, 1.0
        )
        # The mixed (dominant) term is linear in the reflection amplitude.
        assert abs(strong) == pytest.approx(3.0 * abs(weak), rel=0.05)

    def test_mixed_term_dominates_double_bounce(self):
        tag = (0.0, 1.0, 0.0)
        reflector = Reflector((0.0, -3.0, 0.0), amplitude=0.3)
        total = multipath_components([reflector], tag, DEFAULT_WAVELENGTH_M, 1.0)
        length = reflector.path_length(tag)
        mixed = 2.0 * reflector.amplitude / (1.0 * length)
        double = (reflector.amplitude / length) ** 2
        assert abs(total) <= mixed + double
        assert abs(total) >= mixed - double

    def test_departure_gain_attenuates(self):
        tag = (0.0, 1.0, 0.0)
        reflector = Reflector((0.0, -3.0, 0.0), amplitude=0.3)
        full = multipath_components(
            [reflector], tag, DEFAULT_WAVELENGTH_M, 1.0, departure_gains=[1.0]
        )
        suppressed = multipath_components(
            [reflector], tag, DEFAULT_WAVELENGTH_M, 1.0, departure_gains=[0.01]
        )
        assert abs(suppressed) < abs(full) * 0.2

    def test_relative_influence_grows_with_depth(self):
        """The Fig. 14(b) mechanism: echo-to-LoS ratio rises with depth."""
        reflector = Reflector((0.0, 4.0, 0.0), amplitude=0.3)
        ratios = []
        for depth in (0.6, 1.0, 1.6):
            tag = (0.0, 0.0, 0.0)
            # Antenna at (0, depth, 0); image fixed beyond it.
            echo = abs(
                multipath_components([reflector], tag, DEFAULT_WAVELENGTH_M, depth)
            )
            los = 1.0 / depth**2
            ratios.append(echo / los)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_gain_list_length_validated(self):
        with pytest.raises(ValueError):
            multipath_components(
                [Reflector((0, 0, 0))], (1, 1, 1), DEFAULT_WAVELENGTH_M, 1.0,
                departure_gains=[1.0, 1.0],
            )

    def test_bad_wavelength_rejected(self):
        with pytest.raises(ValueError):
            multipath_components([], (1, 1, 1), 0.0, 1.0)

    def test_bad_distance_rejected(self):
        with pytest.raises(ValueError):
            multipath_components([], (1, 1, 1), DEFAULT_WAVELENGTH_M, 0.0)
