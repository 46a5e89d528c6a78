"""Property-based tests (hypothesis) for the signal-processing substrate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.constants import TWO_PI
from repro.signalproc.smoothing import moving_average
from repro.signalproc.stats import circular_distance, mean_resultant_length
from repro.signalproc.unwrap import unwrap_phase
from repro.signalproc.wrapping import wrap_phase, wrap_to_pi

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

phase_profiles = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=200),
    elements=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)


class TestWrapProperties:
    @given(finite_floats)
    def test_wrap_phase_in_range(self, value):
        wrapped = wrap_phase(value)
        assert 0.0 <= wrapped < TWO_PI

    @given(finite_floats)
    def test_wrap_is_idempotent(self, value):
        once = wrap_phase(value)
        assert wrap_phase(once) == once

    @given(finite_floats)
    def test_wrap_preserves_value_mod_two_pi(self, value):
        wrapped = wrap_phase(value)
        assert abs(np.sin(wrapped) - np.sin(value)) < 1e-6
        assert abs(np.cos(wrapped) - np.cos(value)) < 1e-6

    @given(finite_floats)
    def test_wrap_to_pi_range(self, value):
        wrapped = wrap_to_pi(value)
        assert -np.pi < wrapped <= np.pi


class TestUnwrapProperties:
    @given(phase_profiles)
    def test_unwrap_starts_at_input(self, profile):
        wrapped = wrap_phase(profile)
        unwrapped = unwrap_phase(wrapped)
        assert unwrapped[0] == wrapped[0]

    @given(
        arrays(
            dtype=np.float64,
            shape=st.integers(min_value=2, max_value=150),
            elements=st.floats(min_value=-0.4, max_value=0.4, allow_nan=False),
        )
    )
    def test_unwrap_inverts_wrap_for_slow_profiles(self, steps):
        """For any profile whose true jumps stay below pi, unwrap o wrap == identity
        up to a constant multiple of 2*pi."""
        profile = np.cumsum(steps)
        recovered = unwrap_phase(wrap_phase(profile))
        deltas = recovered - profile
        assert np.allclose(deltas, deltas[0], atol=1e-9)
        assert abs(deltas[0] / TWO_PI - round(deltas[0] / TWO_PI)) < 1e-9

    @given(phase_profiles)
    def test_unwrap_has_no_large_jumps(self, profile):
        unwrapped = unwrap_phase(wrap_phase(profile))
        if unwrapped.size > 1:
            assert np.max(np.abs(np.diff(unwrapped))) <= np.pi + 1e-9


class TestSmoothingProperties:
    @given(
        arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=100),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        st.integers(min_value=1, max_value=15),
    )
    def test_output_within_input_range(self, values, window):
        smoothed = moving_average(values, window)
        assert np.min(smoothed) >= np.min(values) - 1e-9
        assert np.max(smoothed) <= np.max(values) + 1e-9

    @given(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.integers(min_value=5, max_value=50),
        st.integers(min_value=1, max_value=11),
    )
    def test_affine_signals_are_fixed_points(self, intercept, slope, n, window):
        values = intercept + slope * np.arange(n)
        smoothed = moving_average(values, window)
        assert np.allclose(smoothed, values, atol=1e-7 * max(1.0, abs(slope) * n))

    @given(
        arrays(
            dtype=np.float64,
            shape=st.integers(min_value=2, max_value=100),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        st.integers(min_value=1, max_value=9),
    )
    def test_mean_preserved_approximately(self, values, window):
        """Symmetric smoothing cannot shift the mean by more than the
        edge-window contribution."""
        smoothed = moving_average(values, window)
        spread = np.max(values) - np.min(values)
        slack = 1e-9 * max(1.0, float(np.max(np.abs(values))))
        assert abs(np.mean(smoothed) - np.mean(values)) <= spread + slack


class TestCircularStatsProperties:
    @given(
        arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=100),
            elements=st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
        )
    )
    def test_resultant_length_bounded(self, angles):
        r = mean_resultant_length(angles)
        assert -1e-12 <= r <= 1.0 + 1e-12

    @given(
        st.floats(min_value=0, max_value=TWO_PI - 1e-9),
        st.floats(min_value=0, max_value=TWO_PI - 1e-9),
    )
    def test_distance_symmetric_and_bounded(self, a, b):
        d = circular_distance(a, b)
        assert 0.0 <= d <= np.pi + 1e-12
        assert d == pytest.approx(circular_distance(b, a), abs=1e-9)

    @given(st.floats(min_value=0, max_value=TWO_PI - 1e-9))
    def test_distance_to_self_zero(self, a):
        assert circular_distance(a, a) == 0.0
