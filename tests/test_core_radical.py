"""Tests for repro.core.radical — Eq. (7) and Eq. (9) row construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.radical import _coincident, radical_row, radical_rows


def _exact_row_check(target, reference, position_i, position_j):
    """A radical row built from exact geometry must be satisfied by the target."""
    target = np.asarray(target, dtype=float)
    reference = np.asarray(reference, dtype=float)
    d_r = float(np.linalg.norm(target - reference))
    delta_i = float(np.linalg.norm(target - position_i)) - d_r
    delta_j = float(np.linalg.norm(target - position_j)) - d_r
    coefficients, kappa = radical_row(position_i, delta_i, position_j, delta_j)
    unknowns = np.concatenate([target, [d_r]])
    assert float(coefficients @ unknowns) == pytest.approx(kappa, abs=1e-9)


class TestRadicalRow2D:
    def test_exact_geometry_satisfies_row(self):
        _exact_row_check(
            target=[0.5, 1.2],
            reference=[0.0, 0.0],
            position_i=np.array([0.3, 0.0]),
            position_j=np.array([-0.3, 0.0]),
        )

    def test_many_random_geometries(self, rng):
        for _ in range(25):
            target = rng.uniform(-1, 1, size=2)
            points = rng.uniform(-1, 1, size=(3, 2))
            _exact_row_check(target, points[0], points[1], points[2])

    def test_coefficient_structure(self):
        coefficients, _ = radical_row(
            np.array([0.4, 0.0]), 0.01, np.array([0.1, 0.2]), 0.03
        )
        assert coefficients[0] == pytest.approx(2 * (0.4 - 0.1))
        assert coefficients[1] == pytest.approx(2 * (0.0 - 0.2))
        assert coefficients[2] == pytest.approx(2 * (0.01 - 0.03))

    def test_kappa_structure(self):
        pi, pj = np.array([0.4, 0.1]), np.array([0.1, 0.2])
        di, dj = 0.01, 0.03
        _, kappa = radical_row(pi, di, pj, dj)
        expected = pi @ pi - pj @ pj - di**2 + dj**2
        assert kappa == pytest.approx(expected)

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError):
            radical_row(np.array([1.0, 1.0]), 0.0, np.array([1.0, 1.0]), 0.1)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            radical_row(np.array([1.0, 1.0]), 0.0, np.array([1.0, 1.0, 1.0]), 0.1)


class TestRadicalRow3D:
    def test_exact_geometry_satisfies_row(self, rng):
        for _ in range(25):
            target = rng.uniform(-1, 1, size=3)
            points = rng.uniform(-1, 1, size=(3, 3))
            _exact_row_check(target, points[0], points[1], points[2])

    def test_row_width(self):
        coefficients, _ = radical_row(
            np.array([1.0, 0.0, 0.0]), 0.0, np.array([0.0, 1.0, 0.0]), 0.0
        )
        assert coefficients.shape == (4,)


class TestRadicalRows:
    def test_matches_scalar_construction(self, rng):
        positions = rng.uniform(-1, 1, size=(6, 2))
        deltas = rng.uniform(-0.1, 0.1, size=6)
        pairs = [(0, 1), (2, 3), (1, 5)]
        matrix, rhs = radical_rows(positions, deltas, pairs)
        for row_index, (i, j) in enumerate(pairs):
            coefficients, kappa = radical_row(
                positions[i], deltas[i], positions[j], deltas[j]
            )
            assert matrix[row_index] == pytest.approx(coefficients)
            assert rhs[row_index] == pytest.approx(kappa)

    def test_shapes(self, rng):
        positions = rng.uniform(-1, 1, size=(5, 3))
        deltas = np.zeros(5)
        matrix, rhs = radical_rows(positions, deltas, [(0, 1), (1, 2)])
        assert matrix.shape == (2, 4)
        assert rhs.shape == (2,)

    def test_empty_pairs_rejected(self, rng):
        with pytest.raises(ValueError):
            radical_rows(np.zeros((3, 2)), np.zeros(3), [])

    def test_out_of_range_index_rejected(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            radical_rows(positions, np.zeros(2), [(0, 5)])

    def test_coincident_pair_rejected(self):
        positions = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            radical_rows(positions, np.zeros(2), [(0, 1)])

    def test_delta_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            radical_rows(np.zeros((3, 2)), np.zeros(4), [(0, 1)])


def _band_edge_candidates(value):
    """Floats a few ulps either side of the top of ``value``'s tolerance band."""
    edge = value + (1e-8 + 1e-5 * abs(value))
    candidates = [edge]
    below = above = edge
    for _ in range(3):
        below = np.nextafter(below, -np.inf)
        above = np.nextafter(above, np.inf)
        candidates += [below, above]
    return candidates


@pytest.mark.filterwarnings("error")
class TestCoincident:
    """The one coincident-pair rule equals ``np.isclose`` on every input."""

    @pytest.mark.parametrize(
        "first, second",
        [
            ([0.3, 0.8], [0.3, 0.8]),
            ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
            ([-0.0, 1e-300], [0.0, 0.0]),
            ([0.3, 0.8], [0.3, 0.80001]),
            ([1e6, 1.0], [1e6 + 5.0, 1.0]),
            ([1e6, 1.0], [1e6 + 20.0, 1.0]),
        ],
        ids=["equal", "origin", "signed-zero-and-tiny", "off", "large-inside", "large-outside"],
    )
    def test_finite_pairs(self, first, second):
        first, second = np.asarray(first), np.asarray(second)
        assert _coincident(first, second) == np.all(np.isclose(first, second))

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.75, 1e-3, 123.456, -1e6])
    def test_just_inside_and_just_outside_the_tolerance(self, value):
        candidates = _band_edge_candidates(value)
        verdicts = []
        for candidate in candidates:
            first, second = np.array([candidate, 0.5]), np.array([value, 0.5])
            expected = bool(np.isclose(candidate, value))
            assert bool(_coincident(first, second)) == expected, candidate
            verdicts.append(expected)
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize(
        "first, second",
        [
            (np.inf, np.inf),
            (-np.inf, -np.inf),
            (np.inf, -np.inf),
            (np.inf, 1.0),
            (1.0, np.inf),
            (1e308, np.inf),
            (np.nan, np.nan),
            (np.nan, 1.0),
            (1.0, np.nan),
            (np.nan, np.inf),
        ],
    )
    def test_non_finite_values(self, first, second):
        pair = (np.array([first, 0.2]), np.array([second, 0.2]))
        assert bool(_coincident(*pair)) == bool(np.all(np.isclose(*pair)))

    def test_rows_of_pairs(self, rng):
        first = rng.normal(size=(64, 2))
        second = first.copy()
        second[::3] += rng.normal(scale=1e-6, size=(22, 2))
        second[1::5, 0] = np.inf
        second[2::7, 1] = np.nan
        np.testing.assert_array_equal(
            _coincident(first, second), np.all(np.isclose(first, second), axis=1)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        first=st.lists(st.floats(), min_size=2, max_size=3),
        offsets=st.lists(
            st.sampled_from([0.0, 1e-9, -1e-9, 1e-8, 1e-6, 1e-5, 1e-4]) | st.floats(),
            min_size=3,
            max_size=3,
        ),
    )
    def test_matches_isclose(self, first, offsets):
        first = np.asarray(first)
        with np.errstate(all="ignore"):
            second = first + np.asarray(offsets[: first.shape[0]])
        for a, b in ((first, second), (second, first)):
            assert bool(_coincident(a, b)) == bool(np.all(np.isclose(a, b)))
