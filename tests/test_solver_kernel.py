"""Invariants of the float64 normal-equation IRLS kernel (repro.core.solvers).

The kernel promises four things beyond "it solves the system":

* it computes what a plain least-squares IRLS with the same stop rule
  computes, member by member (checked against a reference written here
  on ``np.linalg.lstsq``);
* a member's answer does not depend on its batchmates, their row counts
  or their order — bit for bit;
* a member the normal equations cannot solve reliably is answered by the
  factored solve, and leaves its batchmates alone;
* noiseless data, whose standard error is 0, stops on ``tolerance_m``.
"""

import numpy as np
import pytest

import repro.core.solvers as solvers
from repro.core.pairing import lag_pairs
from repro.core.solvers import (
    STOP_FRACTION,
    solve_least_squares,
    solve_weighted_least_squares,
    solve_weighted_least_squares_batch,
)
from repro.core.system import LinearSystem, build_system
from repro.core.uncertainty import estimate_uncertainty
from repro.core.weights import gaussian_residual_weights


def reference_irls(matrix, rhs, max_iterations=20, tolerance_m=1e-6):
    """Gaussian IRLS on ``np.linalg.lstsq`` with the kernel's stop rules."""
    live = np.any(matrix != 0.0, axis=0)

    def solve(weights):
        root = np.sqrt(weights)
        estimate = np.zeros(matrix.shape[1])
        estimate[live] = np.linalg.lstsq(
            matrix[:, live] * root[:, np.newaxis], rhs * root, rcond=None
        )[0]
        residuals = matrix @ estimate - rhs
        variance = np.sum(weights * residuals**2) / (np.sum(weights) - live.sum())
        gram = matrix[:, live].T @ (weights[:, np.newaxis] * matrix[:, live])
        return estimate, residuals, np.sqrt(variance * np.trace(np.linalg.pinv(gram)))

    estimate, residuals, ls_error = solve(np.ones(rhs.size))
    ls_estimate = estimate
    for round_index in range(1, max_iterations + 1):
        updated, residuals, error = solve(gaussian_residual_weights(residuals))
        if round_index == 1 and error > ls_error:
            return ls_estimate, round_index
        step = np.linalg.norm(updated - estimate)
        estimate = updated
        if step < max(tolerance_m, STOP_FRACTION * error):
            break
    return estimate, round_index


def _system(rng, rows, dim=2, noise=0.02, dead=None):
    matrix = rng.normal(size=(rows, dim + 1))
    if dead is not None:
        matrix[:, dead] = 0.0
    truth = rng.normal(size=dim + 1)
    if dead is not None:
        truth[dead] = 0.0
    rhs = matrix @ truth + rng.normal(0.0, noise, size=rows)
    return LinearSystem(matrix=matrix, rhs=rhs, dim=dim)


def _radical_system(seed, dim):
    """A noisy radical system from a random scan around a random target."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, size=(40, dim))
    target = rng.uniform(-0.5, 0.5, size=dim) + np.r_[np.zeros(dim - 1), 1.5]
    distances = np.linalg.norm(positions - target, axis=1)
    deltas = distances - distances[0] + rng.normal(0.0, 0.003, distances.size)
    return build_system(positions, deltas, lag_pairs(len(positions), 3), dim=dim)


def _near_collinear(rng, rows=30):
    system = _system(rng, rows)
    matrix = system.matrix.copy()
    matrix[:, 1] = matrix[:, 0] + 1e-7 * rng.normal(size=rows)
    return LinearSystem(matrix=matrix, rhs=system.rhs, dim=2)


def _assert_identical(ours, theirs):
    assert np.array_equal(ours.estimate, theirs.estimate)
    assert np.array_equal(ours.residuals, theirs.residuals)
    assert np.array_equal(ours.weights, theirs.weights)
    assert np.array_equal(ours.position_std_m, theirs.position_std_m)
    assert ours.iterations == theirs.iterations
    assert ours.converged == theirs.converged


class TestAgainstLstsqReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_radical_systems(self, seed, dim):
        system = _radical_system(seed, dim)
        expected, rounds = reference_irls(system.matrix, system.rhs)
        solution = solve_weighted_least_squares(system)
        assert np.max(np.abs(solution.estimate - expected)) < 1e-9
        assert solution.iterations == rounds

    @pytest.mark.parametrize("seed", range(6))
    def test_dead_column_systems(self, seed):
        system = _system(np.random.default_rng(seed), 45, dead=1)
        expected, rounds = reference_irls(system.matrix, system.rhs)
        solution = solve_weighted_least_squares(system)
        assert np.max(np.abs(solution.estimate - expected)) < 1e-9
        assert solution.estimate[1] == 0.0
        assert solution.position_std_m[1] == 0.0
        assert solution.iterations == rounds


class TestBatchInvariance:
    def test_ragged_batches_match_batch_of_one_bitwise(self):
        rng = np.random.default_rng(21)
        pool = [_system(rng, rows) for rows in (5, 12, 12, 30, 30, 30, 47, 90)]
        pool += [_system(rng, 30, dead=1), _system(rng, 12, dead=0)]
        pool += [_system(rng, 2), _near_collinear(rng, 30)]  # degenerate members
        pool += [_system(rng, 25, dim=3), _system(rng, 25, dim=3)]
        alone = [solve_weighted_least_squares(system) for system in pool]
        for _ in range(25):
            picks = rng.choice(len(pool), size=int(rng.integers(1, 9)), replace=False)
            batch = solve_weighted_least_squares_batch([pool[index] for index in picks])
            for index, solution in zip(picks, batch):
                _assert_identical(solution, alone[index])


class TestEjection:
    def test_near_collinear_member_goes_to_factored_solve(self, monkeypatch):
        rng = np.random.default_rng(23)
        healthy = [_system(rng, 30), _system(rng, 30)]
        degenerate = _near_collinear(rng, 30)
        factored = []
        original = solvers._factored_round

        def spy(groups, dead, right):
            factored.append(sum(len(group.ids) for group in groups))
            return original(groups, dead, right)

        monkeypatch.setattr(solvers, "_factored_round", spy)
        batch = solve_weighted_least_squares_batch([healthy[0], degenerate, healthy[1]])
        assert factored and set(factored) == {1}
        expected, _ = reference_irls(degenerate.matrix, degenerate.rhs)
        np.testing.assert_allclose(batch[1].estimate, expected, rtol=1e-7, atol=1e-9)
        for system, solution in zip(healthy, (batch[0], batch[2])):
            _assert_identical(solution, solve_weighted_least_squares(system))

    def test_rank_deficient_member_ejected_alone(self):
        rng = np.random.default_rng(26)
        healthy = [_system(rng, 25), _system(rng, 25)]
        system = _system(rng, 25)
        matrix = system.matrix.copy()
        matrix[:, 1] = matrix[:, 0]  # exactly singular Gram
        degenerate = LinearSystem(matrix=matrix, rhs=system.rhs, dim=2)
        batch = solve_weighted_least_squares_batch([healthy[0], degenerate, healthy[1]])
        _assert_identical(batch[1], solve_weighted_least_squares(degenerate))
        for member, solution in zip(healthy, (batch[0], batch[2])):
            _assert_identical(solution, solve_weighted_least_squares(member))

    def test_empty_member_rejected(self):
        rng = np.random.default_rng(27)
        empty = LinearSystem(matrix=np.zeros((0, 3)), rhs=np.zeros(0), dim=2)
        with pytest.raises(ValueError, match="empty"):
            solve_weighted_least_squares_batch([_system(rng, 10), empty])

    def test_underdetermined_member_gets_minimum_norm(self):
        rng = np.random.default_rng(24)
        system = _system(rng, 2)
        solution = solve_least_squares(system)
        expected = np.linalg.lstsq(system.matrix, system.rhs, rcond=None)[0]
        np.testing.assert_allclose(solution.estimate, expected, atol=1e-12)


class TestStopRule:
    def test_noiseless_system_stops_on_tolerance(self):
        rng = np.random.default_rng(25)
        system = _system(rng, 40, noise=0.0)
        truth = np.linalg.lstsq(system.matrix, system.rhs, rcond=None)[0]
        solution = solve_weighted_least_squares(system, tolerance_m=1e-6)
        assert solution.iterations == 1
        assert solution.converged
        assert np.max(np.abs(solution.estimate - truth)) < 1e-12
        # The standard error is ~0, so only the tolerance floor could stop it.
        assert STOP_FRACTION * np.linalg.norm(solution.position_std_m) < 1e-12

    def test_standard_error_matches_uncertainty_module(self):
        for seed in range(4):
            system = _radical_system(seed, 2)
            for solution in (
                solve_least_squares(system),
                solve_weighted_least_squares(system),
            ):
                formal = estimate_uncertainty(system, solution)
                np.testing.assert_allclose(
                    solution.position_std_m, formal.position_std_m, rtol=1e-9
                )

    def test_ls_guard_returns_round_zero_answer(self):
        # Hypothesis example of the WLS-vs-LS property (seed 99): Eq. (15)
        # re-weighting drifted 25 mm from a 0.4 mm LS answer, and round 1
        # inflated the formal standard error over plain LS.
        positions = np.array(
            [[-0.92325076, 0.25755653], [0.61991927, -0.80147019],
             [0.15285625, 0.15612488], [0.21175759, -0.03906222],
             [0.33723094, -0.79437362], [0.09515207, -0.38791823],
             [-0.47621367, 0.16091728], [-0.42540336, -0.5917689],
             [0.75776295, 0.49030602], [-0.51391634, -0.24412596],
             [-0.36743464, -0.08113492], [0.88667148, -0.8331816],
             [0.22299965, -0.04773609], [-0.05964712, 0.96519161],
             [0.34657889, -0.61085983], [-0.08916883, 0.84537222],
             [0.64764865, 0.60369035], [-0.52893212, 0.89586947],
             [0.32880629, 0.77040365], [0.67695567, 0.51161137]]
        )
        target = np.array([0.125, 2.0])
        distances = np.linalg.norm(positions - target, axis=1)
        noise = np.random.default_rng(1592).normal(0.0, 0.002, len(positions))
        system = build_system(
            positions, distances - distances[0] + noise, lag_pairs(len(positions), 1)
        )
        ls = solve_least_squares(system)
        wls = solve_weighted_least_squares(system)
        assert np.array_equal(wls.estimate, ls.estimate)
        assert np.all(wls.weights == 1.0)
        assert wls.iterations == 1 and wls.converged
