"""Tests for repro.parallel and its integration into the evaluation stack.

The load-bearing guarantee: parallelism never changes an answer. Every
backend must produce bit-identical results for Monte-Carlo studies, and
the batched solver and the adaptive sweep must match their serial
references.

Work functions used with the process backend live at module level so the
pool can pickle them.
"""

import numpy as np
import pytest

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.adaptive import ParameterGrid, _adaptive_localize_impl
from repro.core.localizer import LionLocalizer, PreprocessConfig
from repro.core.system import LinearSystem
from repro.core.solvers import (
    solve_weighted_least_squares,
    solve_weighted_least_squares_batch,
)
from repro.core.weights import huber_weights
from repro.experiments.montecarlo import run_monte_carlo
from repro.parallel import (
    JOBS_ENV_VAR,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    chunk_items,
    default_chunk_size,
    get_executor,
    resolve_jobs,
    set_default_jobs,
)
from repro.pipeline import EstimationRequest, estimate_many

BACKENDS = ("serial", "thread", "process")


def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise RuntimeError("three")
    return x


def _mc_trial(rng):
    return {"v": float(rng.normal()), "w": float(rng.random())}


def _flaky_trial(rng):
    if rng.random() < 0.3:
        raise RuntimeError("flaky")
    return {"v": float(rng.random())}


class TestJobResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert resolve_jobs(3) == 3

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs() == 5

    def test_session_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        set_default_jobs(2)
        try:
            assert resolve_jobs() == 2
        finally:
            set_default_jobs(None)

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs() >= 1

    def test_rejects_bad_values(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            set_default_jobs(-1)
        monkeypatch.setenv(JOBS_ENV_VAR, "zero")
        with pytest.raises(ValueError):
            resolve_jobs()
        monkeypatch.setenv(JOBS_ENV_VAR, "-2")
        with pytest.raises(ValueError):
            resolve_jobs()


class TestChunking:
    def test_chunks_preserve_order(self):
        chunks = chunk_items(list(range(10)), 3)
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_items([1], 0)

    def test_default_chunk_size(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(100, 4) * 4 * 4 >= 100
        assert default_chunk_size(3, 8) == 1


class TestExecutors:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_preserves_order(self, backend):
        executor = get_executor(backend, jobs=2)
        assert executor.map(_square, range(25)) == [x * x for x in range(25)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_empty(self, backend):
        executor = get_executor(backend, jobs=2)
        assert executor.map(_square, []) == []

    def test_map_reduce_without_reducer_returns_list(self):
        assert SerialExecutor().map_reduce(_square, range(4)) == [0, 1, 4, 9]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_reduce_folds_in_order(self, backend):
        executor = get_executor(backend, jobs=2)
        # Non-commutative fold: string concatenation pins the order.
        result = executor.map_reduce(
            str, range(8), reduce_fn=lambda acc, item: acc + item, initial=""
        )
        assert result == "01234567"

    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_exceptions_propagate(self, backend):
        executor = get_executor(backend, jobs=2)
        with pytest.raises(RuntimeError):
            executor.map(_raise_on_three, range(6))

    def test_explicit_chunk_size(self):
        executor = ThreadExecutor(jobs=2, chunk_size=2)
        assert executor.map(_square, range(7)) == [x * x for x in range(7)]

    def test_executor_passthrough(self):
        executor = ThreadExecutor(jobs=2)
        assert get_executor(executor) is executor

    def test_none_is_serial(self):
        assert isinstance(get_executor(None), SerialExecutor)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_executor("gpu")

    def test_backend_names(self):
        assert SerialExecutor().name == "serial"
        assert ThreadExecutor(jobs=1).name == "thread"
        assert ProcessExecutor(jobs=1).name == "process"


class TestMonteCarloBackends:
    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_bit_identical_to_serial(self, backend):
        serial = run_monte_carlo(_mc_trial, trials=60, seed=11)
        parallel = run_monte_carlo(
            _mc_trial, trials=60, seed=11, executor=backend, jobs=3
        )
        assert parallel.trials == serial.trials
        for name in ("v", "w"):
            assert np.array_equal(serial[name].samples, parallel[name].samples)
            assert serial[name].mean == parallel[name].mean
            assert serial[name].ci_low == parallel[name].ci_low
            assert serial[name].ci_high == parallel[name].ci_high
            assert serial[name].failures == parallel[name].failures

    def test_failures_counted_identically(self):
        serial = run_monte_carlo(_flaky_trial, trials=80, seed=4)
        threaded = run_monte_carlo(
            _flaky_trial, trials=80, seed=4, executor="thread", jobs=4
        )
        assert np.array_equal(serial["v"].samples, threaded["v"].samples)
        assert serial["v"].failures == threaded["v"].failures

    def test_strict_mode_raises_on_parallel_backend(self):
        with pytest.raises(RuntimeError):
            run_monte_carlo(
                _flaky_trial,
                trials=40,
                seed=4,
                tolerate_failures=False,
                executor="thread",
                jobs=2,
            )


class TestBootstrapSeed:
    def test_explicit_seed_reproducible(self):
        first = run_monte_carlo(_mc_trial, trials=30, seed=1, bootstrap_seed=99)
        second = run_monte_carlo(_mc_trial, trials=30, seed=1, bootstrap_seed=99)
        assert first["v"].ci_low == second["v"].ci_low
        assert first["v"].ci_high == second["v"].ci_high

    def test_default_derived_from_seed(self):
        implicit = run_monte_carlo(_mc_trial, trials=30, seed=1)
        explicit = run_monte_carlo(
            _mc_trial, trials=30, seed=1, bootstrap_seed=1 ^ 0x5EED
        )
        assert implicit["v"].ci_low == explicit["v"].ci_low

    def test_seed_changes_ci_not_samples(self):
        base = run_monte_carlo(_mc_trial, trials=30, seed=1)
        other = run_monte_carlo(_mc_trial, trials=30, seed=1, bootstrap_seed=7)
        assert np.array_equal(base["v"].samples, other["v"].samples)
        assert base["v"].ci_low != other["v"].ci_low


def _random_systems(count, rows=40, dim=2, seed=0, noise=0.02):
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(count):
        matrix = rng.normal(size=(rows, dim + 1))
        truth = rng.normal(size=dim + 1)
        rhs = matrix @ truth + rng.normal(0.0, noise, size=rows)
        systems.append(LinearSystem(matrix=matrix, rhs=rhs, dim=dim))
    return systems


class TestBatchedWls:
    def test_matches_scalar_solver_on_50_systems(self):
        systems = _random_systems(50, seed=5)
        batch = solve_weighted_least_squares_batch(systems)
        for system, solution in zip(systems, batch):
            reference = solve_weighted_least_squares(system)
            assert solution.estimate == pytest.approx(reference.estimate, abs=1e-10)
            assert solution.residuals == pytest.approx(reference.residuals, abs=1e-10)
            assert solution.normalized_residuals == pytest.approx(
                reference.normalized_residuals, abs=1e-10
            )
            assert solution.weights == pytest.approx(reference.weights, abs=1e-10)
            assert solution.iterations == reference.iterations
            assert solution.converged == reference.converged

    def test_matches_scalar_solver_3d(self):
        systems = _random_systems(20, rows=60, dim=3, seed=6)
        batch = solve_weighted_least_squares_batch(systems)
        for system, solution in zip(systems, batch):
            reference = solve_weighted_least_squares(system)
            assert solution.estimate == pytest.approx(reference.estimate, abs=1e-10)

    def test_alternative_weight_function(self):
        systems = _random_systems(10, seed=7)
        batch = solve_weighted_least_squares_batch(systems, weight_function=huber_weights)
        for system, solution in zip(systems, batch):
            reference = solve_weighted_least_squares(
                system, weight_function=huber_weights
            )
            assert solution.estimate == pytest.approx(reference.estimate, abs=1e-10)

    def test_ragged_batch_falls_back(self):
        systems = _random_systems(3, rows=40, seed=8) + _random_systems(
            3, rows=25, seed=9
        )
        batch = solve_weighted_least_squares_batch(systems)
        assert len(batch) == 6
        for system, solution in zip(systems, batch):
            reference = solve_weighted_least_squares(system)
            assert solution.estimate == pytest.approx(reference.estimate, abs=1e-12)

    def test_underdetermined_falls_back_to_min_norm(self):
        rng = np.random.default_rng(10)
        matrix = rng.normal(size=(2, 3))
        rhs = rng.normal(size=2)
        system = LinearSystem(matrix=matrix, rhs=rhs, dim=2)
        (solution,) = solve_weighted_least_squares_batch([system])
        reference = solve_weighted_least_squares(system)
        assert solution.estimate == pytest.approx(reference.estimate, abs=1e-12)

    def test_rank_deficient_falls_back(self):
        # Second column is a copy of the first: the stacked QR path cannot
        # solve this; the result must still match lstsq's minimum norm.
        rng = np.random.default_rng(11)
        column = rng.normal(size=(20, 1))
        matrix = np.hstack([column, column, rng.normal(size=(20, 1))])
        rhs = rng.normal(size=20)
        system = LinearSystem(matrix=matrix, rhs=rhs, dim=2)
        (solution,) = solve_weighted_least_squares_batch([system])
        reference = solve_weighted_least_squares(system)
        assert solution.estimate == pytest.approx(reference.estimate, abs=1e-10)

    def test_empty_batch(self):
        assert solve_weighted_least_squares_batch([]) == []

    def test_empty_system_rejected(self):
        system = LinearSystem(matrix=np.zeros((0, 3)), rhs=np.zeros(0), dim=2)
        with pytest.raises(ValueError):
            solve_weighted_least_squares_batch([system])

    def test_parameter_validation(self):
        systems = _random_systems(1)
        with pytest.raises(ValueError):
            solve_weighted_least_squares_batch(systems, max_iterations=0)
        with pytest.raises(ValueError):
            solve_weighted_least_squares_batch(systems, tolerance_m=0.0)


def _noisy_scan(target, seed=0, n=400, half=1.0, noise_std=0.08):
    rng = np.random.default_rng(seed)
    x = np.linspace(-half, half, n)
    positions = np.stack([x, np.zeros_like(x)], axis=1)
    distances = np.linalg.norm(positions - target[np.newaxis, :], axis=1)
    phases = 2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances + 0.4
    phases = phases + rng.normal(0.0, noise_std, size=n)
    return positions, np.mod(phases, TWO_PI)


def _seed_reference_sweep(localizer, positions, phases, grid):
    """The pre-parallel adaptive sweep: one full locate() per grid cell."""
    points = np.asarray(positions, dtype=float)
    outcomes = []
    for range_m in grid.ranges_m:
        coordinate = points[:, grid.axis]
        exclude = np.abs(coordinate - grid.center) > range_m / 2.0
        for interval_m in grid.intervals_m:
            if interval_m >= range_m:
                continue
            try:
                result = localizer.locate(
                    points,
                    phases,
                    exclude_mask=exclude,
                    interval_m=interval_m,
                )
            except ValueError:
                continue
            outcomes.append((range_m, interval_m, result))
    return outcomes


class TestAdaptiveSweepBackends:
    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_backends_match_serial(self, backend):
        """Sweeps fan out one scan per worker through ``estimate_many``."""
        requests = []
        for seed in (3, 4, 5):
            positions, phases = _noisy_scan(np.array([0.05, 0.85]), seed=seed)
            requests.append(EstimationRequest(positions=positions, phases_rad=phases))
        config = {"dim": 2, "ranges_m": (0.7, 0.9, 1.1), "intervals_m": (0.15, 0.25)}
        serial = estimate_many("lion-adaptive", requests, config)
        parallel = estimate_many("lion-adaptive", requests, config, executor=backend, jobs=2)
        for ours, theirs in zip(serial, parallel):
            assert np.array_equal(ours.position, theirs.position)
            assert ours.reference_distance_m == theirs.reference_distance_m
            assert ours.raw.selected == theirs.raw.selected
            assert len(ours.raw.outcomes) == len(theirs.raw.outcomes)
            for mine, ref in zip(ours.raw.outcomes, theirs.raw.outcomes):
                assert np.array_equal(mine.result.position, ref.result.position)

    def test_matches_seed_implementation(self):
        """The hoisted-preprocessing sweep reproduces the per-cell pipeline."""
        target = np.array([0.0, 0.9])
        positions, phases = _noisy_scan(target, seed=5)
        grid = ParameterGrid(ranges_m=(0.7, 0.9, 1.1), intervals_m=(0.15, 0.25))
        localizer = LionLocalizer(dim=2, preprocess=PreprocessConfig(smoothing_window=9))
        result = _adaptive_localize_impl(localizer, positions, phases, grid=grid)
        reference = _seed_reference_sweep(localizer, positions, phases, grid)
        assert len(result.outcomes) == len(reference)
        for outcome, (range_m, interval_m, ref) in zip(result.outcomes, reference):
            assert outcome.range_m == range_m
            assert outcome.interval_m == interval_m
            assert np.array_equal(outcome.result.position, ref.position)
            assert outcome.result.mean_residual == ref.mean_residual


class TestLocalizerPreprocessedPath:
    def test_assume_preprocessed_skips_preprocessing(self):
        target = np.array([0.1, 0.8])
        positions, phases = _noisy_scan(target, seed=7)
        localizer = LionLocalizer(dim=2)
        direct = localizer.locate(positions, phases)
        profile = localizer.preprocess_phase(phases)
        prepared = localizer.locate(positions, profile, assume_preprocessed=True)
        assert np.array_equal(direct.position, prepared.position)
        assert direct.reference_distance_m == prepared.reference_distance_m
