"""Ablation: weighting function — Gaussian (paper) vs uniform vs Huber.

DESIGN.md design choice: the paper weights equations by a Gaussian of
their residual (Eq. 15). This bench compares it against no weighting and
the classical Huber IRLS weights under bursty corruption, plus one pass
vs iterated re-weighting.
"""

import numpy as np

from repro.core.localizer import LionLocalizer, PreprocessConfig
from repro.core.pairing import spacing_pairs
from repro.core.solvers import solve_least_squares, solve_weighted_least_squares
from repro.core.system import build_system
from repro.core.weights import gaussian_residual_weights, huber_weights
from repro.datasets.synthetic import simulate_scan
from repro.rf.antenna import Antenna
from repro.rf.noise import BurstyPhaseNoise, SnrScaledPhaseNoise
from repro.trajectory.linear import LinearTrajectory


def _corrupted_scans(repetitions: int):
    rng = np.random.default_rng(42)
    scans = []
    for _ in range(repetitions):
        x0 = float(rng.uniform(-0.2, 0.2))
        antenna = Antenna(physical_center=(x0, 0.8, 0.0), boresight=(0, -1, 0))
        noise = BurstyPhaseNoise(
            base=SnrScaledPhaseNoise(base_std_rad=0.1, reference_distance_m=0.8),
            burst_probability=0.05,
            burst_magnitude_rad=1.5,
        )
        scan = simulate_scan(
            LinearTrajectory((x0 - 0.5, 0, 0), (x0 + 0.5, 0, 0)),
            antenna, rng=rng, noise=noise, read_rate_hz=60.0,
        )
        scans.append((scan, antenna.phase_center[:2]))
    return scans


def _solve_with(scan, truth, method, **kwargs):
    localizer = LionLocalizer(
        dim=2,
        method=method,
        interval_m=0.25,
        preprocess=PreprocessConfig(smoothing_window=1),
        **kwargs,
    )
    result = localizer.locate(scan.positions, scan.phases)
    return float(np.linalg.norm(result.position - truth))


def test_bench_weight_functions(benchmark):
    scans = _corrupted_scans(8)

    def run():
        errors = {"uniform(LS)": [], "gaussian(WLS)": [], "gaussian-1-pass": []}
        for scan, truth in scans:
            errors["uniform(LS)"].append(_solve_with(scan, truth, "ls"))
            errors["gaussian(WLS)"].append(_solve_with(scan, truth, "wls"))
            errors["gaussian-1-pass"].append(
                _solve_with(scan, truth, "wls", max_iterations=1)
            )
        return {name: float(np.mean(values)) for name, values in errors.items()}

    means = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print("== ablation: weighting function (mean error, cm) ==")
    for name, value in means.items():
        print(f"  {name}: {value * 100:.3f}")

    # The paper's Gaussian weighting beats plain LS...
    assert means["gaussian(WLS)"] < means["uniform(LS)"]
    # ...and iterating at least matches a single re-weighting pass.
    assert means["gaussian(WLS)"] <= means["gaussian-1-pass"] * 1.5


def test_bench_weight_functions_on_raw_system(benchmark):
    """Same ablation at the solver level, including Huber."""
    rng = np.random.default_rng(3)
    target = np.array([0.1, 0.9])
    angles = np.linspace(0, 2 * np.pi, 120, endpoint=False)
    positions = 0.35 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    distances = np.linalg.norm(positions - target, axis=1)

    def run():
        errors = {"ls": [], "gaussian": [], "huber": []}
        for _ in range(10):
            deltas = distances - distances[0] + rng.normal(0, 0.001, 120)
            corrupt = rng.choice(120, size=8, replace=False)
            deltas[corrupt] += rng.uniform(0.02, 0.06, 8)
            system = build_system(positions, deltas, spacing_pairs(positions, 0.25))
            errors["ls"].append(
                np.linalg.norm(solve_least_squares(system).position - target)
            )
            errors["gaussian"].append(
                np.linalg.norm(
                    solve_weighted_least_squares(
                        system, weight_function=gaussian_residual_weights
                    ).position - target
                )
            )
            errors["huber"].append(
                np.linalg.norm(
                    solve_weighted_least_squares(
                        system, weight_function=huber_weights
                    ).position - target
                )
            )
        return {name: float(np.mean(values)) for name, values in errors.items()}

    means = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print("== ablation: solver weight functions (mean error, cm) ==")
    for name, value in means.items():
        print(f"  {name}: {value * 100:.3f}")
    assert means["gaussian"] < means["ls"]
    assert means["huber"] < means["ls"]
