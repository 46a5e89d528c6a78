"""Micro-benchmarks of the hot kernels.

These are genuine pytest-benchmark timings (many rounds), quantifying the
paper's light-weight claim at the operation level: radical-row assembly,
the WLS solve, the full LionLocalizer pipeline, and one hologram kernel
evaluation for contrast.

Run directly for the per-stage timing mode — the scalar request path
split into geometry / validate / preprocess / phase / pair / recipe /
assemble / solve, so a whole-path regression localizes to one stage::

    PYTHONPATH=src python benchmarks/bench_core_micro.py --reads 400
"""

import argparse
import json
import time

import numpy as np
import pytest

from repro.baselines.hologram import hologram_likelihood
from repro.core.pairing import lag_pairs
from repro.core.radical import AssemblyRecipe, radical_rows
from repro.core.solvers import solve_weighted_least_squares
from repro.core.system import build_system
from repro.core.localizer import LionLocalizer
from repro.datasets.synthetic import simulate_scan
from repro.rf.antenna import Antenna
from repro.rf.noise import GaussianPhaseNoise
from repro.trajectory.linear import LinearTrajectory


@pytest.fixture(scope="module")
def scan_data():
    rng = np.random.default_rng(5)
    antenna = Antenna(physical_center=(0.1, 0.9, 0.0), boresight=(0, -1, 0))
    scan = simulate_scan(
        LinearTrajectory((-0.5, 0, 0), (0.5, 0, 0)), antenna, rng=rng,
        noise=GaussianPhaseNoise(0.08), read_rate_hz=120.0,
    )
    return scan, antenna


def test_bench_radical_rows(benchmark, rng=np.random.default_rng(1)):
    positions = rng.uniform(-1, 1, size=(1000, 3))
    deltas = rng.uniform(-0.1, 0.1, size=1000)
    pairs = lag_pairs(1000, 100)
    matrix, rhs = benchmark(radical_rows, positions, deltas, pairs)
    assert matrix.shape == (900, 4)


def test_bench_wls_solve(benchmark, rng=np.random.default_rng(2)):
    target = np.array([0.2, 0.9])
    angles = np.linspace(0, 2 * np.pi, 800, endpoint=False)
    positions = 0.4 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    distances = np.linalg.norm(positions - target, axis=1)
    deltas = distances - distances[0] + rng.normal(0, 0.001, 800)
    system = build_system(positions, deltas, lag_pairs(800, 100))
    solution = benchmark(solve_weighted_least_squares, system)
    assert np.linalg.norm(solution.position - target) < 0.01


def test_bench_lion_full_pipeline_2d(benchmark, scan_data):
    scan, antenna = scan_data
    localizer = LionLocalizer(dim=2, interval_m=0.25)
    result = benchmark(localizer.locate, scan.positions, scan.phases)
    assert np.linalg.norm(result.position - antenna.phase_center[:2]) < 0.02


def test_bench_hologram_kernel(benchmark, scan_data):
    scan, antenna = scan_data
    stride = max(len(scan) // 30, 1)
    positions = scan.positions[::stride, :2]
    phases = scan.phases[::stride]
    truth = antenna.phase_center[:2]
    xs = np.arange(truth[0] - 0.1, truth[0] + 0.1, 0.002)
    ys = np.arange(truth[1] - 0.1, truth[1] + 0.1, 0.002)
    mesh = np.meshgrid(xs, ys, indexing="ij")
    cells = np.stack([m.ravel() for m in mesh], axis=1)
    likelihood = benchmark(hologram_likelihood, positions, phases, cells)
    assert likelihood.shape == (cells.shape[0],)


# ---------------------------------------------------------------------------
# per-stage timing mode (CLI)
# ---------------------------------------------------------------------------


def _time_stage(fn, repeats: int) -> float:
    """Median-of-five best wall time per call, microseconds."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        samples.append((time.perf_counter() - start) / repeats)
    return float(np.median(samples)) * 1e6


def run_stage_breakdown(reads: int = 400, repeats: int = 200, seed: int = 0) -> dict:
    """Time each stage of the scalar LION request path in isolation.

    The stages mirror :meth:`LionLocalizer.prepare` + ``_solve_prepared``:
    ``geometry`` (the geometry step :meth:`LionLocalizer.scan_template`:
    position checks, masking, reference pick, degeneracy handling),
    ``validate`` (the phase checks ``prepare`` runs next, replicated here
    verbatim), ``preprocess`` (unwrap + smoothing), ``phase`` (the phase
    step :meth:`LionLocalizer.complete_scan`: masked profile and Eq. (6)
    deltas), ``pair`` (pair selection), ``recipe`` (the geometry half of
    the radical rows, :class:`AssemblyRecipe`), ``assemble`` (its phase
    half) and ``solve`` (the scalar IRLS). The template and recipe stages
    are what the serve path's caches skip on a repeat geometry. Stage sums
    approximate but do not exactly equal the end-to-end ``locate`` time
    (shared ``np.asarray`` coercions are paid once per stage here).
    """
    rng = np.random.default_rng(seed)
    x = np.linspace(-0.6, 0.6, reads)
    positions = np.stack([x, np.zeros_like(x)], axis=1)
    target = np.array([0.08, 0.85])
    distances = np.linalg.norm(positions - target, axis=1)
    wavelength = 0.3262
    phases = np.mod(
        4.0 * np.pi / wavelength * distances + rng.normal(0.0, 0.05, reads),
        2.0 * np.pi,
    )
    localizer = LionLocalizer(dim=2, interval_m=0.25)

    def validate():
        raw = np.asarray(phases, dtype=float)
        assert raw.shape == (template.n_reads,)
        assert np.all(np.isfinite(raw))

    template = localizer.scan_template(positions)
    profile = localizer.preprocess_phase(phases)
    prepared = localizer.complete_scan(template, profile)
    pairs = localizer._auto_pairs(
        prepared.solve_points, prepared.used_segments, localizer.interval_m
    )
    recipe = AssemblyRecipe(pairs, prepared.solve_points, localizer.dim)
    system = recipe.assemble(prepared.delta_d)

    stages = {
        "geometry": _time_stage(lambda: localizer.scan_template(positions), repeats),
        "validate": _time_stage(validate, repeats),
        "preprocess": _time_stage(lambda: localizer.preprocess_phase(phases), repeats),
        "phase": _time_stage(lambda: localizer.complete_scan(template, profile), repeats),
        "pair": _time_stage(
            lambda: localizer._auto_pairs(
                prepared.solve_points, prepared.used_segments, localizer.interval_m
            ),
            repeats,
        ),
        "recipe": _time_stage(
            lambda: AssemblyRecipe(pairs, prepared.solve_points, localizer.dim), repeats
        ),
        "assemble": _time_stage(lambda: recipe.assemble(prepared.delta_d), repeats),
        "solve": _time_stage(lambda: solve_weighted_least_squares(system), repeats),
    }
    total = sum(stages.values())
    return {
        "benchmark": "core_stage_breakdown",
        "reads": reads,
        "repeats": repeats,
        "stages_us": {name: round(value, 2) for name, value in stages.items()},
        "stage_share": {
            name: round(value / total, 4) for name, value in stages.items()
        },
        "total_us": round(total, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="per-stage timing of the scalar LION request path"
    )
    parser.add_argument("--reads", type=int, default=400, help="reads per scan")
    parser.add_argument(
        "--repeats", type=int, default=200, help="calls per stage sample"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--out", default=None, help="optional output JSON path")
    args = parser.parse_args(argv)
    payload = run_stage_breakdown(args.reads, args.repeats, seed=args.seed)
    print(json.dumps(payload, indent=2))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
