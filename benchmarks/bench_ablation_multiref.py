"""Ablation: stitched single-datum scan vs multi-reference separate sweeps.

DESIGN.md design choice: the paper makes multi-line scans continuous (so
one phase datum covers them); the multi-reference extension drops that
requirement at the cost of noise amplification in the trilaterated
coordinates. This bench quantifies the trade on identical geometry.
"""

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.localizer import LionLocalizer
from repro.datasets.synthetic import simulate_scan
from repro.pipeline import EstimationRequest, estimate
from repro.rf.antenna import Antenna
from repro.rf.noise import GaussianPhaseNoise
from repro.trajectory.multiline import ThreeLineScan


def test_bench_stitched_vs_multireference(benchmark):
    rng = np.random.default_rng(77)

    def run():
        stitched_errors, separate_errors = [], []
        for _ in range(6):
            antenna = Antenna(
                physical_center=(0.0, 0.8, 0.1), boresight=(0, -1, 0)
            )
            truth = antenna.phase_center

            # Continuous scan with transits -> single-datum pipeline.
            scan = simulate_scan(
                ThreeLineScan(-0.5, 0.5), antenna, rng=rng,
                noise=GaussianPhaseNoise(0.05), read_rate_hz=40.0,
            )
            result = LionLocalizer(dim=3, interval_m=0.25).locate(
                scan.positions, scan.phases,
                segment_ids=scan.segment_ids, exclude_mask=scan.exclude_mask,
            )
            stitched_errors.append(np.linalg.norm(result.position - truth))

            # Same three lines scanned separately: independent datums.
            keep = ~scan.exclude_mask
            positions = scan.positions[keep]
            segments = scan.segment_ids[keep]
            runs = np.searchsorted(np.unique(segments), segments)
            phases = np.zeros(positions.shape[0])
            for run in np.unique(runs):
                members = np.flatnonzero(runs == run)
                distances = np.linalg.norm(positions[members] - truth, axis=1)
                phases[members] = np.mod(
                    2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances
                    + rng.uniform(0, TWO_PI)
                    + rng.normal(0, 0.05, members.size),
                    TWO_PI,
                )
            solution = estimate(
                "lion-multiref",
                EstimationRequest(positions=positions, phases_rad=phases, run_ids=runs),
                {"dim": 3, "interval_m": 0.25},
            )
            separate_errors.append(np.linalg.norm(solution.position - truth))
        return {
            "stitched": float(np.mean(stitched_errors)),
            "multireference": float(np.mean(separate_errors)),
        }

    means = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print("== ablation: stitched vs multi-reference 3D calibration (cm) ==")
    for name, value in means.items():
        print(f"  {name}: {value * 100:.3f}")

    # Both are centimeter-capable; the stitched pipeline is expected to be
    # at least as accurate (one datum = more cross-line information).
    assert means["stitched"] < 0.02
    assert means["multireference"] < 0.06
