"""3D calibration from *separate* sweeps — no phase stitching required.

The paper's Fig. 11 scan needs the tag to move continuously between the
three lines so the phase profile stays unwrappable across them
(Sec. IV-B). That is awkward for a real slide rig: re-mounting the rail
per line breaks continuity. The multi-reference extension
(:mod:`repro.core.multiref`) removes the requirement: each sweep keeps an
independent phase datum (its own ``d_r`` unknown), the within-sweep rows
pin the swept coordinate, and the per-sweep reference distances
trilaterate the remaining coordinates — linear algebra end to end.

The same machinery handles frequency-hopped scans (one run per dwell
block, per-run wavelengths), also demonstrated below.

Run:  python examples/separate_sweeps.py
"""

import numpy as np

from repro import (
    Antenna,
    EstimationRequest,
    GaussianPhaseNoise,
    LinearTrajectory,
    estimate,
    simulate_scan,
    wavelength_for_frequency,
)
from repro.constants import TWO_PI


def main() -> None:
    rng = np.random.default_rng(13)
    antenna = Antenna(
        physical_center=(0.0, 0.8, 0.0),
        center_displacement=(0.021, -0.017, 0.024),
        phase_offset_rad=2.4,
        boresight=(0.0, -1.0, 0.0),
    )
    truth = antenna.phase_center
    print(f"true phase center: {truth.round(4)}")

    # --- three independent sweeps, each its own recording session -------
    sweeps = [
        LinearTrajectory((-0.5, 0.0, 0.0), (0.5, 0.0, 0.0)),
        LinearTrajectory((-0.5, 0.0, 0.2), (0.5, 0.0, 0.2)),
        LinearTrajectory((-0.5, -0.2, 0.0), (0.5, -0.2, 0.0)),
    ]
    positions, phases, runs = [], [], []
    for index, sweep in enumerate(sweeps):
        scan = simulate_scan(
            sweep, antenna, rng=rng, noise=GaussianPhaseNoise(0.05),
            read_rate_hz=60.0,
        )
        positions.append(scan.positions)
        phases.append(scan.phases)
        runs.append(np.full(len(scan), index))
    positions = np.vstack(positions)
    phases = np.concatenate(phases)
    runs = np.concatenate(runs)

    solution = estimate(
        "lion-multiref",
        EstimationRequest(positions=positions, phases_rad=phases, run_ids=runs),
        {"dim": 3, "interval_m": 0.25},
    ).raw
    error = np.linalg.norm(solution.position - truth)
    print("--- separate sweeps (independent phase datums) ---")
    print(f"estimated center: {solution.position.round(4)}")
    print(f"error           : {error * 100:.2f} cm")
    for run, d_r in solution.reference_distances.items():
        print(f"  sweep {run}: d_r = {d_r:.4f} m")

    # --- frequency-hopped variant on a single sweep ----------------------
    print("--- frequency-hopped scan (two channels, one sweep) ---")
    x = np.linspace(-0.5, 0.5, 600)
    hop_positions = np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=1)
    hop_runs = np.repeat([0, 1], 300)
    wavelengths = {
        0: wavelength_for_frequency(903.25e6),
        1: wavelength_for_frequency(925.25e6),
    }
    hop_phases = np.zeros(600)
    for run in (0, 1):
        members = hop_runs == run
        distances = np.linalg.norm(hop_positions[members] - truth, axis=1)
        channel_offset = rng.uniform(0.0, TWO_PI)  # per-channel hardware shift
        hop_phases[members] = np.mod(
            2.0 * TWO_PI / wavelengths[run] * distances
            + channel_offset
            + rng.normal(0.0, 0.05, int(members.sum())),
            TWO_PI,
        )
    hop_solution = estimate(
        "lion-multiref",
        EstimationRequest(
            positions=hop_positions[:, :2], phases_rad=hop_phases, run_ids=hop_runs
        ),
        {"dim": 2, "interval_m": 0.2, "wavelengths_by_run": wavelengths},
    )
    hop_error = np.linalg.norm(hop_solution.position - truth[:2])
    print(f"estimated (2D)  : {hop_solution.position.round(4)}")
    print(f"error           : {hop_error * 100:.2f} cm")
    print("note: phases were never compared across channels - each run")
    print("carries its own wavelength, datum and hardware shift.")


if __name__ == "__main__":
    main()
