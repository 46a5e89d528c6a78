"""Named, canned evaluation workloads.

One-line access to the scenarios the evaluation (and any downstream
benchmark) keeps rebuilding: a named workload bundles the trajectory, the
antenna's hidden hardware truth, the channel conditions and the scan
kinematics, and `build(rng)` returns the scan plus its ground truth. The
registry gives experiments a shared vocabulary::

    scan, truth = get_workload("paper-2d-conveyor").build(rng)

Workloads are deliberately *specifications* (frozen dataclasses), so they
serialize into experiment logs and two runs with the same seed produce
identical data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.datasets.synthetic import ScanData, simulate_scan
from repro.geometry.transforms import unit
from repro.rf.antenna import Antenna
from repro.rf.noise import (
    BurstyPhaseNoise,
    GaussianPhaseNoise,
    PhaseNoiseModel,
    SnrScaledPhaseNoise,
)
from repro.trajectory.base import Trajectory
from repro.trajectory.circular import CircularTrajectory
from repro.trajectory.linear import LinearTrajectory
from repro.trajectory.multiline import ThreeLineScan, TwoLineScan


@dataclass(frozen=True)
class Workload:
    """A named scan scenario.

    Attributes:
        name: registry key.
        description: one-line summary.
        trajectory_factory: builds the scan path.
        antenna_factory: builds the antenna (receives the rng so hidden
            hardware truth varies per draw while staying seed-stable).
        noise_factory: builds the phase-noise model.
        read_rate_hz / speed_mps: scan kinematics.
    """

    name: str
    description: str
    trajectory_factory: Callable[[], Trajectory]
    antenna_factory: Callable[[np.random.Generator], Antenna]
    noise_factory: Callable[[], PhaseNoiseModel]
    read_rate_hz: float = 60.0
    speed_mps: float = 0.10

    def build(self, rng: np.random.Generator) -> Tuple[ScanData, Antenna]:
        """Simulate one draw of the workload.

        Returns:
            ``(scan, antenna)`` — the antenna carries the ground truth
            (`.phase_center`, `.phase_offset_rad`).
        """
        antenna = self.antenna_factory(rng)
        scan = simulate_scan(
            self.trajectory_factory(),
            antenna,
            rng=rng,
            noise=self.noise_factory(),
            read_rate_hz=self.read_rate_hz,
            speed_mps=self.speed_mps,
        )
        return scan, antenna


def _paper_antenna(rng: np.random.Generator, depth: float = 0.8, height: float = 0.0) -> Antenna:
    direction = unit(rng.normal(size=3), name="displacement direction")
    return Antenna(
        physical_center=(0.0, depth, height),
        center_displacement=tuple(rng.uniform(0.02, 0.03) * direction),
        phase_offset_rad=float(rng.uniform(0.0, 2.0 * np.pi)),
        boresight=(0.0, -1.0, 0.0),
    )


_REGISTRY: Dict[str, Workload] = {}


def register_workload(workload: Workload) -> None:
    """Add a workload to the registry.

    Raises:
        ValueError: on a duplicate name.
    """
    if workload.name in _REGISTRY:
        raise ValueError(f"workload {workload.name!r} already registered")
    _REGISTRY[workload.name] = workload


def get_workload(name: str) -> Workload:
    """Look a workload up by name.

    Raises:
        KeyError: with the list of known names.
    """
    if name not in _REGISTRY:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def list_workloads() -> Dict[str, str]:
    """Mapping of workload name to description."""
    return {name: w.description for name, w in sorted(_REGISTRY.items())}


register_workload(
    Workload(
        name="paper-2d-conveyor",
        description="Sec. V-B 2D tracking: 1.2 m sweep at 0.8 m depth, SNR noise",
        trajectory_factory=lambda: LinearTrajectory((-0.6, 0, 0), (0.6, 0, 0)),
        antenna_factory=lambda rng: _paper_antenna(rng),
        noise_factory=lambda: SnrScaledPhaseNoise(
            base_std_rad=0.08, reference_distance_m=0.8
        ),
    )
)

register_workload(
    Workload(
        name="paper-3d-calibration",
        description="Fig. 11 three-line calibration scan with transits",
        trajectory_factory=lambda: ThreeLineScan(-0.55, 0.55),
        antenna_factory=lambda rng: _paper_antenna(rng, height=0.1),
        noise_factory=lambda: SnrScaledPhaseNoise(
            base_std_rad=0.08, reference_distance_m=0.8
        ),
    )
)

register_workload(
    Workload(
        name="paper-two-line-3d",
        description="Fig. 14(a) two-line scan: z recovered from d_r",
        trajectory_factory=lambda: TwoLineScan(-0.6, 0.6, y_offset=0.2),
        antenna_factory=lambda rng: _paper_antenna(rng, height=0.1),
        noise_factory=lambda: SnrScaledPhaseNoise(
            base_std_rad=0.08, reference_distance_m=0.8
        ),
    )
)

register_workload(
    Workload(
        name="paper-turntable",
        description="Fig. 21 rotating tag: r = 0.2 m, antenna 0.7 m ahead",
        trajectory_factory=lambda: CircularTrajectory((0, 0, 0), radius=0.2),
        antenna_factory=lambda rng: Antenna(
            physical_center=(0.0, 0.7, 0.0), boresight=(0, -1, 0)
        ),
        noise_factory=lambda: GaussianPhaseNoise(0.1),
    )
)

register_workload(
    Workload(
        name="harsh-bursty",
        description="Fig. 15 regime: SNR noise + 5% interference bursts",
        trajectory_factory=lambda: LinearTrajectory((-0.5, 0, 0), (0.5, 0, 0)),
        antenna_factory=lambda rng: _paper_antenna(rng),
        noise_factory=lambda: BurstyPhaseNoise(
            base=SnrScaledPhaseNoise(base_std_rad=0.1, reference_distance_m=0.8),
            burst_probability=0.05,
            burst_magnitude_rad=1.5,
        ),
    )
)

register_workload(
    Workload(
        name="clean-sim",
        description="Sec. III simulation conditions: pure N(0, 0.1) phase noise",
        trajectory_factory=lambda: CircularTrajectory((0, 0, 0), radius=0.3),
        antenna_factory=lambda rng: Antenna(
            physical_center=(1.0, 0.0, 0.0), boresight=(-1, 0, 0)
        ),
        noise_factory=lambda: GaussianPhaseNoise(0.1),
    )
)
