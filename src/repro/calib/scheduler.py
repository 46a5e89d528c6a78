"""Recalibration scheduling: fan calibration scans out, commit versions in.

One recalibration cycle is embarrassingly parallel physics followed by
strictly serialized bookkeeping: each stale antenna's known-trajectory
scan runs through :func:`repro.core.calibration.calibrate_antenna`
independently (fanned across a :mod:`repro.parallel` executor —
``process`` for real fleets, ``serial`` for tests), and the resulting
calibrations commit back into the :class:`CalibrationStore` one by one
under compare-and-swap. The CAS token is captured *before* the fan-out:
if anything else commits to an antenna while its solve is in flight,
that solve's commit loses cleanly (reported as a conflict) instead of
overwriting fresher work — calibrations are only transactional against
the version they set out to replace.

The work function is a module-level callable over plain arrays so the
process backend can pickle it; results are bit-identical across
backends because each solve is a pure function of its task.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.calib.errors import VersionConflictError
from repro.calib.staleness import DriftMonitor
from repro.calib.store import CalibrationStore
from repro.constants import DEFAULT_WAVELENGTH_M
from repro.core.adaptive import ParameterGrid
from repro.core.calibration import AntennaCalibration, calibrate_antenna
from repro.obs import get_registry, metrics_enabled, span


@dataclass(frozen=True)
class CalibrationTask:
    """One antenna's recalibration work order (picklable, pure data).

    Attributes:
        antenna: antenna identifier.
        positions: scan tag positions, shape ``(n, 3)``.
        phases_rad: wrapped phases, shape ``(n,)``.
        physical_center: the antenna's measured center.
        segment_ids / exclude_mask: scan structure, as for
            :func:`calibrate_antenna`.
        grid: adaptive sweep grid (center it on the antenna's portal).
        wavelength_m: carrier wavelength.
        expected_version: CAS token — the store version this solve
            intends to replace (captured at scheduling time).
    """

    antenna: str
    positions: np.ndarray
    phases_rad: np.ndarray
    physical_center: np.ndarray
    segment_ids: Optional[np.ndarray] = None
    exclude_mask: Optional[np.ndarray] = None
    grid: Optional[ParameterGrid] = None
    wavelength_m: float = DEFAULT_WAVELENGTH_M
    expected_version: int = 0


@dataclass(frozen=True)
class CalibrationOutcome:
    """One solved task, pre-commit (crosses the process boundary)."""

    antenna: str
    calibration: AntennaCalibration
    residual_rms_m: float
    reads: int
    expected_version: int


def solve_calibration_task(task: CalibrationTask) -> CalibrationOutcome:
    """Run one antenna's full calibration; the executor work function.

    Pure: identical tasks produce bit-identical calibrations on any
    backend, which is what makes the fan-out safely retryable.
    """
    calibration, adaptive = calibrate_antenna(
        task.positions,
        task.phases_rad,
        task.physical_center,
        antenna_name=task.antenna,
        segment_ids=task.segment_ids,
        exclude_mask=task.exclude_mask,
        grid=task.grid,
        wavelength_m=task.wavelength_m,
    )
    best = adaptive.best_outcome
    residual = float(best.mean_abs_residual)
    return CalibrationOutcome(
        antenna=task.antenna,
        calibration=calibration,
        residual_rms_m=residual,
        reads=int(task.phases_rad.shape[0]),
        expected_version=task.expected_version,
    )


@dataclass(frozen=True)
class RecalibrationReport:
    """What one scheduler cycle did.

    Attributes:
        committed: antenna -> newly committed version.
        conflicts: antennas whose CAS commit lost a race.
        failures: antenna -> error string for solves that raised.
        duration_s: wall-clock time of the cycle.
        antennas_per_sec: committed-antenna throughput.
    """

    committed: Dict[str, int] = field(default_factory=dict)
    conflicts: Tuple[str, ...] = ()
    failures: Dict[str, str] = field(default_factory=dict)
    duration_s: float = 0.0
    antennas_per_sec: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe view for the CLI and CI smoke logs."""
        return {
            "committed": dict(self.committed),
            "conflicts": list(self.conflicts),
            "failures": dict(self.failures),
            "duration_s": round(self.duration_s, 6),
            "antennas_per_sec": round(self.antennas_per_sec, 3),
        }


#: Signature a scan source must satisfy: given an antenna name, return
#: the arrays of a fresh known-trajectory calibration scan as a
#: :class:`CalibrationTask` *without* a CAS token (the scheduler stamps
#: it). ``repro.datasets.fleet.AntennaFleet`` adapts to this via
#: :func:`fleet_scan_source`.
ScanSource = Callable[[str], CalibrationTask]


class RecalibrationScheduler:
    """Fans calibration solves out and commits versions transactionally.

    Args:
        store: the registry new versions commit into.
        scan_source: produces a fresh calibration task per antenna.
        executor: :mod:`repro.parallel` backend name (or instance).
        jobs: worker count for pool backends.
        source: record-source label stamped on committed versions.
        manifest: optional provenance dict stamped on committed versions.
    """

    def __init__(
        self,
        store: CalibrationStore,
        scan_source: ScanSource,
        executor: str = "process",
        jobs: Optional[int] = None,
        source: str = "scheduled",
        manifest: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.store = store
        self.scan_source = scan_source
        self.executor = executor
        self.jobs = jobs
        self.source = source
        self.manifest = dict(manifest) if manifest is not None else None

    def build_tasks(self, antennas: Sequence[str]) -> List[CalibrationTask]:
        """Scan every antenna and stamp CAS tokens at current versions."""
        tasks: List[CalibrationTask] = []
        for name in antennas:
            task = self.scan_source(name)
            tasks.append(
                CalibrationTask(
                    antenna=task.antenna,
                    positions=task.positions,
                    phases_rad=task.phases_rad,
                    physical_center=task.physical_center,
                    segment_ids=task.segment_ids,
                    exclude_mask=task.exclude_mask,
                    grid=task.grid,
                    wavelength_m=task.wavelength_m,
                    expected_version=self.store.latest_version(name),
                )
            )
        return tasks

    def recalibrate(self, antennas: Sequence[str]) -> RecalibrationReport:
        """One full cycle: scan, fan solves out, commit under CAS."""
        from repro.parallel import get_executor

        started = time.perf_counter()
        with span("calib.recalibrate", antennas=len(antennas), executor=self.executor):
            tasks = self.build_tasks(antennas)
            runner = get_executor(self.executor, jobs=self.jobs)
            results = runner.map_catching(solve_calibration_task, tasks)
            committed: Dict[str, int] = {}
            conflicts: List[str] = []
            failures: Dict[str, str] = {}
            for task, (ok, value) in zip(tasks, results):
                if not ok:
                    failures[task.antenna] = f"{type(value).__name__}: {value}"
                    continue
                outcome: CalibrationOutcome = value
                try:
                    record = self.store.commit(
                        outcome.calibration,
                        source=self.source,
                        reads=outcome.reads,
                        residual_rms_m=outcome.residual_rms_m,
                        manifest=self.manifest,
                        expected_version=outcome.expected_version,
                    )
                except VersionConflictError:
                    conflicts.append(task.antenna)
                    continue
                committed[task.antenna] = record.version
        duration = time.perf_counter() - started
        report = RecalibrationReport(
            committed=committed,
            conflicts=tuple(conflicts),
            failures=failures,
            duration_s=duration,
            antennas_per_sec=len(committed) / duration if duration > 0 else 0.0,
        )
        if metrics_enabled():
            registry = get_registry()
            registry.counter("calib.recalibrations_total", result="committed").inc(
                len(committed)
            )
            registry.counter("calib.recalibrations_total", result="conflict").inc(
                len(conflicts)
            )
            registry.counter("calib.recalibrations_total", result="failed").inc(
                len(failures)
            )
            registry.histogram("calib.cycle_seconds").observe(duration)
        return report

    def run_cycle(self, monitor: DriftMonitor) -> Tuple[RecalibrationReport, List[str]]:
        """Detect-then-repair: recalibrate whatever the monitor flags.

        Returns the cycle report and the antennas that were flagged
        (empty flag list means the report is empty too).
        """
        health = monitor.evaluate()
        stale = list(health.stale())
        if not stale:
            return RecalibrationReport(), stale
        return self.recalibrate(stale), stale


def fleet_scan_source(
    fleet: Any, salt: int = 0
) -> ScanSource:
    """Adapt a :class:`repro.datasets.fleet.AntennaFleet` to a ScanSource.

    Typed structurally (any object with ``calibration_scan`` and
    ``antenna``) so the calib layer does not import the dataset layer —
    the dependency points the other way at the call site.

    Args:
        fleet: the fleet simulator.
        salt: forwarded to ``calibration_scan`` so successive cycles
            draw fresh read noise.
    """

    def scan(name: str) -> CalibrationTask:
        scan_data, grid = fleet.calibration_scan(name, salt=salt)
        return CalibrationTask(
            antenna=name,
            positions=scan_data.positions,
            phases_rad=scan_data.phases,
            physical_center=fleet.antenna(name).physical_center_array,
            segment_ids=scan_data.segment_ids,
            exclude_mask=scan_data.exclude_mask,
            grid=grid,
        )

    return scan
