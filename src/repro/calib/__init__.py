"""Fleet-scale calibration registry (store, drift detection, scheduling).

The paper calibrates one antenna once (:mod:`repro.core.calibration`);
this package manages calibration as a *lifecycle* across an antenna
fleet, the regime RF-CHORD-scale deployments live in:

* :mod:`repro.calib.records` / :mod:`repro.calib.store` — append-only,
  versioned per-antenna records with provenance, atomic JSON-on-disk
  persistence and compare-and-swap commits;
* :mod:`repro.calib.staleness` — age/error budgets plus the streaming
  layer's drift alarms folded into per-antenna health;
* :mod:`repro.calib.scheduler` — recalibration cycles fanned through
  :mod:`repro.parallel` executors, committed transactionally;
* :mod:`repro.calib.resolver` — serve-time resolution of antenna names
  into calibrated centers and offset corrections, cached per store
  generation.

Import hygiene: only the serving layer (:mod:`repro.serve`), the CLI
and benchmarks/tests may import this package (enforced by
``tools/check_import_hygiene.py``); the core physics stays unaware of
fleet management.
"""

from repro.calib.errors import (
    CalibStoreError,
    CorruptRecordError,
    UnknownAntennaError,
    VersionConflictError,
)
from repro.calib.records import KNOWN_SOURCES, CalibrationRecord
from repro.calib.resolver import CalibrationResolver
from repro.calib.scheduler import (
    CalibrationOutcome,
    CalibrationTask,
    RecalibrationReport,
    RecalibrationScheduler,
    fleet_scan_source,
    solve_calibration_task,
)
from repro.calib.staleness import (
    DRIFT_ALARM_KIND,
    AntennaHealth,
    DriftMonitor,
    FleetHealth,
    StalenessPolicy,
)
from repro.calib.store import FORMAT_VERSION, CalibrationStore

__all__ = [
    "AntennaHealth",
    "CalibStoreError",
    "CalibrationOutcome",
    "CalibrationRecord",
    "CalibrationResolver",
    "CalibrationStore",
    "CalibrationTask",
    "CorruptRecordError",
    "DRIFT_ALARM_KIND",
    "DriftMonitor",
    "FORMAT_VERSION",
    "FleetHealth",
    "KNOWN_SOURCES",
    "RecalibrationReport",
    "RecalibrationScheduler",
    "StalenessPolicy",
    "UnknownAntennaError",
    "VersionConflictError",
    "fleet_scan_source",
    "solve_calibration_task",
]
