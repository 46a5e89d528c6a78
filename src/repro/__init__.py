"""LION: linear localization and phase calibration for RFID antennas.

A full reproduction of *"Pinpoint Achilles' Heel in RFID Localization:
Phase Calibration of RFID Antenna based on Linear Localization Model"*
(ICDCS 2022), including the RF/trajectory substrates the paper's COTS
testbed provided, the LION linear model itself, the baselines it is
compared against, and the experiment harness that regenerates every figure.

Quickstart::

    import numpy as np
    from repro import (
        EstimationRequest, LinearTrajectory, default_antenna, estimate,
        simulate_scan,
    )

    rng = np.random.default_rng(7)
    antenna = default_antenna((0.2, 1.0, 0.0), rng)
    scan = simulate_scan(
        LinearTrajectory((-0.4, 0.0, 0.0), (0.4, 0.0, 0.0)), antenna, rng=rng
    )
    report = estimate("lion", EstimationRequest.from_scan(scan), {"dim": 2})
    print(report.position)            # ~ the antenna's true phase center (x, y)

Every method — LION and the paper's baselines — is served by name
through the :mod:`repro.pipeline` registry (``estimator_names()`` lists
them); the underlying solver classes remain importable from
:mod:`repro.core` and :mod:`repro.baselines`. See ``examples/`` for
complete calibration and tracking applications.
"""

from repro.constants import (
    DEFAULT_FREQUENCY_HZ,
    DEFAULT_WAVELENGTH_M,
    SPEED_OF_LIGHT,
    wavelength_for_frequency,
)
from repro.core import (
    AdaptiveResult,
    AntennaCalibration,
    CalibratedArray,
    DifferentialResult,
    TrackingResult,
    LionLocalizer,
    LocalizationResult,
    ParameterGrid,
    PreprocessConfig,
    Solution,
    solve_weighted_least_squares_batch,
    MultiReferenceSolution,
    OnlineLionLocalizer,
    PairingDiagnostics,
    SolutionUncertainty,
    analyze_pairing,
    calibrate_antenna,
    estimate_phase_offset,
    locate_tag_differential,
    locate_tag_with_array,
    relative_phase_offsets,
    track_tag_start,
    uncertainty_of,
)
from repro.baselines import DifferentialHologram
from repro.datasets import (
    ScanData,
    default_antenna,
    read_records_csv,
    simulate_scan,
    simulate_static_reads,
    write_records_csv,
)
from repro.rf import (
    Antenna,
    Channel,
    ChannelConfig,
    BurstyPhaseNoise,
    GaussianPhaseNoise,
    NoPhaseNoise,
    ReadRecord,
    Reader,
    ReaderConfig,
    Reflector,
    SnrScaledPhaseNoise,
    Tag,
    WallReflector,
)
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    collect_manifest,
    configure_logging,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    get_logger,
    get_registry,
    get_trace,
    render_trace,
    span,
)
from repro.pipeline import (
    EstimationReport,
    EstimationRequest,
    Estimator,
    EstimatorConfig,
    EstimatorSpec,
    create_estimator,
    estimate,
    estimate_many,
    estimator_names,
    get_spec,
    list_estimators,
    register_estimator,
    resolve_config,
)
from repro.parallel import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    resolve_jobs,
    set_default_jobs,
)
from repro.trajectory import (
    CircularTrajectory,
    LinearTrajectory,
    RasterScan,
    ThreeLineScan,
    Trajectory,
    TrajectorySamples,
    TwoLineScan,
    WaypointTrajectory,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # constants
    "SPEED_OF_LIGHT",
    "DEFAULT_FREQUENCY_HZ",
    "DEFAULT_WAVELENGTH_M",
    "wavelength_for_frequency",
    # core
    "LionLocalizer",
    "LocalizationResult",
    "PreprocessConfig",
    "Solution",
    "solve_weighted_least_squares_batch",
    "AdaptiveResult",
    "ParameterGrid",
    "AntennaCalibration",
    "calibrate_antenna",
    "estimate_phase_offset",
    "relative_phase_offsets",
    "CalibratedArray",
    "DifferentialResult",
    "locate_tag_differential",
    "locate_tag_with_array",
    "TrackingResult",
    "track_tag_start",
    "MultiReferenceSolution",
    "OnlineLionLocalizer",
    "PairingDiagnostics",
    "analyze_pairing",
    "SolutionUncertainty",
    "uncertainty_of",
    # pipeline (estimator protocol + registry)
    "EstimationRequest",
    "EstimationReport",
    "Estimator",
    "EstimatorConfig",
    "EstimatorSpec",
    "register_estimator",
    "estimator_names",
    "list_estimators",
    "get_spec",
    "resolve_config",
    "create_estimator",
    "estimate",
    "estimate_many",
    # parallel execution
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "resolve_jobs",
    "set_default_jobs",
    # observability
    "span",
    "enable_tracing",
    "disable_tracing",
    "get_trace",
    "render_trace",
    "MetricsRegistry",
    "enable_metrics",
    "disable_metrics",
    "get_registry",
    "RunManifest",
    "collect_manifest",
    "get_logger",
    "configure_logging",
    # baselines
    "DifferentialHologram",
    # datasets
    "ScanData",
    "default_antenna",
    "simulate_scan",
    "simulate_static_reads",
    "read_records_csv",
    "write_records_csv",
    # rf
    "Antenna",
    "Tag",
    "Channel",
    "ChannelConfig",
    "Reader",
    "ReaderConfig",
    "ReadRecord",
    "Reflector",
    "WallReflector",
    "BurstyPhaseNoise",
    "GaussianPhaseNoise",
    "SnrScaledPhaseNoise",
    "NoPhaseNoise",
    # trajectories
    "Trajectory",
    "TrajectorySamples",
    "LinearTrajectory",
    "CircularTrajectory",
    "RasterScan",
    "ThreeLineScan",
    "TwoLineScan",
    "WaypointTrajectory",
]
