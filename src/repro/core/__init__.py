"""LION core: the linear localization model and phase calibration.

Pipeline (paper Sec. IV):

1. preprocess reported phase (:mod:`repro.signalproc`) into an unwrapped,
   smoothed profile aligned with known tag positions;
2. convert phase differences to distance differences ``delta_d`` relative
   to a reference read (Eq. 6);
3. pick pairs of reads (:mod:`repro.core.pairing`) and emit one radical
   line/plane equation per pair (:mod:`repro.core.radical`), assembling
   the linear system ``A [x y (z) d_r]^T = K`` (:mod:`repro.core.system`);
4. solve by (iteratively re-weighted) least squares
   (:mod:`repro.core.solvers`, :mod:`repro.core.weights`);
5. if the trajectory is of lower dimension than the space, recover the
   unobserved coordinate from ``d_r`` (:mod:`repro.core.lowerdim`);
6. optionally sweep scanning range/interval and keep the estimates whose
   mean residual is nearest zero (:mod:`repro.core.adaptive`);
7. derive the antenna's center displacement and phase offset
   (:mod:`repro.core.calibration`).

:class:`repro.core.localizer.LionLocalizer` wires steps 1-6 together behind
one call.
"""

from repro.core.radical import radical_row, radical_rows
from repro.core.pairing import (
    all_pairs,
    lag_pairs,
    random_pairs,
    spacing_pairs,
    three_line_pairs,
    cross_segment_pairs,
)
from repro.core.system import LinearSystem, build_system, delta_distances
from repro.core.weights import (
    gaussian_residual_weights,
    huber_weights,
    uniform_weights,
)
from repro.core.solvers import (
    Solution,
    solve_least_squares,
    solve_weighted_least_squares,
    solve_weighted_least_squares_batch,
)
from repro.core.lowerdim import recover_coordinate_from_reference
from repro.core.adaptive import (
    AdaptiveResult,
    CellRejection,
    ParameterGrid,
)
from repro.core.localizer import (
    DegenerateGeometryError,
    LionLocalizer,
    LocalizationResult,
    PreparedScan,
    PreprocessConfig,
    TooFewReadsError,
)
from repro.core.sweep import clear_pair_cache, fused_sweep, pair_cache_info
from repro.core.batch_prepare import (
    PreparedMember,
    clear_template_cache,
    prepare_batch,
    template_cache_info,
)
from repro.core.multiantenna import (
    CalibratedArray,
    DifferentialResult,
    locate_tag_differential,
    locate_tag_with_array,
)
from repro.core.tracking import TrackingResult, track_tag_start
from repro.core.multiref import (
    MultiReferenceSolution,
    MultiReferenceSystem,
    build_multireference_system,
    solve_multireference,
)
from repro.core.incremental import IncrementalScanAssembler, unwrap_correction
from repro.core.online import OnlineEstimate, OnlineLionLocalizer
from repro.core.pairgraph import PairingDiagnostics, analyze_pairing, component_runs
from repro.core.uncertainty import (
    SolutionUncertainty,
    estimate_uncertainty,
    uncertainty_of,
)
from repro.core.calibration import (
    AntennaCalibration,
    calibrate_antenna,
    estimate_phase_offset,
    relative_phase_offsets,
)

__all__ = [
    "radical_row",
    "radical_rows",
    "all_pairs",
    "lag_pairs",
    "random_pairs",
    "spacing_pairs",
    "three_line_pairs",
    "cross_segment_pairs",
    "LinearSystem",
    "build_system",
    "delta_distances",
    "gaussian_residual_weights",
    "huber_weights",
    "uniform_weights",
    "Solution",
    "solve_least_squares",
    "solve_weighted_least_squares",
    "solve_weighted_least_squares_batch",
    "recover_coordinate_from_reference",
    "AdaptiveResult",
    "CellRejection",
    "ParameterGrid",
    "DegenerateGeometryError",
    "LionLocalizer",
    "LocalizationResult",
    "PreparedScan",
    "PreprocessConfig",
    "TooFewReadsError",
    "clear_pair_cache",
    "fused_sweep",
    "pair_cache_info",
    "PreparedMember",
    "clear_template_cache",
    "prepare_batch",
    "template_cache_info",
    "CalibratedArray",
    "DifferentialResult",
    "locate_tag_differential",
    "locate_tag_with_array",
    "TrackingResult",
    "track_tag_start",
    "MultiReferenceSystem",
    "MultiReferenceSolution",
    "build_multireference_system",
    "solve_multireference",
    "OnlineLionLocalizer",
    "IncrementalScanAssembler",
    "unwrap_correction",
    "OnlineEstimate",
    "PairingDiagnostics",
    "analyze_pairing",
    "component_runs",
    "SolutionUncertainty",
    "estimate_uncertainty",
    "uncertainty_of",
    "AntennaCalibration",
    "calibrate_antenna",
    "estimate_phase_offset",
    "relative_phase_offsets",
]
