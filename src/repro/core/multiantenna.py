"""Multi-antenna differential localization with calibration corrections.

The paper's case study (Sec. V-F1, Fig. 19-20): several static antennas
locate one static tag from a single phase reading per antenna. Because
each antenna's reading carries its own hardware offset ``theta_R`` and a
shared tag offset ``theta_T``, only *differences* between antennas are
usable — and those differences are still biased by the antennas' relative
offsets unless they have been calibrated away.

This module provides the differential machinery as a first-class API:

* the likelihood grid search over candidate tag positions, with
  per-antenna position and offset corrections applied (the Fig. 20
  method) — served as the ``lion-multiantenna`` estimator of
  :mod:`repro.pipeline`, and as :func:`locate_tag_with_array` for a
  :class:`CalibratedArray` at a calibration level;
* :func:`locate_tag_differential` — the same measurement model solved by
  nonlinear least squares on the wrapped phase differences (faster and
  grid-free, at the cost of needing an initial guess inside the correct
  ambiguity lobe);
* :class:`CalibratedArray` — bundles antennas with their
  :class:`~repro.core.calibration.AntennaCalibration` records and exposes
  corrected centers/offsets at each calibration level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence, Tuple

import numpy as np
from scipy.optimize import least_squares

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.calibration import AntennaCalibration, relative_phase_offsets
from repro.rf.antenna import Antenna
from repro.signalproc.stats import circular_difference

CalibrationLevel = Literal["none", "center", "full"]

Bounds = Tuple[float, float]


@dataclass(frozen=True)
class DifferentialResult:
    """Output of a multi-antenna differential localization.

    Attributes:
        position: estimated tag position, shape ``(dim,)``.
        likelihood: peak likelihood in ``[0, 1]`` (hologram) or ``nan``
            (least-squares path).
        cell_count: grid cells evaluated (0 for the least-squares path).
    """

    position: np.ndarray
    likelihood: float
    cell_count: int


@dataclass
class CalibratedArray:
    """A set of antennas plus their calibration records.

    Attributes:
        antennas: the deployed antennas (their ``physical_center`` is the
            manually measured knowledge).
        calibrations: matching calibration records, one per antenna, in
            the same order. All must have been calibrated with the *same
            tag* for the offset differences to be tag-free.
    """

    antennas: Sequence[Antenna]
    calibrations: Sequence[AntennaCalibration]

    def __post_init__(self) -> None:
        if len(self.antennas) != len(self.calibrations):
            raise ValueError(
                f"{len(self.antennas)} antennas but {len(self.calibrations)} calibrations"
            )
        if len(self.antennas) < 2:
            raise ValueError("differential localization needs at least two antennas")

    def centers(self, level: CalibrationLevel, dim: int = 2) -> np.ndarray:
        """Per-antenna signal origins at the given calibration level."""
        if level == "none":
            stacked = np.vstack([a.physical_center_array for a in self.antennas])
        else:
            stacked = np.vstack([c.estimated_center for c in self.calibrations])
        return stacked[:, :dim]

    def offset_corrections(self, level: CalibrationLevel) -> np.ndarray:
        """Per-antenna phase corrections to subtract from measurements.

        Zero except at the ``full`` level, where the relative offsets
        (reference = first antenna) are returned.
        """
        if level != "full":
            return np.zeros(len(self.antennas))
        relative = relative_phase_offsets(list(self.calibrations))
        return np.array(
            [relative[c.antenna_name] for c in self.calibrations]
        )


def _differential_hologram_impl(
    centers: np.ndarray,
    measured_phase_rad: np.ndarray,
    bounds: Sequence[Bounds],
    grid_size_m: float = 0.004,
    offset_corrections_rad: np.ndarray | None = None,
    wavelength_m: float = DEFAULT_WAVELENGTH_M,
) -> DifferentialResult:
    """Grid-search the tag position from one phase per antenna (Fig. 20).

    ``L(p) = |Σ_a exp(j[(θ_a - θ_0 - Δ_a) - k(|p - c_a| - |p - c_0|)])| / n``
    with antenna 0 the phase-difference reference and ``Δ_a`` the known
    offset corrections.

    Args:
        centers: antenna signal origins, shape ``(n, dim)``, dim 2 or 3.
        measured_phase_rad: one (averaged) wrapped phase per antenna.
        bounds: per-axis search bounds. Keep them near the deployment
            prior: with few antennas the uncorrected landscape has
            wrap-ambiguous global maxima far from the tag.
        grid_size_m: cell edge length.
        offset_corrections_rad: per-antenna corrections (subtracted from
            the measurements); default zero.
        wavelength_m: carrier wavelength.

    Raises:
        ValueError: on shape mismatches or fewer than two antennas.
    """
    anchors = np.asarray(centers, dtype=float)
    phases = np.asarray(measured_phase_rad, dtype=float)
    if anchors.ndim != 2 or anchors.shape[0] < 2:
        raise ValueError("need at least two antenna centers")
    if anchors.shape[1] != len(bounds):
        raise ValueError(
            f"centers have {anchors.shape[1]} axes but bounds cover {len(bounds)}"
        )
    if phases.shape != (anchors.shape[0],):
        raise ValueError("one phase per antenna required")
    if offset_corrections_rad is None:
        offset_corrections_rad = np.zeros(anchors.shape[0])
    else:
        offset_corrections_rad = np.asarray(offset_corrections_rad, dtype=float)
        if offset_corrections_rad.shape != phases.shape:
            raise ValueError("one offset correction per antenna required")
    if grid_size_m <= 0.0:
        raise ValueError("grid size must be positive")

    axes = [np.arange(low, high + grid_size_m, grid_size_m) for low, high in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    cells = np.stack([m.ravel() for m in mesh], axis=1)

    k = 2.0 * TWO_PI / wavelength_m
    corrected = phases - offset_corrections_rad
    measured_diff = corrected - corrected[0]
    distances = np.linalg.norm(
        cells[:, np.newaxis, :] - anchors[np.newaxis, :, :], axis=2
    )
    predicted_diff = k * (distances - distances[:, [0]])
    coherence = np.abs(
        np.sum(np.exp(1j * (measured_diff[np.newaxis, :] - predicted_diff)), axis=1)
    ) / anchors.shape[0]
    best = int(np.argmax(coherence))
    return DifferentialResult(
        position=cells[best].copy(),
        likelihood=float(coherence[best]),
        cell_count=cells.shape[0],
    )


def locate_tag_differential(
    centers: np.ndarray,
    measured_phase_rad: np.ndarray,
    initial_guess: np.ndarray,
    offset_corrections_rad: np.ndarray | None = None,
    wavelength_m: float = DEFAULT_WAVELENGTH_M,
) -> DifferentialResult:
    """Least-squares alternative to the hologram (same measurement model).

    Minimizes the wrapped difference between measured and predicted
    inter-antenna phase differences, starting from ``initial_guess``.
    Converges to the ambiguity lobe the guess sits in — supply a
    deployment prior (e.g. the nominal tag placement).

    Raises:
        ValueError: on shape mismatches.
    """
    anchors = np.asarray(centers, dtype=float)
    phases = np.asarray(measured_phase_rad, dtype=float)
    guess = np.asarray(initial_guess, dtype=float)
    if anchors.ndim != 2 or anchors.shape[0] < 2:
        raise ValueError("need at least two antenna centers")
    if phases.shape != (anchors.shape[0],):
        raise ValueError("one phase per antenna required")
    if guess.shape != (anchors.shape[1],):
        raise ValueError(
            f"initial guess must have shape ({anchors.shape[1]},), got {guess.shape}"
        )
    if offset_corrections_rad is None:
        offset_corrections_rad = np.zeros(anchors.shape[0])
    corrected = phases - np.asarray(offset_corrections_rad, dtype=float)
    measured_diff = corrected[1:] - corrected[0]
    k = 2.0 * TWO_PI / wavelength_m

    def residuals(candidate: np.ndarray) -> np.ndarray:
        distances = np.linalg.norm(anchors - candidate[np.newaxis, :], axis=1)
        predicted = k * (distances[1:] - distances[0])
        return np.asarray(circular_difference(measured_diff, predicted), dtype=float)

    fit = least_squares(residuals, guess)
    return DifferentialResult(
        position=fit.x.copy(),
        likelihood=float("nan"),
        cell_count=0,
    )


def locate_tag_with_array(
    array: CalibratedArray,
    measured_phase_rad: np.ndarray,
    bounds: Sequence[Bounds],
    level: CalibrationLevel = "full",
    grid_size_m: float = 0.004,
    wavelength_m: float = DEFAULT_WAVELENGTH_M,
) -> DifferentialResult:
    """Locate a static tag with a calibrated array at a calibration level.

    Convenience wrapper combining :class:`CalibratedArray` level selection
    with the differential grid search — the exact Fig. 20 comparison.
    """
    return _differential_hologram_impl(
        array.centers(level, dim=len(bounds)),
        measured_phase_rad,
        bounds,
        grid_size_m=grid_size_m,
        offset_corrections_rad=array.offset_corrections(level),
        wavelength_m=wavelength_m,
    )
