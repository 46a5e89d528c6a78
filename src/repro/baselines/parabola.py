"""Parabola-fit baseline [8]: 2D localization from a linear scan.

Near the perpendicular foot of a straight trajectory, the distance profile
``d(x) = sqrt((x - x0)^2 + y0^2)`` is well approximated by the parabola
``y0 + (x - x0)^2 / (2 y0)``, so the unwrapped phase profile is
approximately quadratic in the scan coordinate::

    theta(x) ~ (4*pi/lambda) * (y0 + (x - x0)^2 / (2 y0))

Fitting ``a x^2 + b x + c`` yields the target's along-track position
``x0 = -b / (2a)`` and depth ``y0 = 2*pi / (a * lambda)``. The method is
restricted to 2D and to linear scanning — the limitation the paper cites —
but is extremely cheap and a useful sanity baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.signalproc.unwrap import unwrap_phase


@dataclass(frozen=True)
class ParabolaResult:
    """Output of the parabola fit.

    Attributes:
        position: estimated ``(x0, y0)`` in the scan frame (first axis =
            scan direction, second = depth; the depth sign follows the
            caller's ``positive_side``).
        curvature: the fitted quadratic coefficient ``a`` (rad/m^2).
        rms_residual_rad: fit quality.
    """

    position: np.ndarray
    curvature: float
    rms_residual_rad: float


def _locate_parabola_2d_impl(
    scan_coordinate_m: np.ndarray,
    wrapped_phase_rad: np.ndarray,
    wavelength_m: float = DEFAULT_WAVELENGTH_M,
    positive_side: bool = True,
) -> ParabolaResult:
    """Fit the quadratic phase profile of a linear scan.

    Args:
        scan_coordinate_m: positions along the (straight) trajectory.
        wrapped_phase_rad: reported wrapped phases, same length.
        wavelength_m: carrier wavelength.
        positive_side: whether the target lies on the positive depth side.

    Raises:
        ValueError: on shape errors, fewer than three reads, or a
            non-convex fitted profile (target not bracketed by the scan).
    """
    x = np.asarray(scan_coordinate_m, dtype=float)
    phases = np.asarray(wrapped_phase_rad, dtype=float)
    if x.ndim != 1 or x.shape != phases.shape:
        raise ValueError("scan coordinates and phases must be equal-length vectors")
    if x.size < 3:
        raise ValueError("need at least three reads for a quadratic fit")

    profile = unwrap_phase(phases)
    coefficients = np.polyfit(x, profile, deg=2)
    a, b, _ = (float(v) for v in coefficients)
    if a <= 0.0:
        raise ValueError(
            "phase profile is not convex; the perpendicular foot is outside the scan"
        )
    x0 = -b / (2.0 * a)
    y0 = TWO_PI / (a * wavelength_m)
    fitted = np.polyval(coefficients, x)
    rms = float(np.sqrt(np.mean((profile - fitted) ** 2)))
    depth = y0 if positive_side else -y0
    return ParabolaResult(
        position=np.array([x0, depth]),
        curvature=a,
        rms_residual_rad=rms,
    )
