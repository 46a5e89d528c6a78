"""Tagspin-style rotating-tag baseline [7].

A tag spinning on a turntable of radius ``r`` around center ``c`` sees its
distance to a static antenna modulate as::

    d(alpha) = sqrt(d0^2 + r^2 - 2 d0 r cos(alpha - phi))

where ``d0`` is the center-to-antenna distance and ``phi`` the antenna's
azimuth from the center. For ``d0 >> r`` this is approximately
``d0 - r cos(alpha - phi)``: a sinusoid whose *phase* encodes the angle of
arrival and whose amplitude encodes nothing new — which is why Tagspin is
an AoA method. We implement both the quick sinusoid AoA fit and a full
nonlinear refinement that also recovers ``d0``, giving a position.

Limitation (the paper's point): the trajectory *must* be circular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from repro.constants import DEFAULT_WAVELENGTH_M
from repro.core.system import delta_distances
from repro.signalproc.unwrap import unwrap_phase


@dataclass(frozen=True)
class RotatingTagResult:
    """Output of the rotating-tag solve.

    Attributes:
        azimuth_rad: estimated antenna azimuth from the turntable center.
        center_distance_m: estimated center-to-antenna distance ``d0``.
        position: estimated 2D position in the turntable plane frame
            (center at origin, azimuth measured from the first basis axis).
        converged: optimizer success flag.
    """

    azimuth_rad: float
    center_distance_m: float
    position: np.ndarray
    converged: bool


def _locate_rotating_tag_impl(
    angles_rad: np.ndarray,
    wrapped_phase_rad: np.ndarray,
    radius_m: float,
    wavelength_m: float = DEFAULT_WAVELENGTH_M,
    initial_distance_m: float = 1.0,
) -> RotatingTagResult:
    """Locate a static antenna from one revolution of a spinning tag.

    Args:
        angles_rad: turntable angle per read (monotone over the scan).
        wrapped_phase_rad: reported wrapped phases, same length.
        radius_m: tag rotation radius.
        wavelength_m: carrier wavelength.
        initial_distance_m: starting guess for ``d0``.

    Raises:
        ValueError: on shape errors, too few reads, or a non-positive
            radius.
    """
    alpha = np.asarray(angles_rad, dtype=float)
    phases = np.asarray(wrapped_phase_rad, dtype=float)
    if alpha.ndim != 1 or alpha.shape != phases.shape:
        raise ValueError("angles and phases must be equal-length vectors")
    if alpha.size < 8:
        raise ValueError("need at least eight reads around the circle")
    if radius_m <= 0.0:
        raise ValueError(f"radius must be positive, got {radius_m}")

    profile = unwrap_phase(phases)
    deltas = delta_distances(profile, 0, wavelength_m)

    # Quick AoA: the far-field distance profile is d0 - r cos(alpha - phi),
    # so delta_d correlates with -cos(alpha - phi); a single complex
    # projection recovers phi.
    projection = np.sum(deltas * np.exp(1j * alpha))
    azimuth_guess = float(np.mod(np.angle(-projection), 2.0 * np.pi))

    def residuals(params: np.ndarray) -> np.ndarray:
        d0, phi, offset = params
        model = np.sqrt(
            np.maximum(d0**2 + radius_m**2 - 2.0 * d0 * radius_m * np.cos(alpha - phi), 1e-12)
        )
        return (model - model[0]) + offset - deltas

    fit = least_squares(
        residuals,
        np.array([initial_distance_m, azimuth_guess, 0.0]),
        bounds=([radius_m * 1.01, -np.inf, -np.inf], [np.inf, np.inf, np.inf]),
    )
    d0, phi, _ = (float(v) for v in fit.x)
    phi = float(np.mod(phi, 2.0 * np.pi))
    position = np.array([d0 * np.cos(phi), d0 * np.sin(phi)])
    return RotatingTagResult(
        azimuth_rad=phi,
        center_distance_m=d0,
        position=position,
        converged=bool(fit.success),
    )
