"""Hyperbola (TDoA) baseline [6, 14-19].

A phase difference between two scan positions constrains the target to a
hyperbola (2D) / hyperboloid (3D) of constant distance difference::

    |p - p_i| - |p - p_j| = delta_d_i - delta_d_j

Solving many such quadratic constraints needs iterative nonlinear least
squares — the computation the paper's radical-line trick linearises away.
This implementation uses ``scipy.optimize.least_squares`` with analytic
residuals; it is accurate but 10-100x slower than LION's single linear
solve, which is exactly its role in the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from repro.constants import DEFAULT_WAVELENGTH_M
from repro.core.pairing import lag_pairs
from repro.core.system import delta_distances
from repro.signalproc.unwrap import unwrap_phase


@dataclass(frozen=True)
class HyperbolaResult:
    """Output of the hyperbola solve.

    Attributes:
        position: estimated target position, shape ``(dim,)``.
        cost: final sum of squared residuals.
        iterations: function evaluations used by the optimizer.
        converged: optimizer success flag.
    """

    position: np.ndarray
    cost: float
    iterations: int
    converged: bool


def _locate_hyperbola_impl(
    positions: np.ndarray,
    wrapped_phase_rad: np.ndarray,
    initial_guess: np.ndarray | None = None,
    wavelength_m: float = DEFAULT_WAVELENGTH_M,
    dim: int | None = None,
) -> HyperbolaResult:
    """Locate the target by fitting distance-difference hyperbolas.

    The measurement pairs are quarter-scan lag pairs.

    Args:
        positions: scan positions, shape ``(n, 2)`` or ``(n, 3)``.
        wrapped_phase_rad: reported wrapped phases (continuous scan).
        initial_guess: optimizer start; defaults to one meter boresight of
            the scan centroid (a deliberately generic prior).
        wavelength_m: carrier wavelength.
        dim: answer dimension; inferred from positions when omitted.

    Raises:
        ValueError: on shape errors or too few reads.
    """
    points = np.asarray(positions, dtype=float)
    phases = np.asarray(wrapped_phase_rad, dtype=float)
    if points.ndim != 2 or points.shape[1] not in (2, 3):
        raise ValueError(f"positions must be (n, 2) or (n, 3), got {points.shape}")
    if dim is None:
        dim = points.shape[1]
    if dim == 2 and points.shape[1] == 3:
        points = points[:, :2]
    if phases.shape != (points.shape[0],):
        raise ValueError("phases must match positions")
    if points.shape[0] < 3:
        raise ValueError("need at least three reads")

    profile = unwrap_phase(phases)
    deltas = delta_distances(profile, 0, wavelength_m)
    lag = max(points.shape[0] // 4, 1)
    index = np.asarray(lag_pairs(points.shape[0], lag), dtype=int)
    pi = points[index[:, 0]]
    pj = points[index[:, 1]]
    difference = deltas[index[:, 0]] - deltas[index[:, 1]]

    if initial_guess is None:
        guess = points.mean(axis=0).copy()
        guess[-1] += 1.0
    else:
        guess = np.asarray(initial_guess, dtype=float).copy()
        if guess.shape != (dim,):
            raise ValueError(f"initial guess must have shape ({dim},)")

    def residuals(candidate: np.ndarray) -> np.ndarray:
        di = np.linalg.norm(pi - candidate[np.newaxis, :], axis=1)
        dj = np.linalg.norm(pj - candidate[np.newaxis, :], axis=1)
        return (di - dj) - difference

    fit = least_squares(residuals, guess, method="lm")
    return HyperbolaResult(
        position=fit.x.copy(),
        cost=float(2.0 * fit.cost),
        iterations=int(fit.nfev),
        converged=bool(fit.success),
    )
