"""Uncertainty quantification for LION solutions.

A point estimate without an error bar is half an answer — a sorting robot
wants to know whether the item is at x ± 2 mm or x ± 2 cm before
committing a grasp. Because LION is (weighted) linear least squares, the
standard machinery applies: with residual variance ``s²`` estimated from
the weighted residuals, the estimate covariance is

``cov = s² (Aᵀ W A)⁻¹``

whose position block yields per-axis standard errors and confidence
ellipses. The same geometry effects the CRLB module predicts show up
here empirically: a linear scan's depth variance dominates, a wider
aperture shrinks everything.

Caveats (documented, not hidden): the estimate treats the radical rows'
errors as independent, while consecutive rows share reads (correlation)
and the coefficients themselves carry noise (errors-in-variables) — both
make the reported covariance mildly optimistic. Tests pin the calibration
factor against Monte-Carlo truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.localizer import LocalizationResult
from repro.core.solvers import Solution, residual_variance
from repro.core.system import LinearSystem


@dataclass(frozen=True)
class SolutionUncertainty:
    """Covariance summary of a solved radical system.

    Attributes:
        covariance: full ``(dim+1, dim+1)`` covariance of
            ``[x, y, (z,) d_r]``, square meters.
        position_std_m: per-axis standard errors (position block only).
        residual_std: the estimated per-equation residual sigma (raw
            residual units, m²).
        dof: effective degrees of freedom of the variance estimate,
            ``Σ w - unknowns``.
    """

    covariance: np.ndarray
    position_std_m: np.ndarray
    residual_std: float
    dof: float

    @property
    def position_covariance(self) -> np.ndarray:
        """The position block of the covariance."""
        dim = self.position_std_m.shape[0]
        return self.covariance[:dim, :dim]

    def total_std_m(self) -> float:
        """RMS positional standard error (sqrt of the covariance trace)."""
        return float(np.sqrt(np.trace(self.position_covariance)))

    def confidence_ellipse(
        self, axis_a: int = 0, axis_b: int = 1, probability: float = 0.95
    ) -> tuple[float, float, float]:
        """Confidence ellipse in the (axis_a, axis_b) plane.

        Returns:
            ``(semi_major_m, semi_minor_m, angle_rad)`` — the ellipse
            containing the estimate with the given probability under the
            Gaussian approximation; ``angle_rad`` orients the major axis
            from axis_a toward axis_b.

        Raises:
            ValueError: for bad axes or probability.
        """
        dim = self.position_std_m.shape[0]
        if not (0 <= axis_a < dim and 0 <= axis_b < dim and axis_a != axis_b):
            raise ValueError(f"bad axis pair ({axis_a}, {axis_b}) for dim {dim}")
        if not 0.0 < probability < 1.0:
            raise ValueError(f"probability must be in (0, 1), got {probability}")
        block = self.position_covariance[np.ix_([axis_a, axis_b], [axis_a, axis_b])]
        eigenvalues, eigenvectors = np.linalg.eigh(block)
        # chi-square quantile for 2 dof: -2 ln(1 - p).
        scale = -2.0 * np.log(1.0 - probability)
        order = np.argsort(eigenvalues)[::-1]
        major = float(np.sqrt(max(eigenvalues[order[0]], 0.0) * scale))
        minor = float(np.sqrt(max(eigenvalues[order[1]], 0.0) * scale))
        direction = eigenvectors[:, order[0]]
        angle = float(np.arctan2(direction[1], direction[0]))
        return major, minor, angle


def estimate_uncertainty(
    system: LinearSystem, solution: Solution
) -> SolutionUncertainty:
    """Covariance of a solved system from its weighted residuals.

    Args:
        system: the radical system that was solved.
        solution: the LS/WLS solution for it.

    Raises:
        ValueError: if the system has no redundancy (rows <= unknowns) or
            the normal matrix is singular.
    """
    matrix = system.matrix
    weights = solution.weights
    unknowns = matrix.shape[1]
    # Effective degrees of freedom under weighting, as the IRLS kernel's.
    dof = float(np.sum(weights)) - unknowns
    if matrix.shape[0] <= unknowns or dof <= 0.0:
        raise ValueError(
            f"need more equations than unknowns for a variance estimate "
            f"(rows {matrix.shape[0]}, unknowns {unknowns}, dof {dof:.2f})"
        )
    normal = matrix.T @ (weights[:, np.newaxis] * matrix)
    try:
        inverse = np.linalg.inv(normal)
    except np.linalg.LinAlgError as error:
        raise ValueError("normal matrix is singular (degenerate geometry)") from error
    variance = float(
        residual_variance(weights[np.newaxis], solution.residuals[np.newaxis], unknowns)[0]
    )
    covariance = variance * inverse
    position_std = np.sqrt(np.clip(np.diag(covariance)[: system.dim], 0.0, None))
    return SolutionUncertainty(
        covariance=covariance,
        position_std_m=position_std,
        residual_std=float(np.sqrt(variance)),
        dof=dof,
    )


def uncertainty_of(result: LocalizationResult) -> SolutionUncertainty:
    """Uncertainty for a :class:`LocalizationResult` (its stored system).

    Note: when the result used lower-dimension recovery, the returned
    covariance covers the *directly solved* coordinates; the recovered
    coordinate inherits an amplified variance
    ``var(recovered) ≈ (d_r / offset)² var(d_r)`` that this linearised
    summary does not include.
    """
    return estimate_uncertainty(result.system, result.solution)
