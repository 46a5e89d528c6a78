"""Radical line/plane equation rows (paper Eq. 7 and Eq. 9).

Subtracting the circle (sphere) equations of two tag positions ``i`` and
``j`` cancels the quadratic antenna terms and leaves a *linear* equation in
the antenna position. Because only distance *differences*
``delta_d = d - d_r`` are observable from phase, the unknown reference
distance ``d_r`` is carried as one more linear unknown::

    2(p_i - p_j) . p  +  2(delta_d_i - delta_d_j) d_r
        = |p_i|^2 - |p_j|^2 - delta_d_i^2 + delta_d_j^2

Each pair of reads contributes one such row; stacking rows over many pairs
yields the over-determined :class:`LinearSystem` solved in
:mod:`repro.core.solvers`. Everything in a row except the ``delta_d``
terms depends on the positions alone, so :class:`AssemblyRecipe` holds
that half once per pair selection and completes it per scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

#: Relative and absolute tolerance of the coincident-position test
#: (``np.isclose``'s defaults).
_RTOL = 1e-5
_ATOL = 1e-8


def _coincident(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Whether positions coincide, over the last axis.

    The one coincident-pair rule of the radical rows: a pair coincides
    when every coordinate of ``first`` is within ``_ATOL + _RTOL *
    |second|`` of ``second``. The verdict equals
    ``np.all(np.isclose(first, second), axis=-1)`` on every input
    (NaN is never close, equal infinities are), without
    ``np.isclose``'s per-call overhead, which a lone request's recipe
    build and every streaming read pay.
    """
    with np.errstate(invalid="ignore"):
        close = np.abs(first - second) <= _ATOL + _RTOL * np.abs(second)
    close &= np.isfinite(second)
    close |= first == second
    return close.all(axis=-1)


def radical_row(
    position_i: np.ndarray,
    delta_d_i: float,
    position_j: np.ndarray,
    delta_d_j: float,
) -> Tuple[np.ndarray, float]:
    """One radical equation row for a pair of reads.

    Args:
        position_i: tag position of the first read, shape ``(dim,)`` with
            dim 2 or 3.
        delta_d_i: distance difference of the first read relative to the
            reference read (Eq. 6), meters.
        position_j: tag position of the second read, same dim.
        delta_d_j: distance difference of the second read.

    Returns:
        ``(coefficients, kappa)`` where ``coefficients`` has shape
        ``(dim + 1,)`` — the last entry multiplies ``d_r`` — and ``kappa``
        is the right-hand side.

    Raises:
        ValueError: if positions disagree in dimension or coincide (a
            coincident pair yields the degenerate row 0 = 0 only when the
            delta distances also agree; otherwise it is inconsistent noise,
            so both cases are rejected).
    """
    pi = np.asarray(position_i, dtype=float)
    pj = np.asarray(position_j, dtype=float)
    if pi.shape != pj.shape or pi.ndim != 1 or pi.shape[0] not in (2, 3):
        raise ValueError(
            f"positions must share shape (2,) or (3,), got {pi.shape} and {pj.shape}"
        )
    if _coincident(pi, pj):
        raise ValueError("radical equation undefined for coincident tag positions")
    spatial = 2.0 * (pi - pj)
    omega = 2.0 * (delta_d_i - delta_d_j)
    coefficients = np.concatenate([spatial, [omega]])
    kappa = float(np.dot(pi, pi) - np.dot(pj, pj) - delta_d_i**2 + delta_d_j**2)
    return coefficients, kappa


@dataclass(frozen=True)
class LinearSystem:
    """An assembled radical-equation system ``A [x y (z) d_r]^T = K`` (Eq. 12).

    Attributes:
        matrix: coefficient matrix ``A`` of shape ``(m, dim + 1)``; the
            last column multiplies the reference distance ``d_r``.
        rhs: right-hand side ``K`` of shape ``(m,)``.
        dim: spatial dimensionality, 2 or 3.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.matrix.ndim != 2 or self.matrix.shape[1] != self.dim + 1:
            raise ValueError(
                f"matrix must be (m, {self.dim + 1}), got {self.matrix.shape}"
            )
        if self.rhs.shape != (self.matrix.shape[0],):
            raise ValueError(
                f"rhs must have shape ({self.matrix.shape[0]},), got {self.rhs.shape}"
            )

    @property
    def equation_count(self) -> int:
        """Number of radical equations (rows)."""
        return int(self.matrix.shape[0])

    def column_excitation(self) -> np.ndarray:
        """RMS magnitude per unknown's column — a conditioning diagnostic.

        A near-zero entry means the pairing never displaced along that
        coordinate, i.e. the lower-dimension issue (Sec. III-C) applies.
        """
        return np.sqrt(np.mean(self.matrix**2, axis=0))

    def observable_coordinates(self, threshold: float = 1e-9) -> np.ndarray:
        """Boolean mask over the ``dim`` coordinates that the system excites."""
        return self.column_excitation()[: self.dim] > threshold


class AssemblyRecipe:
    """The phase-independent half of a radical system.

    Holds what the rows of one pair selection take from the geometry
    alone: the pair index columns, the spatial coefficients
    ``2 (p_i - p_j)`` and the position part ``|p_i|^2 - |p_j|^2`` of the
    right-hand side. :meth:`assemble` completes the system from one
    scan's ``delta_d``. This is the one implementation of the vectorised
    rows: :func:`radical_rows`, :func:`repro.core.system.build_system`,
    ``LionLocalizer.locate`` and the multi-reference builder assemble a
    fresh recipe once, while the fused sweep, the serve batch path and
    streaming re-solves cache recipes across scans that share a geometry
    and assemble them per scan.

    Args:
        pairs: index pairs ``(i, j)`` into the rows of ``points``.
        points: tag positions, shape ``(n, 2)`` or ``(n, 3)``; a 3-column
            input with ``dim=2`` uses the first two columns, a 2-column
            input with ``dim=3`` gets ``z = 0``.
        dim: spatial dimension of the system, 2 or 3.

    Raises:
        ValueError: on an empty pair list, pairs that are not 2-tuples,
            out-of-range indices, or any coincident-position pair.
    """

    __slots__ = ("index_i", "index_j", "spatial", "squared", "dim", "_spatial32", "_squared32")

    def __init__(self, pairs: Sequence[Tuple[int, int]], points: np.ndarray, dim: int):
        points = np.asarray(points, dtype=float)
        if dim == 2 and points.shape[1] == 3:
            points = points[:, :2]
        elif dim == 3 and points.shape[1] == 2:
            points = np.hstack([points, np.zeros((points.shape[0], 1))])
        if len(pairs) == 0:
            raise ValueError("need at least one pair of reads")
        index = np.asarray(pairs, dtype=int)
        if index.ndim != 2 or index.shape[1] != 2:
            raise ValueError(f"pairs must be a sequence of 2-tuples, got shape {index.shape}")
        if index.min() < 0 or index.max() >= points.shape[0]:
            raise ValueError("pair index out of range")
        pi = points[index[:, 0]]
        pj = points[index[:, 1]]
        if _coincident(pi, pj).any():
            raise ValueError("radical equation undefined for coincident tag positions")
        self.index_i = np.ascontiguousarray(index[:, 0])
        self.index_j = np.ascontiguousarray(index[:, 1])
        self.spatial = 2.0 * (pi - pj)
        self.squared = np.einsum("ij,ij->i", pi, pi) - np.einsum("ij,ij->i", pj, pj)
        self.dim = dim
        self._spatial32: np.ndarray | None = None
        self._squared32: np.ndarray | None = None

    def assemble(self, delta_d: np.ndarray) -> LinearSystem:
        """Complete the system from one scan's distance differences."""
        di = delta_d[self.index_i]
        dj = delta_d[self.index_j]
        matrix = np.empty((self.spatial.shape[0], self.dim + 1))
        matrix[:, : self.dim] = self.spatial
        matrix[:, self.dim] = 2.0 * (di - dj)
        rhs = self.squared - di**2 + dj**2
        return LinearSystem(matrix=matrix, rhs=rhs, dim=self.dim)

    def geometry32(self) -> tuple[np.ndarray, np.ndarray]:
        """Float32 casts of the geometry terms, computed once per recipe.

        The serving engine's float32 pipeline assembles padded system
        stacks directly from these; recipes are cached cross-call, so the
        cast amortizes to zero over repeat-trajectory traffic. The lazy
        fill is idempotent, so a racing double-compute is harmless.
        """
        if self._spatial32 is None or self._squared32 is None:
            self._spatial32 = self.spatial.astype(np.float32)
            self._squared32 = self.squared.astype(np.float32)
        return self._spatial32, self._squared32


def radical_inputs(
    positions: np.ndarray, delta_d: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Validated float copies of the positions and distance differences.

    Raises:
        ValueError: unless ``positions`` is ``(n, 2)`` or ``(n, 3)`` and
            ``delta_d`` is ``(n,)``.
    """
    points = np.asarray(positions, dtype=float)
    deltas = np.asarray(delta_d, dtype=float)
    if points.ndim != 2 or points.shape[1] not in (2, 3):
        raise ValueError(f"positions must be (n, 2) or (n, 3), got {points.shape}")
    if deltas.shape != (points.shape[0],):
        raise ValueError(
            f"delta_d must have shape ({points.shape[0]},), got {deltas.shape}"
        )
    return points, deltas


def radical_rows(
    positions: np.ndarray,
    delta_d: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised construction of radical rows for many index pairs.

    Validates its inputs and assembles one :class:`AssemblyRecipe`.

    Args:
        positions: tag positions, shape ``(n, dim)`` with dim 2 or 3.
        delta_d: distance differences per read, shape ``(n,)``.
        pairs: index pairs ``(i, j)`` into the reads.

    Returns:
        ``(matrix, rhs)`` with shapes ``(m, dim + 1)`` and ``(m,)``.

    Raises:
        ValueError: on shape mismatch, empty pair list, out-of-range
            indices, or any coincident-position pair.
    """
    points, deltas = radical_inputs(positions, delta_d)
    system = AssemblyRecipe(pairs, points, points.shape[1]).assemble(deltas)
    return system.matrix, system.rhs
