"""Assembly of the linear system ``A [x y (z) d_r]^T = K`` (paper Eq. 12).

:func:`build_system` validates one scan's inputs and assembles them
through :class:`repro.core.radical.AssemblyRecipe`, which also defines
the :class:`LinearSystem` type re-exported here. Also home of
:func:`delta_distances`, the Eq. (6) conversion from an unwrapped phase
profile to per-read distance differences relative to a chosen reference
read.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.radical import AssemblyRecipe, LinearSystem, radical_inputs


def delta_distances(
    unwrapped_phase_rad: np.ndarray,
    reference_index: int = 0,
    wavelength_m: float = DEFAULT_WAVELENGTH_M,
) -> np.ndarray:
    """Distance differences relative to a reference read (paper Eq. 6).

    ``delta_d_t = lambda / (4 pi) * (theta_t - theta_r)`` — valid only on
    an *unwrapped, stitched* phase profile.

    Args:
        unwrapped_phase_rad: unwrapped phase per read, shape ``(n,)``.
        reference_index: which read is the reference position.
        wavelength_m: carrier wavelength.

    Raises:
        ValueError: on empty input, out-of-range reference index, or
            non-positive wavelength.
    """
    phases = np.asarray(unwrapped_phase_rad, dtype=float)
    if phases.ndim != 1 or phases.size == 0:
        raise ValueError("expected a non-empty 1-D unwrapped phase profile")
    if not 0 <= reference_index < phases.size:
        raise ValueError(
            f"reference index {reference_index} out of range [0, {phases.size})"
        )
    if wavelength_m <= 0.0:
        raise ValueError("wavelength must be positive")
    return (wavelength_m / (2.0 * TWO_PI)) * (phases - phases[reference_index])


def build_system(
    positions: np.ndarray,
    delta_d: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
    dim: int | None = None,
) -> LinearSystem:
    """Build the radical-equation system from reads and a pair selection.

    Args:
        positions: tag positions, shape ``(n, 2)`` or ``(n, 3)``. A 3-column
            input with ``dim=2`` uses only the first two columns (the scan
            must then lie in a constant-z plane containing the target).
        delta_d: per-read distance differences from :func:`delta_distances`.
        pairs: index pairs, e.g. from :mod:`repro.core.pairing`.
        dim: target spatial dimension; inferred from ``positions`` when
            omitted.

    Raises:
        ValueError: on inconsistent shapes or an invalid ``dim``.
    """
    if dim is not None and dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    points, deltas = radical_inputs(positions, delta_d)
    return AssemblyRecipe(pairs, points, dim or points.shape[1]).assemble(deltas)
