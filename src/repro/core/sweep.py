"""Fused adaptive-sweep engine: shared prep, cached pairing, one batch solve.

The adaptive parameter selection of Sec. IV-C1 solves a 6x6
(range, interval) grid per localization. Solving each cell through a
full scalar :meth:`LionLocalizer.locate` would repeat the masking, the
pairing and the IRLS per cell. The cells are far from independent,
though:

* every cell of one grid *row* shares the same range-window mask, so
  the geometry step (:meth:`LionLocalizer.scan_template`: masking,
  reference selection, degeneracy handling) and the phase step's
  Eq. (6) deltas run once per distinct mask;
* pair selection — and the geometry half of the radical rows (Eq. 7):
  the spatial coefficients ``2 (p_i - p_j)`` and the position term of the
  right-hand side — depend only on the masked geometry and the interval,
  never on the phases, so each distinct ``(mask, interval)``
  :class:`~repro.core.radical.AssemblyRecipe` is built exactly once and
  *cached across calls* (Monte-Carlo trials re-use one trajectory with
  fresh phase noise, hitting the cache every sweep after the first); per
  trial only the phase-dependent ``d_r`` column and right-hand side are
  computed;
* the per-cell IRLS solves collapse into one call of
  :func:`repro.core.solvers.solve_weighted_least_squares_batch`, the
  float64 normal-equation kernel, which runs every cell in one IRLS
  loop — Grams stacked per row count, one LAPACK call per round — and
  stops each cell on its own standard error; its solutions are
  bit-identical to the scalar solver.

:func:`fused_sweep` therefore returns exactly the results (and the
``ValueError`` rejections) of one ``locate()`` per cell, only faster;
``tests/test_adaptive_fused.py`` pins the equivalence bitwise.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.localizer import LionLocalizer, LocalizationResult, PreparedScan
from repro.core.radical import AssemblyRecipe, LinearSystem
from repro.core.solvers import solve_least_squares, solve_weighted_least_squares_batch
from repro.core.weights import gaussian_residual_weights
from repro.lru import BoundedLRU
from repro.obs import get_registry, metrics_enabled

#: One grid cell: ``(range_m, interval_m, row)`` where ``row`` indexes the
#: stacked exclusion-mask matrix (one row per distinct range window).
Cell = Tuple[float, float, int]

#: Per-cell outcome: the localization, or the ``ValueError`` that cell
#: would have raised on the scalar path (callers classify it).
CellResult = Union[LocalizationResult, ValueError]

# ---------------------------------------------------------------------------
# cross-call pairing / assembly-recipe cache
# ---------------------------------------------------------------------------

_PAIR_CACHE: BoundedLRU[tuple, AssemblyRecipe] = BoundedLRU(1024)


def pair_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the cross-call pairing cache."""
    info = _PAIR_CACHE.info()
    info["max_size"] = info.pop("max_entries")
    return info


def clear_pair_cache() -> None:
    """Empty the pairing cache and reset its counters (tests, benchmarks)."""
    _PAIR_CACHE.clear()


def _digest(array: np.ndarray) -> bytes:
    """Content digest of an array (shape + dtype + bytes)."""
    data = np.ascontiguousarray(array)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(repr((data.shape, data.dtype.str)).encode())
    hasher.update(data.tobytes())
    return hasher.digest()


def content_digest(array: np.ndarray | None) -> bytes:
    """Content digest of an array for cross-call cache keys.

    ``None`` digests to ``b""`` so optional inputs (segments, masks) can be
    keyed uniformly. Shared by the fused adaptive sweep and the serving
    engine (:mod:`repro.serve`), which both key geometry-only caches on
    scan content rather than object identity.
    """
    return _digest(array) if array is not None else b""


def cached_assembly_recipe(
    localizer: LionLocalizer,
    prepared: PreparedScan,
    interval_m: float,
    scan_key: Tuple[bytes, bytes],
    mask_key: bytes,
) -> AssemblyRecipe:
    """Pairing + assembly recipe memoized on ``(scan, mask, dim, interval)``.

    Shares pair selection and the phase-independent radical-row geometry
    across every solve that observes the same trajectory: the fused
    sweep's cells, concurrent serve requests (many devices re-reading one
    deployment geometry with fresh phases) and streaming re-solves. Pair
    selection and the row geometry read only the masked positions (and
    segment structure), not the phases, so the key needs no profile
    digest and the cache carries across Monte-Carlo trials that re-noise
    one trajectory. The recipe's :meth:`~repro.core.radical.AssemblyRecipe.assemble`
    completes a system bit-identical to ``build_system`` from one scan's
    ``delta_d``. Failures (``ValueError``) are not cached; they propagate
    per call like the scalar path.
    """
    key = (scan_key, mask_key, localizer.dim, float(interval_m))
    recipe = _PAIR_CACHE.get(key)
    if metrics_enabled():
        result = "miss" if recipe is None else "hit"
        get_registry().counter("adaptive.pair_cache_total", result=result).inc()
    if recipe is None:
        pairs = localizer._auto_pairs(
            prepared.solve_points, prepared.used_segments, interval_m
        )
        recipe = AssemblyRecipe(pairs, prepared.solve_points, localizer.dim)
        _PAIR_CACHE.put(key, recipe)
    return recipe


# ---------------------------------------------------------------------------
# the fused sweep
# ---------------------------------------------------------------------------


def fused_sweep(
    localizer: LionLocalizer,
    points: np.ndarray,
    profile: np.ndarray,
    segments: np.ndarray | None,
    excludes: np.ndarray,
    cells: Sequence[Cell],
) -> List[CellResult]:
    """Solve every grid cell of one adaptive sweep as a fused batch.

    Args:
        localizer: the configured :class:`LionLocalizer`.
        points: full scan positions, shape ``(n, 2)`` or ``(n, 3)``.
        profile: the *preprocessed* phase profile, shape ``(n,)``.
        segments: per-read segment ids, or ``None``.
        excludes: stacked per-range exclusion masks, shape
            ``(ranges, n)`` — row ``cells[i][2]`` is cell ``i``'s mask.
        cells: the grid cells to solve, in sweep order.

    Returns:
        Per-cell results aligned with ``cells``: a
        :class:`LocalizationResult`, or the ``ValueError`` a scalar
        ``locate()`` of the cell would have raised (bit-identical either
        way).
    """
    results: List[CellResult | None] = [None] * len(cells)
    scan_key = (_digest(points), _digest(segments) if segments is not None else b"")

    # Stage 1 — one geometry step and one phase step per distinct range
    # window. Every value a prepared scan holds depends only on (points,
    # profile, mask, config), so cells sharing a mask share the prepared
    # object bit for bit.
    prepared_rows: Dict[int, PreparedScan | ValueError] = {}
    mask_keys: Dict[int, bytes] = {}
    for row in sorted({cell[2] for cell in cells}):
        try:
            template = localizer.scan_template(points, segments, excludes[row])
            prepared_rows[row] = localizer.complete_scan(template, profile)
            mask_keys[row] = _digest(excludes[row])
        except ValueError as error:
            prepared_rows[row] = error

    # Stage 2 — cached pairing/geometry recipe, phase-dependent assembly.
    pending: List[Tuple[int, PreparedScan, LinearSystem]] = []
    for index, (range_m, interval_m, row) in enumerate(cells):
        prepared = prepared_rows[row]
        if isinstance(prepared, ValueError):
            results[index] = prepared
            continue
        try:
            recipe = cached_assembly_recipe(
                localizer, prepared, interval_m, scan_key, mask_keys[row]
            )
            system = recipe.assemble(prepared.delta_d)
        except ValueError as error:
            results[index] = error
            continue
        pending.append((index, prepared, system))

    # Stage 3 — one batch solve over every cell's system, then the shared
    # finalize path per cell.
    if pending:
        systems = [system for _, _, system in pending]
        if localizer.method == "wls":
            solutions = solve_weighted_least_squares_batch(
                systems,
                weight_function=gaussian_residual_weights,
                max_iterations=localizer.max_iterations,
                tolerance_m=localizer.tolerance_m,
            )
        else:
            solutions = [solve_least_squares(system) for system in systems]
        for (index, prepared, system), solution in zip(pending, solutions):
            try:
                results[index] = localizer._finalize_solution(
                    prepared, system, solution
                )
            except ValueError as error:
                results[index] = error
    return results  # type: ignore[return-value]
