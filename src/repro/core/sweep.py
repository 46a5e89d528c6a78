"""Fused adaptive-sweep engine: shared prep, cached pairing, one batch solve.

The adaptive parameter selection of Sec. IV-C1 solves a 6x6
(range, interval) grid per localization; the legacy path ran each cell
through a full scalar :meth:`LionLocalizer.locate` — per-cell masking,
per-cell pairing, per-cell scalar IRLS. The cells are far from
independent, though:

* every cell of one grid *row* shares the same range-window mask, so
  masking / reference selection / degeneracy handling / Eq. (6) collapse
  to one :meth:`LionLocalizer._prepare_scan` per distinct mask;
* pair selection — and the geometry half of the radical rows (Eq. 7):
  the spatial coefficients ``2 (p_i - p_j)`` and the position term of the
  right-hand side — depend only on the masked geometry and the interval,
  never on the phases, so each distinct ``(mask, interval)`` assembly
  recipe is built exactly once and *cached across calls* (Monte-Carlo
  trials re-use one trajectory with fresh phase noise, hitting the cache
  every sweep after the first); per trial only the phase-dependent
  ``d_r`` column and right-hand side are computed;
* the per-cell IRLS solves collapse into one padded
  ``(cells, max_rows, dim + 2)`` assembly tensor handed to the masked
  batch entry (:func:`repro.core.solvers.solve_weighted_least_squares_masked_batch`)
  of the float64 normal-equation kernel, which runs every cell in one
  IRLS loop — Grams stacked per row count, one LAPACK call per round —
  and stops each cell on its own standard error; its solutions are
  bit-identical to the scalar solver.

:func:`fused_sweep` therefore returns exactly the per-cell results (and
per-cell ``ValueError`` rejections) the legacy per-cell dispatch would
produce, only faster; ``tests/test_adaptive_fused.py`` pins the
equivalence bitwise.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.localizer import LionLocalizer, LocalizationResult, PreparedScan
from repro.core.solvers import (
    solve_least_squares,
    solve_weighted_least_squares_masked_batch,
)
from repro.core.system import LinearSystem
from repro.core.weights import gaussian_residual_weights
from repro.obs import get_registry, metrics_enabled

Pair = Tuple[int, int]

#: One grid cell: ``(range_m, interval_m, row)`` where ``row`` indexes the
#: stacked exclusion-mask matrix (one row per distinct range window).
Cell = Tuple[float, float, int]

#: Per-cell outcome: the localization, or the ``ValueError`` that cell
#: would have raised on the scalar path (callers classify it).
CellResult = Union[LocalizationResult, ValueError]

# ---------------------------------------------------------------------------
# cross-call pairing / assembly-recipe cache
# ---------------------------------------------------------------------------


class _AssemblyRecipe:
    """The phase-independent half of one cell's radical system.

    Caches the pair selection and the geometry terms of
    :func:`repro.core.radical.radical_rows` — the spatial coefficients
    ``2 (p_i - p_j)``, the position part ``|p_i|^2 - |p_j|^2`` of the
    right-hand side, and the pair index columns. :meth:`assemble` then
    completes the system from one trial's ``delta_d`` with exactly the
    operations (and operation order) ``build_system`` would run, so the
    assembled system is bit-identical to an uncached build.
    """

    __slots__ = (
        "pairs",
        "index_i",
        "index_j",
        "spatial",
        "squared",
        "dim",
        "_spatial32",
        "_squared32",
    )

    def __init__(
        self,
        pairs: Tuple[Pair, ...],
        points: np.ndarray,
        dim: int,
    ):
        # Mirror build_system's dimension promotion before any geometry.
        points = np.asarray(points, dtype=float)
        if dim == 2 and points.shape[1] == 3:
            points = points[:, :2]
        elif dim == 3 and points.shape[1] == 2:
            points = np.hstack([points, np.zeros((points.shape[0], 1))])
        # Mirror radical_rows' validation; everything here is
        # phase-independent, so a failure is deterministic per cache key
        # and re-raised on every call exactly like the uncached path.
        if len(pairs) == 0:
            raise ValueError("need at least one pair of reads")
        index = np.asarray(pairs, dtype=int)
        if index.min() < 0 or index.max() >= points.shape[0]:
            raise ValueError("pair index out of range")
        pi = points[index[:, 0]]
        pj = points[index[:, 1]]
        if np.any(np.all(np.isclose(pi, pj), axis=1)):
            raise ValueError(
                "radical equation undefined for coincident tag positions"
            )
        self.pairs = pairs
        self.index_i = np.ascontiguousarray(index[:, 0])
        self.index_j = np.ascontiguousarray(index[:, 1])
        self.spatial = 2.0 * (pi - pj)
        self.squared = np.einsum("ij,ij->i", pi, pi) - np.einsum(
            "ij,ij->i", pj, pj
        )
        self.dim = dim
        self._spatial32: np.ndarray | None = None
        self._squared32: np.ndarray | None = None

    def assemble(self, delta_d: np.ndarray) -> LinearSystem:
        """Complete the system from one trial's distance differences."""
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


_PAIR_CACHE: "OrderedDict[tuple, _AssemblyRecipe]" = OrderedDict()
_PAIR_CACHE_LOCK = threading.Lock()
_PAIR_CACHE_MAX = 1024
_pair_cache_hits = 0
_pair_cache_misses = 0


def pair_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the cross-call pairing cache."""
    with _PAIR_CACHE_LOCK:
        return {
            "hits": _pair_cache_hits,
            "misses": _pair_cache_misses,
            "size": len(_PAIR_CACHE),
            "max_size": _PAIR_CACHE_MAX,
        }


def clear_pair_cache() -> None:
    """Empty the pairing cache and reset its counters (tests, benchmarks)."""
    global _pair_cache_hits, _pair_cache_misses
    with _PAIR_CACHE_LOCK:
        _PAIR_CACHE.clear()
        _pair_cache_hits = 0
        _pair_cache_misses = 0


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
) -> "_AssemblyRecipe":
    """Public entry to the cross-call pairing/assembly cache.

    Used by :mod:`repro.serve` to share pair selection and the
    phase-independent radical-row geometry across concurrent requests that
    observe the same trajectory — the dominant serving pattern, where many
    devices re-read one deployment geometry with fresh phases. The returned
    recipe's :meth:`_AssemblyRecipe.assemble` completes a
    :class:`~repro.core.system.LinearSystem` bit-identical to
    ``build_system`` from one request's ``delta_d``.
    """
    return _cached_recipe(localizer, prepared, interval_m, scan_key, mask_key)


def _cached_recipe(
    localizer: LionLocalizer,
    prepared: PreparedScan,
    interval_m: float,
    scan_key: Tuple[bytes, bytes],
    mask_key: bytes,
) -> _AssemblyRecipe:
    """Pairing + assembly recipe memoized on ``(scan, mask, dim, interval)``.

    Pair selection and the radical-row geometry read only the masked
    positions (and segment structure) — not the phases — so the key needs
    no profile digest and the cache carries across Monte-Carlo trials
    that re-noise one trajectory. Failures (``ValueError``) are not
    cached; they propagate per call like the scalar path.
    """
    global _pair_cache_hits, _pair_cache_misses
    key = (scan_key, mask_key, localizer.dim, float(interval_m))
    with _PAIR_CACHE_LOCK:
        cached = _PAIR_CACHE.get(key)
        if cached is not None:
            _PAIR_CACHE.move_to_end(key)
            _pair_cache_hits += 1
    if cached is not None:
        if metrics_enabled():
            get_registry().counter("adaptive.pair_cache_total", result="hit").inc()
        return cached
    pairs = tuple(
        localizer._auto_pairs(prepared.solve_points, prepared.used_segments, interval_m)
    )
    recipe = _AssemblyRecipe(pairs, prepared.solve_points, localizer.dim)
    with _PAIR_CACHE_LOCK:
        _pair_cache_misses += 1
        _PAIR_CACHE[key] = recipe
        while len(_PAIR_CACHE) > _PAIR_CACHE_MAX:
            _PAIR_CACHE.popitem(last=False)
    if metrics_enabled():
        get_registry().counter("adaptive.pair_cache_total", result="miss").inc()
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
        :class:`LocalizationResult`, or the ``ValueError`` the scalar
        per-cell path would have raised (bit-identical either way).
    """
    results: List[CellResult | None] = [None] * len(cells)
    scan_key = (_digest(points), _digest(segments) if segments is not None else b"")

    # Stage 1 — one preparation per distinct range window. Every value a
    # prepared scan holds depends only on (points, profile, mask, config),
    # so cells sharing a mask share the prepared object bit for bit.
    prepared_rows: Dict[int, PreparedScan | ValueError] = {}
    mask_keys: Dict[int, bytes] = {}
    for row in sorted({cell[2] for cell in cells}):
        try:
            prepared_rows[row] = localizer._prepare_scan(
                points, profile, segments, excludes[row], None
            )
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
            recipe = _cached_recipe(
                localizer, prepared, interval_m, scan_key, mask_keys[row]
            )
            system = recipe.assemble(prepared.delta_d)
        except ValueError as error:
            results[index] = error
            continue
        pending.append((index, prepared, system))

    # Stage 3 — one masked batch solve over the padded assembly tensor
    # (columns [:dim+1] hold each cell's coefficient matrix, the last
    # column its rhs), then the shared finalize path per cell.
    if pending:
        if localizer.method == "wls":
            counts = np.array([system.equation_count for _, _, system in pending])
            max_rows = int(counts.max())
            columns = localizer.dim + 1
            assembly = np.zeros((len(pending), max_rows, columns + 1))
            valid = np.arange(max_rows)[np.newaxis, :] < counts[:, np.newaxis]
            for slot, (_, _, system) in enumerate(pending):
                assembly[slot, : counts[slot], :columns] = system.matrix
                assembly[slot, : counts[slot], -1] = system.rhs
            solutions = solve_weighted_least_squares_masked_batch(
                assembly[:, :, :columns],
                assembly[:, :, -1],
                valid,
                weight_function=gaussian_residual_weights,
                max_iterations=localizer.max_iterations,
                tolerance_m=localizer.tolerance_m,
            )
        else:
            solutions = [solve_least_squares(system) for _, _, system in pending]
        for (index, prepared, system), solution in zip(pending, solutions):
            try:
                results[index] = localizer._finalize_solution(
                    prepared, system, solution
                )
            except ValueError as error:
                results[index] = error
    return results  # type: ignore[return-value]
