"""Batched request-path preprocessing: ``prepare()`` across a serve batch.

:meth:`LionLocalizer.prepare` is the front half of every LION request —
validation, phase preprocessing (unwrap + smoothing), mask application,
reference selection, degeneracy handling, and the Eq. (6) distance
differences. The serving engine used to run it one request at a time in
Python, which bounded the whole stack once the solve was fused
(ROADMAP item 4). This module runs the same pipeline *batch-first*:

* **Stacked preprocessing** — requests whose scans share a read count
  and segment structure stack into one ``(members, reads)`` matrix;
  ``np.unwrap`` and the segment-wise moving average run once along the
  row axis. Both are sequential-per-row operations, so every row is
  bit-identical to the scalar :meth:`LionLocalizer.preprocess_phase`
  (``tests/test_batch_prepare.py`` pins this bitwise). Ragged batches
  (mixed read counts or segment layouts) simply form more groups —
  each group is padded only by its own membership, never with fake
  reads, so no padding value can leak into a real profile.

* **Trajectory-template cache** — the geometry step
  (:meth:`LionLocalizer.scan_template`: validation, masking, reference
  selection, degeneracy detection and frame rotation) depends only on
  ``(positions, segments, mask, reference override, dim)``. Its
  :class:`~repro.core.localizer.ScanTemplate` is cached in a cross-call
  LRU keyed on content digests, so repeat geometries — the dominant
  pattern in warehouse portals and the streaming re-solve traffic of
  :mod:`repro.stream`, where many tags re-read one deployment
  trajectory — run only the phase step.

* **Opt-in float32** — ``dtype=np.float32`` runs the phase pipeline in
  single precision for callers that trade exactness for throughput
  (``ServeConfig(dtype="float32")``). The float64 default is
  bit-identical to per-request ``prepare()``; the float32 path is
  bounded by property tests (phases carry radians of order 10^2 and the
  delta scale is ~1e-2, so single precision keeps distance differences
  within ~1e-5 m of the float64 pipeline).

Failures stay per-member: a request that the scalar ``prepare()`` would
reject gets its ``ValueError`` (or subclass) in its result slot; its
batchmates are prepared exactly as if the bad member never existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import TWO_PI
from repro.core.localizer import LionLocalizer, PreparedScan, ScanTemplate
from repro.core.sweep import content_digest
from repro.lru import BoundedLRU
from repro.obs import get_registry, metrics_enabled

__all__ = [
    "PreparedMember",
    "ScanTemplate",
    "clear_template_cache",
    "prepare_batch",
    "template_cache_info",
]


@dataclass
class PreparedMember:
    """One request's slot in a batched prepare.

    Exactly one of ``prepared`` / ``error`` is set. ``scan_key`` and
    ``mask_key`` are the content digests the template lookup computed —
    callers (the fused serve dispatch) reuse them as the pairing-recipe
    cache key instead of digesting the same arrays again.
    """

    prepared: Optional[PreparedScan] = None
    error: Optional[ValueError] = None
    template: Optional[ScanTemplate] = None
    scan_key: Tuple[bytes, bytes] = (b"", b"")
    mask_key: bytes = b""


# ---------------------------------------------------------------------------
# cross-call trajectory-template cache
# ---------------------------------------------------------------------------

_TEMPLATE_CACHE: BoundedLRU[tuple, ScanTemplate] = BoundedLRU(1024)


def template_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the cross-call template cache."""
    info = _TEMPLATE_CACHE.info()
    info["max_size"] = info.pop("max_entries")
    return info


def clear_template_cache() -> None:
    """Empty the template cache and reset its counters (tests, benchmarks)."""
    _TEMPLATE_CACHE.clear()


# ---------------------------------------------------------------------------
# batched preprocessing
# ---------------------------------------------------------------------------


def _segment_runs(segment_ids: Optional[np.ndarray], n: int) -> List[np.ndarray]:
    """The per-segment index runs the scalar ``smooth_profile`` iterates."""
    if segment_ids is None:
        return [np.arange(n)]
    ids = np.asarray(segment_ids, dtype=int)
    boundaries = np.flatnonzero(np.diff(ids) != 0) + 1
    return np.split(np.arange(n), boundaries)


def _batched_moving_average(chunk: np.ndarray, window: int) -> np.ndarray:
    """Row-wise centered moving average, bit-identical per row.

    The same cumulative-sum difference as
    :func:`repro.signalproc.smoothing.moving_average`, run along the last
    axis of a ``(members, samples)`` stack. ``np.cumsum`` accumulates
    each row sequentially exactly as the 1-D call does, and the window
    arithmetic is elementwise, so row ``i`` of the output equals the
    scalar filter applied to row ``i``.
    """
    members, n = chunk.shape
    if window == 1 or n <= 1:
        return chunk
    cumsum = np.concatenate(
        [np.zeros((members, 1), dtype=chunk.dtype), np.cumsum(chunk, axis=1)], axis=1
    )
    half = min(window // 2, n - 1)
    index = np.arange(n)
    reach = np.minimum(half, np.minimum(index, n - 1 - index))
    return (cumsum[:, index + reach + 1] - cumsum[:, index - reach]) / (2 * reach + 1)


def _batched_preprocess(
    localizer: LionLocalizer,
    stacked_phases: np.ndarray,
    segment_ids: Optional[np.ndarray],
) -> np.ndarray:
    """Unwrap + smooth a ``(members, reads)`` stack of wrapped profiles.

    Equivalent to :meth:`LionLocalizer.preprocess_phase` per row. Hampel
    filtering is a data-dependent scalar loop, so configs with
    ``hampel_window > 1`` fall back to the scalar path per member (the
    caller routes those before stacking).
    """
    profile = np.unwrap(
        stacked_phases, discont=localizer.preprocess.jump_threshold_rad, axis=1
    )
    window = localizer.preprocess.smoothing_window
    if window <= 1:
        return profile
    for run in _segment_runs(segment_ids, profile.shape[1]):
        if run.size == 0:
            continue
        profile[:, run] = _batched_moving_average(profile[:, run], window)
    return profile


# ---------------------------------------------------------------------------
# the batched prepare
# ---------------------------------------------------------------------------


def _array_digest(memo: Dict[int, bytes], array: Optional[np.ndarray]) -> bytes:
    """Content digest memoized on array identity for the current batch.

    Serving batches frequently carry the *same array object* across
    members (streaming re-solves, replayed scans, load generators); the
    memo collapses those to one digest. Keys are ``id()``s of arrays the
    caller's requests keep alive for the duration of the call, so no
    stale-id aliasing is possible; the memo dies with the call.
    """
    if array is None:
        return b""
    token = id(array)
    digest = memo.get(token)
    if digest is None:
        digest = content_digest(array)
        memo[token] = digest
    return digest


def prepare_batch(
    localizer: LionLocalizer,
    requests: Sequence[Any],
    dtype: "np.dtype | type" = np.float64,
) -> List[PreparedMember]:
    """Run ``prepare()`` for a group of requests as stacked batch work.

    Every slot carries the prepared scan — bit-identical in float64 to
    ``localizer.prepare(...)`` on the same request — or the
    ``ValueError`` that member raises on the scalar path, the template
    that produced it, and the content digests the serve layer reuses as
    pairing-recipe cache keys.

    Args:
        localizer: the group's configured localizer (one per batch — the
            serve engine groups requests by config hash).
        requests: the member requests, in batch order: each a
            :class:`repro.pipeline.EstimationRequest`, or any object with
            its ``positions``, ``phases_rad``, ``segment_ids``,
            ``exclude_mask`` and ``reference_index`` fields.
        dtype: ``np.float64`` (default, bit-identical to the scalar
            path) or ``np.float32`` (opt-in throughput mode; phase
            preprocessing and distance differences run in single
            precision).

    Returns:
        One :class:`PreparedMember` per request, in request order.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(f"dtype must be float64 or float32, got {dtype}")
    members: List[PreparedMember] = [PreparedMember() for _ in requests]
    digest_memo: Dict[int, bytes] = {}
    scale = localizer.wavelength_m / (2.0 * TWO_PI)
    if dtype == np.dtype(np.float32):
        scale = np.float32(scale)

    # Stage 1 — resolve each member's template (geometry) and group the
    # survivors by (reads, segment layout, template identity is NOT
    # required) for stacked preprocessing.
    groups: Dict[tuple, List[int]] = {}
    for index, request in enumerate(requests):
        member = members[index]
        try:
            if request.positions is None or request.phases_rad is None:
                missing = [
                    name
                    for name in ("positions", "phases_rad")
                    if getattr(request, name) is None
                ]
                raise ValueError(f"request is missing required fields: {missing}")
            phases = request.phases_rad
            positions = request.positions
            pos_key = _array_digest(digest_memo, positions)
            seg_key = _array_digest(digest_memo, request.segment_ids)
            mask_key = _array_digest(digest_memo, request.exclude_mask)
            member.scan_key = (pos_key, seg_key)
            member.mask_key = mask_key
            key = (pos_key, seg_key, mask_key, request.reference_index, localizer.dim)
            template = _TEMPLATE_CACHE.get(key)
            if metrics_enabled():
                get_registry().counter(
                    "serve.template_cache_misses"
                    if template is None
                    else "serve.template_cache_hits"
                ).inc()
            if template is None:
                template = localizer.scan_template(
                    positions,
                    request.segment_ids,
                    request.exclude_mask,
                    request.reference_index,
                )
                _TEMPLATE_CACHE.put(key, template)
            if phases.shape != (template.n_reads,):
                raise ValueError(
                    f"phases must have shape ({template.n_reads},), got {phases.shape}"
                )
            member.template = template
        except ValueError as error:
            member.error = error
            continue
        groups.setdefault((int(template.n_reads), seg_key), []).append(index)

    # Stage 2 — stacked preprocessing per group, then per-member masking
    # and Eq. (6) against each member's template.
    hampel = localizer.preprocess.hampel_window > 1
    for (n_reads, _seg_key), group in groups.items():
        stacked = np.empty((len(group), n_reads), dtype=dtype)
        for slot, index in enumerate(group):
            stacked[slot] = requests[index].phases_rad
        finite = np.isfinite(stacked)
        bad_members: set[int] = set()
        if not finite.all():
            for slot, index in enumerate(group):
                if not finite[slot].all():
                    members[index].error = ValueError(
                        "phases contain non-finite values; filter failed reads upstream"
                    )
                    bad_members.add(index)
        live = [index for index in group if index not in bad_members]
        if not live:
            continue
        if len(live) != len(group):
            stacked = np.stack([requests[index].phases_rad for index in live]).astype(
                dtype, copy=False
            )
        segment_ids = requests[live[0]].segment_ids
        if hampel:
            profiles = np.empty_like(stacked)
            for slot, index in enumerate(live):
                profiles[slot] = localizer.preprocess_phase(
                    stacked[slot],
                    segment_ids=np.asarray(segment_ids, dtype=int)
                    if segment_ids is not None
                    else None,
                ).astype(dtype, copy=False)
        else:
            profiles = _batched_preprocess(localizer, stacked, segment_ids)

        # Members sharing a template vectorize the masking + delta step;
        # a mixed group (same layout, different masks) falls through to
        # one-row slices of the same code.
        by_template: Dict[int, List[int]] = {}
        for slot, index in enumerate(live):
            by_template.setdefault(id(members[index].template), []).append(slot)
        for slots in by_template.values():
            template = members[live[slots[0]]].template
            assert template is not None
            rows = profiles[slots] if len(slots) > 1 else profiles[slots[0] : slots[0] + 1]
            used = rows[:, template.include_indices]
            delta = scale * (used - used[:, template.reference_index, np.newaxis])
            for row, slot in enumerate(slots):
                index = live[slot]
                members[index].prepared = template.complete(used[row], delta[row])
    if metrics_enabled():
        get_registry().histogram(
            "serve.prepare_batch_size",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        ).observe(float(len(requests)))
    return members
