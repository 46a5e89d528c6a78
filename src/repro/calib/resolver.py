"""Serve-time calibration resolution with a generation-stamped cache.

A serving request for the differential multi-antenna estimator can name
its antennas (``EstimationRequest.antennas``) instead of shipping
explicit centers and offset corrections; the resolver fills those fields
from the registry's latest committed calibrations at prepare time. The
lookup is cached per ``(antenna tuple, dim)`` and stamped with the
store's commit **generation**: any commit anywhere in the fleet advances
the generation, so the next lookup misses and re-reads — serving picks
up a freshly committed calibration without watching individual antennas
or invalidating entries by hand.

Correctness note: the resolver *rewrites the request* rather than
patching the estimator call, so the engine's result-cache fingerprint
covers the resolved arrays — two requests naming the same antennas
across a recalibration hash differently and never share a cached result.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Dict, Tuple

import numpy as np

from repro.calib.store import CalibrationStore
from repro.lru import BoundedLRU
from repro.obs import get_registry, metrics_enabled
from repro.pipeline.contract import EstimationRequest

_CacheKey = Tuple[Tuple[str, ...], int, int]


class CalibrationResolver:
    """Resolves ``request.antennas`` into centers and offset corrections.

    Args:
        store: the calibration registry.
        max_entries: LRU bound on distinct ``(antennas, dim)`` tuples
            kept per generation.
    """

    def __init__(self, store: CalibrationStore, max_entries: int = 256) -> None:
        self.store = store
        self._cache: BoundedLRU[_CacheKey, Tuple[np.ndarray, np.ndarray]] = BoundedLRU(
            max(1, int(max_entries))
        )

    # -- lookup -----------------------------------------------------------

    def lookup(
        self, antennas: Tuple[str, ...], dim: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Centers ``(n, dim)`` and relative offsets ``(n,)``, cached."""
        generation = self.store.generation
        key: _CacheKey = (antennas, dim, generation)
        cached = self._cache.get(key)
        if metrics_enabled():
            result = "miss" if cached is None else "hit"
            get_registry().counter("serve.calib.lookups_total", result=result).inc()
        if cached is not None:
            return cached
        centers = self.store.centers_for(antennas, dim=dim)
        offsets = self.store.offsets_for(antennas)
        centers.setflags(write=False)
        offsets.setflags(write=False)
        entry = (centers, offsets)
        # Entries from older generations are dead weight; drop them
        # before the LRU bound, so the cache holds one generation.
        self._cache.discard(lambda stale: stale[2] != generation)
        self._cache.put(key, entry)
        if metrics_enabled():
            get_registry().gauge("serve.calib.generation").set(float(generation))
        return entry

    # -- request rewriting ------------------------------------------------

    def resolve(self, request: EstimationRequest) -> EstimationRequest:
        """Fill ``positions`` / ``offset_corrections_rad`` from the store.

        No-op when the request names no antennas or already carries both
        fields explicitly (explicit values always win). Raises
        :class:`repro.calib.errors.UnknownAntennaError` for antennas the
        store has never seen.
        """
        antennas = request.antennas
        if not antennas:
            return request
        needs_positions = request.positions is None
        needs_offsets = request.offset_corrections_rad is None
        if not needs_positions and not needs_offsets:
            return request
        started = time.perf_counter()
        dim = len(request.bounds) if request.bounds is not None else 3
        centers, offsets = self.lookup(tuple(antennas), dim)
        fields: Dict[str, Any] = {}
        if needs_positions:
            fields["positions"] = centers
        if needs_offsets:
            fields["offset_corrections_rad"] = offsets
        resolved = replace(request, **fields)
        if metrics_enabled():
            get_registry().histogram("serve.calib.resolve_seconds").observe(
                time.perf_counter() - started
            )
        return resolved

    # -- introspection ----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Cache counters for ``stats()`` / ``/statz`` payloads."""
        info = self._cache.info()
        total = info["hits"] + info["misses"]
        return {
            "generation": self.store.generation,
            "entries": info["size"],
            "hits": info["hits"],
            "misses": info["misses"],
            "hit_rate": (info["hits"] / total) if total else None,
        }

    def invalidate(self) -> None:
        """Drop every cached entry (tests, manual store surgery)."""
        self._cache.discard(lambda _key: True)
