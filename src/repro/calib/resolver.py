"""Serve-time calibration lookups with a generation-stamped cache.

A ``POST /v1/locate`` body for the differential multi-antenna estimator
can name its antennas (the wire field ``antennas``) instead of shipping
explicit centers and offset corrections. The HTTP front end
(:mod:`repro.serve.net.http`) turns the names into those arrays through
:meth:`CalibrationResolver.lookup` before the shard hop, so workers and
estimators only ever see explicit arrays. The lookup is cached per
``(antenna tuple, dim)`` and stamped with the store's commit
**generation**: any commit anywhere in the fleet advances the
generation, so the next lookup misses and re-reads — serving picks up a
freshly committed calibration without watching individual antennas or
invalidating entries by hand.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.calib.store import CalibrationStore
from repro.lru import BoundedLRU
from repro.obs import get_registry, metrics_enabled

_CacheKey = Tuple[Tuple[str, ...], int, int]


class CalibrationResolver:
    """Resolves antenna names into calibrated centers and offset corrections.

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
        """Centers ``(n, dim)`` and relative offsets ``(n,)``, cached.

        Raises:
            UnknownAntennaError: an antenna the store has no records for.
        """
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
