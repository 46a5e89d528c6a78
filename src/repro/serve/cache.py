"""Thread-safe LRU result cache keyed on request fingerprints.

Serving workloads re-read the same deployment repeatedly — calibration
sweeps re-submit one scan while tuning, dashboards poll the latest
estimate — so an exact-match result cache in front of the solver turns
those repeats into O(1) lookups. Keys are
``(estimator, config_hash, request_fingerprint)`` content digests (see
:meth:`repro.pipeline.EstimationRequest.fingerprint`), so two requests
with equal field values hit the same entry regardless of object
identity, and any change to the scan bytes or the config misses.
"""

from __future__ import annotations

from typing import Tuple

from repro.lru import BoundedLRU
from repro.pipeline.contract import EstimationReport

#: ``(estimator name, config hash, request fingerprint)``.
CacheKey = Tuple[str, str, str]


class ResultCache(BoundedLRU[CacheKey, EstimationReport]):
    """Bounded LRU mapping of request fingerprints to finished reports.

    ``max_entries <= 0`` disables caching entirely (every ``get`` misses,
    ``put`` is a no-op) — the engine uses this for cache-off configs
    without branching at every call site.
    """

    def __init__(self, max_entries: int = 128) -> None:
        super().__init__(max_entries)
