"""One bounded, thread-safe LRU map that counts its own hits and misses.

Every cross-call cache in the package is an instance of
:class:`BoundedLRU`: the trajectory-template cache of
:mod:`repro.core.batch_prepare`, the pairing/assembly-recipe cache of
:mod:`repro.core.sweep`, the serve result cache
(:class:`repro.serve.cache.ResultCache`) and the calibration lookups of
:class:`repro.calib.resolver.CalibrationResolver`. The type owns the
lock, the recency order and the counters; callers own their keys, what
they build on a miss, and the metrics they emit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class BoundedLRU(Generic[K, V]):
    """A least-recently-used map holding at most ``max_entries`` values.

    Every :meth:`get` counts one hit or one miss, so ``hits + misses``
    is the number of lookups. ``max_entries <= 0`` disables the cache:
    every ``get`` returns ``None`` uncounted and ``put`` stores nothing.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: K) -> Optional[V]:
        """The value under ``key`` (now the most recent), or ``None``."""
        if self.max_entries <= 0:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
            return value

    def put(self, key: K, value: V) -> None:
        """Store ``value`` as the most recent entry, evicting the oldest overflow."""
        if self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def discard(self, predicate: Callable[[K], bool]) -> None:
        """Drop every entry whose key satisfies ``predicate``; counters stay."""
        with self._lock:
            for key in [key for key in self._entries if predicate(key)]:
                del self._entries[key]

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def info(self) -> Dict[str, int]:
        """``hits``, ``misses``, ``size`` and ``max_entries``."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._entries),
                "max_entries": self.max_entries,
            }
