"""The one bounded-LRU type under every cross-call cache (``repro.lru``)."""

import sys
import threading

from repro.lru import BoundedLRU


def _filled(max_entries, keys):
    cache = BoundedLRU(max_entries)
    for key in keys:
        cache.put(key, f"value-{key}")
    return cache


class TestBoundedLRU:
    def test_bound_evicts_the_oldest(self):
        cache = _filled(3, range(5))
        assert cache.info()["size"] == 3
        assert cache.get(0) is None and cache.get(1) is None
        assert [cache.get(key) for key in (2, 3, 4)] == ["value-2", "value-3", "value-4"]

    def test_get_and_put_refresh_recency(self):
        cache = _filled(3, "abc")
        assert cache.get("a") == "value-a"  # a is now the most recent
        cache.put("b", "again")  # so is b, after a
        cache.put("d", "value-d")  # evicts c, the least recent
        assert cache.get("c") is None
        assert cache.get("a") == "value-a"
        assert cache.get("b") == "again"
        assert cache.get("d") == "value-d"

    def test_hit_and_miss_counts(self):
        cache = _filled(4, "ab")
        for key in "aaxbyz":
            cache.get(key)
        assert cache.info() == {"hits": 3, "misses": 3, "size": 2, "max_entries": 4}

    def test_zero_entries_disables_it(self):
        cache = _filled(0, "abc")
        assert cache.get("a") is None
        assert cache.info() == {"hits": 0, "misses": 0, "size": 0, "max_entries": 0}

    def test_clear_resets_counters_discard_keeps_them(self):
        cache = _filled(4, range(4))
        cache.get(0)
        cache.get(9)
        cache.discard(lambda key: key % 2 == 1)
        assert cache.info() == {"hits": 1, "misses": 1, "size": 2, "max_entries": 4}
        assert cache.get(2) == "value-2" and cache.get(3) is None
        cache.clear()
        assert cache.info() == {"hits": 0, "misses": 0, "size": 0, "max_entries": 4}

    def test_concurrent_get_put_stays_bounded_and_counts_every_lookup(self):
        cache = BoundedLRU(16)
        threads, lookups = 4, 2000
        oversize = []
        start = threading.Barrier(threads, timeout=30.0)

        def worker(seed):
            start.wait()
            for step in range(lookups):
                key = (seed * 7 + step * 13) % 40
                if cache.get(key) is None:
                    cache.put(key, step)
                if cache.info()["size"] > 16:
                    oversize.append(step)

        pool = [
            threading.Thread(target=worker, args=(seed,), daemon=True) for seed in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        info = cache.info()
        assert not oversize
        assert info["size"] <= 16
        assert info["hits"] + info["misses"] == threads * lookups
        assert info["hits"] > 0 and info["misses"] > 0
