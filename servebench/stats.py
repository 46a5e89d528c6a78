"""Percentiles and the server-side counters read around each window."""

from __future__ import annotations

import json
import math
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from serverproc import http_get

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')

#: ``(name, sorted labels)`` of a Prometheus series, or ``("statz", path)``.
Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default), 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summary(values: List[float]) -> Tuple[float, float, int]:
    """``(median, p99, n)`` of a sample."""
    return percentile(values, 50.0), percentile(values, 99.0), len(values)


def share(part: float, whole: float) -> float:
    """``part / whole``, 0.0 when nothing was counted."""
    return part / whole if whole > 0 else 0.0


#: ``/statz`` engine counters kept, as (path, key), summed over shards.
_STATZ = (
    ((), "submitted"),
    ((), "cache_hits"),
    ((), "scalar_fallbacks"),
    (("template_cache",), "hits"),
    (("template_cache",), "misses"),
    (("pair_cache",), "hits"),
    (("pair_cache",), "misses"),
)


def read_counters(port: int) -> Dict[Key, float]:
    """Every ``/metrics`` series and the ``/statz`` counters, flattened."""
    counters: Dict[Key, float] = {}
    status, text = http_get(port, "/metrics", timeout=30.0)
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    for line in text.decode().splitlines():
        match = _SAMPLE.match(line.strip())
        if match is not None:
            name, labels, value = match.groups()
            counters[(name, tuple(sorted(_LABEL.findall(labels or ""))))] = float(value)
    status, body = http_get(port, "/statz", timeout=30.0)
    if status != 200:
        raise RuntimeError(f"/statz answered {status}")
    statz = json.loads(body)

    def lookup(node: object, path: Tuple[str, ...], key: str) -> float:
        for part in path:
            node = node.get(part) if isinstance(node, dict) else None
        return float(node.get(key) or 0) if isinstance(node, dict) else 0.0

    for path, key in _STATZ:
        total = sum(lookup(shard, path, key) for shard in statz.get("per_shard", []))
        counters[("statz", (("engine", ".".join(path + (key,))),))] = total
    return counters


def add_delta(total: Dict[Key, float], before: Dict[Key, float], after: Dict[Key, float]) -> None:
    """Accumulate ``after - before`` into ``total`` (one window's deltas)."""
    for key, value in after.items():
        total[key] = total.get(key, 0.0) + value - before.get(key, 0.0)


def _sum(
    delta: Dict[Key, float], name: str, keep: Optional[Callable[[Dict[str, str]], bool]] = None
) -> float:
    """Sum of every series of ``name`` whose labels pass ``keep``."""
    return sum(
        value
        for (series, labels), value in delta.items()
        if series == name and (keep is None or keep(dict(labels)))
    )


def _statz(delta: Dict[Key, float], path: str) -> float:
    return delta.get(("statz", (("engine", path),)), 0.0)


def window_counters(delta: Dict[Key, float]) -> Dict[str, float]:
    """The per-layer counts and shares of the windows, from server deltas."""
    locate = _sum(
        delta, "lion_serve_net_requests_total", lambda labels: labels.get("route") == "/v1/locate"
    )
    submitted = _statz(delta, "submitted")
    template_hits = _statz(delta, "template_cache.hits")
    pair_hits = _statz(delta, "pair_cache.hits")
    batches = _sum(delta, "lion_serve_batch_size_count")
    singles = _sum(delta, "lion_serve_batch_size_bucket", lambda labels: labels.get("le") == "1")
    return {
        "serve.net.shed_share": share(_sum(delta, "lion_serve_net_shed_total"), locate),
        "batch_wait_sum_s": _sum(delta, "lion_serve_batch_wait_seconds_sum"),
        "batch_wait_count": _sum(delta, "lion_serve_batch_wait_seconds_count"),
        "serve.engine.batch_size_mean": share(_sum(delta, "lion_serve_batch_size_sum"), batches),
        "serve.engine.scalar_fallback_share": share(_statz(delta, "scalar_fallbacks"), submitted),
        "serve.cache.hit_share": share(_statz(delta, "cache_hits"), submitted),
        "core.batch_prepare.template_hit_share": share(
            template_hits, template_hits + _statz(delta, "template_cache.misses")
        ),
        "core.sweep.pair_hit_share": share(
            pair_hits, pair_hits + _statz(delta, "pair_cache.misses")
        ),
        "solver.iterations_mean": share(
            _sum(delta, "lion_solver_irls_iterations_sum"), _sum(delta, "lion_solver_irls_iterations_count")
        ),
        # Mean size of the fused (two or more member) batches, 0 if none.
        "fused_batch_mean": share(
            _sum(delta, "lion_serve_batch_size_sum") - singles, batches - singles
        ),
    }
