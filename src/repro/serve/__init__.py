"""In-process serving engine with dynamic micro-batching.

The ROADMAP's serving tier: concurrent :class:`EstimationRequest`
traffic enters a bounded admission queue, a work-conserving batcher
thread groups the compatible requests already queued by ``(estimator,
config_hash, dim)`` (up to ``max_batch_size``, never waiting for more),
and batchable groups (batch LION with the WLS solver) execute as one
fused stacked-IRLS dispatch — bit-identical to the scalar path, several
times the throughput at paper-scale batch sizes. See ``docs/serving.md``
for architecture and tuning, and ``lion serve-bench`` /
``benchmarks/bench_serve.py`` for the load generator behind
``BENCH_serve.json``.

The network tier lives in :mod:`repro.serve.net`: an asyncio HTTP front
end sharding requests by ``(estimator, config_hash)`` across worker
processes that each host one of these engines (``lion serve``).
"""

from repro.serve.batching import GroupKey, execute_batch, group_key, is_batchable
from repro.serve.cache import CacheKey, ResultCache
from repro.serve.engine import (
    BATCH_SIZE_BUCKETS,
    ServeConfig,
    ServeEngine,
    Ticket,
)
from repro.serve.errors import (
    DeadlineExceededError,
    EngineClosedError,
    QueueFullError,
    RemoteEstimationError,
    ServeError,
    WorkerDiedError,
)

__all__ = [
    # engine
    "ServeEngine",
    "ServeConfig",
    "Ticket",
    "BATCH_SIZE_BUCKETS",
    # batching
    "GroupKey",
    "group_key",
    "is_batchable",
    "execute_batch",
    # cache
    "CacheKey",
    "ResultCache",
    # errors
    "ServeError",
    "QueueFullError",
    "DeadlineExceededError",
    "EngineClosedError",
    "WorkerDiedError",
    "RemoteEstimationError",
]
