"""The dynamic micro-batching serving engine.

Request path::

    submit() ──► result cache ──► bounded admission queue ──► batcher
                                                                 │
                       ┌─────────────────────────────────────────┤
                       ▼                                         ▼
               fused batch dispatch                    per-request dispatch
          (lion/wls groups, one stacked IRLS)     (everything else, in turn)

``submit`` resolves the estimator config (failing fast on unknown names
or bad configs), consults the LRU result cache, and enqueues into a
bounded queue — at depth it raises :class:`QueueFullError` instead of
buffering unboundedly, making backpressure the caller's explicit
decision. A single batcher thread is work-conserving: the moment it is
free it pops the head-of-line group ``(estimator, config_hash, dim)``
together with every compatible request already queued (up to
``max_batch_size``) and executes it — it never holds a request back
waiting for batchmates. Under load, batches fill with the requests that
queued behind the previous dispatch; an idle engine dispatches a lone
request at once. Batchable groups run through the fused path of
:mod:`repro.serve.batching`, scalar groups one request at a time with
per-member exception isolation. Members whose fused slot failed — or
whose whole batch raised unexpectedly — are retried individually on the
scalar path, so one bad request degrades alone and the error a caller
sees is exactly the scalar path's error.

Deadlines are enforced at dispatch time: an expired ticket gets
:class:`DeadlineExceededError` without consuming solve time, and a
ticket cancelled while queued (``Ticket.cancel``) is skipped. All
instrumentation (queue-depth gauge, batch-size/wait histograms, spans,
per-result counters) rides the :mod:`repro.obs` flag-guards, so a
disabled-observability engine pays one flag check per event.
"""

from __future__ import annotations

import atexit
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    cast,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.calib.resolver import CalibrationResolver

from repro.core.batch_prepare import template_cache_info
from repro.core.sweep import pair_cache_info
from repro.obs import (
    LATENCY_BUCKETS_S,
    bind_request_id,
    config_fingerprint,
    get_logger,
    get_registry,
    metrics_enabled,
    span,
)
from repro.pipeline.config import EstimatorConfig
from repro.pipeline.contract import EstimationReport, EstimationRequest
from repro.pipeline.estimators import LionEstimator
from repro.pipeline.registry import create_estimator, resolve_config
from repro.serve.batching import GroupKey, execute_batch, group_key, is_batchable
from repro.serve.cache import CacheKey, ResultCache
from repro.serve.errors import DeadlineExceededError, EngineClosedError, QueueFullError

#: Histogram buckets for micro-batch occupancy (requests per dispatch).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

_logger = get_logger("serve.engine")

#: Engines whose batcher thread is running and not yet closed. The batcher
#: is a daemon thread (a forgotten engine must never hang interpreter
#: exit), which means it can die *silently mid-batch* when the interpreter
#: finalizes — accepted tickets would never resolve. The module-level
#: atexit hook below drains every still-live engine first, so accepted
#: requests resolve even when the caller forgot ``close()``.
_LIVE_ENGINES: "weakref.WeakSet[ServeEngine]" = weakref.WeakSet()

#: How long the atexit drain waits per engine before giving up.
_ATEXIT_DRAIN_TIMEOUT_S = 10.0


@atexit.register
def _drain_live_engines() -> None:
    """Drain every engine still running at interpreter exit (best effort)."""
    for engine in list(_LIVE_ENGINES):
        try:
            engine.close(timeout=_ATEXIT_DRAIN_TIMEOUT_S)
        except Exception:  # pragma: no cover - never block interpreter exit
            pass


def _with_hit_rate(info: Dict[str, int]) -> Dict[str, Any]:
    """Augment a hit/miss counter dict with a derived ``hit_rate``.

    ``None`` before the first probe — a 0/0 rate is "no data", not 0%.
    """
    payload: Dict[str, Any] = dict(info)
    total = info.get("hits", 0) + info.get("misses", 0)
    payload["hit_rate"] = round(info["hits"] / total, 4) if total else None
    return payload


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one :class:`ServeEngine`.

    Attributes:
        max_queue_depth: admission-queue bound; ``submit`` beyond it
            raises :class:`QueueFullError`.
        max_batch_size: most requests fused into one dispatch. The
            batcher takes whatever compatible requests are queued when it
            is free, up to this bound; it never waits for more.
        cache_entries: LRU result-cache capacity; ``0`` disables caching.
        default_deadline_s: deadline applied to requests submitted
            without one; ``None`` means no deadline.
        fuse_singletons: dispatch batchable *singleton* groups through
            the fused batch path too (identical answers — the batch
            solver is pinned bit-identical). Only the fused path uses
            the template and pair caches, so on a repeat geometry a
            fused float64 singleton is about a fifth faster than the
            scalar path (a lone 60-read portal request, in process on a
            2-vCPU Xeon: ~0.83 ms against ~1.08 ms), while every
            geometry that never repeats adds a template and a recipe to
            those caches. Off by default, so lone requests stay
            cache-independent. Turn it on for tracing-focused
            deployments (every batchable request produces a
            ``serve.batch`` span), for repeat-geometry traffic, and for
            ``dtype="float32"`` engines, where the single-precision
            kernel adds to the gain.
        dtype: numeric precision of the fused batch path. ``"float64"``
            (default) is bit-identical to the scalar estimator;
            ``"float32"`` runs batched preprocess, assembly, and the
            normal-equation IRLS kernel in single precision — roughly an
            order of magnitude more throughput at batch 32, with accuracy
            bounded by property tests (~1e-4 m, far below the phase-noise
            floor). Members the float32 kernel cannot solve reliably
            degrade to exact scalar float64 solves, and the scalar
            fallback / cache / error paths are precision-independent.
    """

    max_queue_depth: int = 256
    max_batch_size: int = 32
    cache_entries: int = 128
    default_deadline_s: Optional[float] = None
    fuse_singletons: bool = False
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.max_queue_depth <= 0:
            raise ValueError(f"max_queue_depth must be positive, got {self.max_queue_depth}")
        if self.max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {self.max_batch_size}")
        if self.cache_entries < 0:
            raise ValueError(f"cache_entries must be non-negative, got {self.cache_entries}")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0.0:
            raise ValueError(
                f"default_deadline_s must be positive, got {self.default_deadline_s}"
            )
        if self.dtype not in ("float64", "float32"):
            raise ValueError(
                f"dtype must be 'float64' or 'float32', got {self.dtype!r}"
            )


class Ticket:
    """Caller-side handle to one submitted request.

    A thin, typed wrapper over :class:`concurrent.futures.Future`:
    :meth:`result` blocks for the report (re-raising the request's
    failure), :meth:`cancel` withdraws a still-queued request. Tickets
    resolved from the result cache are born completed.
    """

    __slots__ = ("_future",)

    def __init__(self, future: "Future[EstimationReport]") -> None:
        self._future = future

    def result(self, timeout: Optional[float] = None) -> EstimationReport:
        """Block until the report is ready; re-raises the failure if any."""
        return self._future.result(timeout)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """Block until resolution; the failure, or ``None`` on success."""
        return self._future.exception(timeout)

    def done(self) -> bool:
        """Whether the ticket has resolved (report, failure, or cancel)."""
        return self._future.done()

    def cancel(self) -> bool:
        """Withdraw the request if the batcher has not started it."""
        return self._future.cancel()

    def cancelled(self) -> bool:
        """Whether :meth:`cancel` won the race against dispatch."""
        return self._future.cancelled()

    def add_done_callback(self, fn: "Callable[[Future[EstimationReport]], object]") -> None:
        """Invoke ``fn`` at resolution (load generators timestamp here)."""
        self._future.add_done_callback(fn)


@dataclass
class _Item:
    """One queued request with everything its dispatch needs."""

    name: str
    config: EstimatorConfig
    key: GroupKey
    cache_key: CacheKey
    batchable: bool
    request: EstimationRequest
    future: "Future[EstimationReport]"
    enqueued: float
    deadline: Optional[float]
    request_id: Optional[str] = None


@dataclass
class _Stats:
    """Always-on plain counters (independent of :mod:`repro.obs` flags)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    expired: int = 0
    cancelled: int = 0
    cache_hits: int = 0
    batches: int = 0
    batched_requests: int = 0
    scalar_requests: int = 0
    scalar_fallbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "expired": self.expired,
            "cancelled": self.cancelled,
            "cache_hits": self.cache_hits,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "scalar_requests": self.scalar_requests,
            "scalar_fallbacks": self.scalar_fallbacks,
        }


class ServeEngine:
    """In-process serving engine with dynamic micro-batching.

    Use as a context manager (``with ServeEngine() as engine:``) or call
    :meth:`close` explicitly; close drains the queue before the batcher
    exits, so accepted requests always resolve. Constructing with
    ``start=False`` leaves the batcher stopped — queued items then only
    dispatch on :meth:`drain_once`, which tests use to pin batching
    decisions deterministically.

    ``calibration`` (optional) is a
    :class:`repro.calib.resolver.CalibrationResolver`; with one wired,
    requests naming their ``antennas`` have calibrated centers and
    offset corrections filled from the registry's latest committed
    versions at submit time (generation-stamped cache, invalidated by
    any store commit).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        start: bool = True,
        calibration: Optional["CalibrationResolver"] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self._calibration = calibration
        self._queue: Deque[_Item] = deque()
        self._cv = threading.Condition()
        self._closed = False
        self._stats = _Stats()
        self._cache = ResultCache(self.config.cache_entries)
        # (name, config-object) -> (resolved config, config hash). Config
        # resolution + fingerprinting are pure, and serving traffic reuses
        # a handful of config objects across millions of submits, so the
        # memo turns two hot-path hashes into one dict probe. Unhashable
        # configs (raw mappings) skip the memo; bounded to keep a
        # pathological config-churn caller from growing it unboundedly.
        self._config_memo: Dict[Tuple[str, Any], Tuple[EstimatorConfig, str]] = {}
        self._thread: Optional[threading.Thread] = None
        if start:
            self.start()

    def start(self) -> None:
        """Start the batcher thread (idempotent).

        Deferred starts (``ServeEngine(config, start=False)`` … ``start()``)
        let load generators pre-fill the admission queue and then measure
        pure dispatch throughput with deterministic batch occupancy.

        Raises:
            EngineClosedError: the engine was already closed.
        """
        with self._cv:
            if self._closed:
                raise EngineClosedError("engine is closed")
            if self._thread is not None:
                return
            self._thread = threading.Thread(
                target=self._run, name="repro-serve-batcher", daemon=True
            )
            self._thread.start()
        _LIVE_ENGINES.add(self)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        name: str,
        request: EstimationRequest,
        config: EstimatorConfig | Mapping[str, Any] | None = None,
        deadline_s: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> Ticket:
        """Admit one request; returns immediately with its :class:`Ticket`.

        Config resolution happens synchronously so unknown estimators and
        malformed configs fail in the caller, not the batcher.

        ``request_id`` (optional, from the serving front end) is stamped
        on the request's dispatch spans — ``request_id=`` on scalar
        spans, a ``request_ids`` link list on fused batch spans — so the
        cross-process span store can stitch them into one trace, and it
        is bound to the logging context during dispatch.

        Raises:
            EngineClosedError: the engine no longer admits requests.
            QueueFullError: the admission queue is at depth.
            KeyError / TypeError / ValueError: config resolution failures,
                exactly as from :func:`repro.pipeline.resolve_config`.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        if self._calibration is not None and request.antennas is not None:
            # Resolve named antennas into calibrated centers / offset
            # corrections *before* fingerprinting, so the result cache
            # keys on the resolved arrays — a recalibration commit
            # changes the fingerprint and can never serve a stale hit.
            request = self._calibration.resolve(request)
        memo_key: Optional[Tuple[str, Any]] = (name, config)
        try:
            memoized = self._config_memo.get(memo_key)
        except TypeError:
            memo_key = None
            memoized = None
        if memoized is None:
            resolved = resolve_config(name, config)
            config_hash = config_fingerprint(
                {"estimator": name, **resolved.to_dict()}
            )
            if memo_key is not None and len(self._config_memo) < 256:
                self._config_memo[memo_key] = (resolved, config_hash)
        else:
            resolved, config_hash = memoized
        cache_key: CacheKey = (name, config_hash, request.fingerprint())
        future: "Future[EstimationReport]" = Future()

        cached = self._cache.get(cache_key)
        if cached is not None:
            with self._cv:
                self._stats.submitted += 1
                self._stats.cache_hits += 1
            self._count_result("cache_hit")
            future.set_result(cached)
            return Ticket(future)

        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        now = time.monotonic()
        item = _Item(
            name=name,
            config=resolved,
            key=group_key(name, resolved, config_hash),
            cache_key=cache_key,
            batchable=is_batchable(name, resolved),
            request=request,
            future=future,
            enqueued=now,
            deadline=now + deadline_s if deadline_s is not None else None,
            request_id=request_id,
        )
        with self._cv:
            if self._closed:
                raise EngineClosedError("engine is closed")
            if len(self._queue) >= self.config.max_queue_depth:
                self._stats.rejected += 1
                self._count_result("rejected")
                raise QueueFullError(
                    f"admission queue full at depth {self.config.max_queue_depth}"
                )
            self._queue.append(item)
            self._stats.submitted += 1
            depth = len(self._queue)
            self._cv.notify_all()
        if metrics_enabled():
            get_registry().gauge("serve.queue_depth").set(depth)
        return Ticket(future)

    def estimate(
        self,
        name: str,
        request: EstimationRequest,
        config: EstimatorConfig | Mapping[str, Any] | None = None,
        deadline_s: Optional[float] = None,
    ) -> EstimationReport:
        """Blocking convenience: :meth:`submit` then wait for the report."""
        return self.submit(name, request, config=config, deadline_s=deadline_s).result()

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, drain accepted requests, join the batcher.

        Returns ``True`` when the engine is fully drained and its batcher
        thread has exited (or never existed). Returns ``False`` when the
        join timed out — the batcher is still mid-dispatch, tickets may
        still be unresolved, and :attr:`drained` stays ``False``; calling
        ``close`` again retries the join. The network drain path relies
        on this signal instead of assuming the daemon thread finished.
        """
        with self._cv:
            if self._closed and self._thread is None:
                return True
            self._closed = True
            self._cv.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                return False
            self._thread = None
        else:
            # Never-started engine (tests): resolve what was accepted.
            while self.drain_once():
                pass
        _LIVE_ENGINES.discard(self)
        return True

    @property
    def drained(self) -> bool:
        """Whether the engine is closed with an empty queue and no batcher.

        ``close()`` returning ``True`` implies this; a timed-out close
        leaves it ``False`` until a retry succeeds.
        """
        with self._cv:
            return self._closed and not self._queue and self._thread is None

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        """Always-on counters plus queue depth and cache info.

        ``template_cache`` / ``pair_cache`` report the process-wide
        geometry caches the fused batch path runs through
        (:mod:`repro.core.batch_prepare` / :mod:`repro.core.sweep`) —
        their hit rates are the repeat-trajectory signal operators watch
        when serve throughput drops.
        """
        with self._cv:
            payload: Dict[str, Any] = self._stats.as_dict()
            payload["queue_depth"] = len(self._queue)
        payload["cache"] = self._cache.info()
        payload["template_cache"] = _with_hit_rate(template_cache_info())
        payload["pair_cache"] = _with_hit_rate(pair_cache_info())
        if self._calibration is not None:
            payload["calibration"] = self._calibration.stats()
        return payload

    def clear_cache(self) -> None:
        """Drop every cached report (benchmark hygiene between phases)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # batcher
    # ------------------------------------------------------------------
    def _run(self) -> None:
        """Batcher thread: pop the ready group, dispatch, repeat."""
        while True:
            group = self._next_group(block=True)
            if group is None:
                return
            self._dispatch(group)

    def drain_once(self) -> int:
        """Dispatch one ready group without the batcher thread.

        Deterministic single-step used by tests (``start=False``) and the
        closing drain. Returns the number of requests dispatched (0 when
        the queue is empty).
        """
        group = self._next_group(block=False)
        if group is None:
            return 0
        self._dispatch(group)
        return len(group)

    def _next_group(self, block: bool) -> Optional[List[_Item]]:
        """Pop the head-of-line group with every compatible queued request.

        Work-conserving: nothing is held back for batchmates still to
        come. Returns ``None`` when closed with an empty queue
        (``block=True``) or immediately on an empty queue (``block=False``).
        """
        with self._cv:
            if block:
                while not self._queue and not self._closed:
                    self._cv.wait()
            if not self._queue:
                return None
            head = self._queue[0]
            group: List[_Item] = []
            kept: List[_Item] = []
            for item in self._queue:
                if item.key == head.key and len(group) < self.config.max_batch_size:
                    group.append(item)
                else:
                    kept.append(item)
            self._queue = deque(kept)
            depth = len(self._queue)
        if metrics_enabled():
            registry = get_registry()
            registry.gauge("serve.queue_depth").set(depth)
            registry.histogram(
                "serve.batch_size", buckets=BATCH_SIZE_BUCKETS, estimator=head.name
            ).observe(float(len(group)))
            # How long the batch head sat in the queue before dispatch.
            registry.histogram(
                "serve.batch_wait_seconds", buckets=LATENCY_BUCKETS_S, estimator=head.name
            ).observe(time.monotonic() - head.enqueued)
        return group

    def _dispatch(self, group: List[_Item]) -> None:
        """Execute one popped group, resolving every member's future."""
        live: List[_Item] = []
        now = time.monotonic()
        for item in group:
            if item.deadline is not None and now > item.deadline:
                with self._cv:
                    self._stats.expired += 1
                self._count_result("expired")
                item.future.set_exception(
                    DeadlineExceededError(
                        f"deadline exceeded after {now - item.enqueued:.4f}s in queue"
                    )
                )
                continue
            if not item.future.set_running_or_notify_cancel():
                with self._cv:
                    self._stats.cancelled += 1
                self._count_result("cancelled")
                continue
            live.append(item)
        if not live:
            return
        with self._cv:
            self._stats.batches += 1
        if live[0].batchable and (len(live) > 1 or self.config.fuse_singletons):
            self._dispatch_batched(live)
        else:
            self._dispatch_scalar(live)

    def _dispatch_batched(self, live: List[_Item]) -> None:
        """Fused dispatch with per-member scalar fallback."""
        with self._cv:
            self._stats.batched_requests += len(live)
        estimator = cast(LionEstimator, create_estimator(live[0].name, live[0].config))
        request_ids = [item.request_id for item in live]
        with span(
            "serve.batch",
            estimator=live[0].name,
            size=len(live),
            request_ids=tuple(rid for rid in request_ids if rid),
        ):
            try:
                outcomes: Sequence[EstimationReport | BaseException] = execute_batch(
                    estimator,
                    [item.request for item in live],
                    request_ids=request_ids,
                    dtype=self.config.dtype,
                )
            except Exception:
                # Unexpected whole-batch failure: every member retries
                # alone so the error surfaced is the scalar path's own.
                self._fallback_scalar(live)
                return
        for item, outcome in zip(live, outcomes):
            if isinstance(outcome, EstimationReport):
                self._resolve(item, outcome)
            else:
                self._fallback_scalar([item])

    def _fallback_scalar(self, items: List[_Item]) -> None:
        """Re-run members individually; scalar truth for errors too."""
        with self._cv:
            self._stats.scalar_fallbacks += len(items)
        if metrics_enabled():
            get_registry().counter("serve.scalar_fallback_total").inc(len(items))
        self._execute_scalar(items)

    def _dispatch_scalar(self, live: List[_Item]) -> None:
        """Per-request dispatch for non-batchable (or singleton) groups."""
        with self._cv:
            self._stats.scalar_requests += len(live)
        self._execute_scalar(live)

    def _execute_scalar(self, items: List[_Item]) -> None:
        """Run each member through its own estimator, isolating failures."""
        for item in items:
            try:
                with bind_request_id(item.request_id):
                    with span("serve.scalar", estimator=item.name, request_id=item.request_id):
                        report = create_estimator(item.name, item.config).estimate(item.request)
            except Exception as error:  # noqa: BLE001 - one bad request fails alone
                with self._cv:
                    self._stats.failed += 1
                self._count_result("error")
                with bind_request_id(item.request_id):
                    _logger.debug(
                        "request failed: estimator=%s error=%s: %s",
                        item.name,
                        type(error).__name__,
                        error,
                    )
                item.future.set_exception(error)
            else:
                self._resolve(item, report)

    def _resolve(self, item: _Item, report: EstimationReport) -> None:
        """Cache and deliver one successful report."""
        self._cache.put(item.cache_key, report)
        with self._cv:
            self._stats.completed += 1
        self._count_result("ok")
        item.future.set_result(report)

    @staticmethod
    def _count_result(result: str) -> None:
        if metrics_enabled():
            get_registry().counter("serve.requests_total", result=result).inc()
