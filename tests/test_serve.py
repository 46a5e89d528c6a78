"""Serving engine: batching bit-identity, backpressure, deadlines, isolation.

The engine's contract is that putting a caller behind it changes nothing
observable except wall-clock: batched reports are field-identical to the
scalar path (positions, residuals, diagnostics, config hashes), failures
surface as exactly the scalar path's exceptions, and one bad request
never perturbs its batch neighbours. These tests pin that contract with
deterministic single-stepping (``start=False`` + ``drain_once``) plus a
concurrent end-to-end load test. Timing-sensitive behaviour (the
work-conserving batcher) is pinned with a ticking clock and gated
dispatches rather than sleeps.
"""

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.localizer import TooFewReadsError
from repro.parallel import get_executor
from repro.pipeline import EstimationRequest, estimate, resolve_config
from repro.serve import (
    DeadlineExceededError,
    EngineClosedError,
    QueueFullError,
    ResultCache,
    ServeConfig,
    ServeEngine,
    is_batchable,
)
from repro.serve import engine as engine_module
from repro.serve.bench import build_requests, run_load


def _request(seed=0, n=240, target=(0.08, 0.85)):
    """One re-noised line-scan request (the canonical serving workload)."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-0.6, 0.6, n)
    positions = np.stack([x, np.zeros_like(x)], axis=1)
    distances = np.linalg.norm(positions - np.asarray(target), axis=1)
    phases = np.mod(
        2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances + 0.4 + rng.normal(0.0, 0.05, n),
        TWO_PI,
    )
    return EstimationRequest(positions=positions, phases_rad=phases)


def _assert_reports_identical(ours, theirs):
    assert np.array_equal(ours.position, theirs.position)
    assert ours.reference_distance_m == theirs.reference_distance_m
    assert np.array_equal(ours.residuals, theirs.residuals)
    assert ours.diagnostics == theirs.diagnostics
    assert ours.config_hash == theirs.config_hash


class _TickingClock:
    """Stands in for the engine's ``time`` module: every read advances 0.25 ms.

    Deadline checks then depend on how often the engine reads its clock
    between admission and dispatch, never on thread scheduling.
    """

    def __init__(self):
        self.now = 100.0
        self._lock = threading.Lock()

    def monotonic(self):
        with self._lock:
            self.now += 2.5e-4
            return self.now


def _gate_dispatch(engine):
    """Hold every dispatch of ``engine`` until ``release`` is set.

    Returns ``(busy, release, sizes)``: ``busy`` is set once a dispatch
    is held, ``sizes`` records each dispatched group's size in order.
    """
    busy, release, sizes = threading.Event(), threading.Event(), []
    dispatch = engine._dispatch

    def gated(group):
        sizes.append(len(group))
        busy.set()
        release.wait(60)
        dispatch(group)

    engine._dispatch = gated
    return busy, release, sizes


class TestWorkConserving:
    def test_idle_engine_dispatches_lone_request_at_once(self, monkeypatch):
        # An idle engine must not hold a lone batchable request back for
        # batchmates: it resolves well inside a 1.5 ms deadline.
        monkeypatch.setattr(engine_module, "time", _TickingClock())
        with ServeEngine(ServeConfig(cache_entries=0)) as engine:
            ticket = engine.submit("lion", _request(0), deadline_s=0.0015)
            report = ticket.result(timeout=60)
        _assert_reports_identical(report, estimate("lion", _request(0)))

    def test_requests_queued_behind_a_dispatch_fuse_into_the_next(self):
        requests = [_request(seed) for seed in range(6)]
        with ServeEngine(ServeConfig(max_batch_size=8, cache_entries=0)) as engine:
            busy, release, sizes = _gate_dispatch(engine)
            try:
                first = engine.submit("lion", requests[0])
                assert busy.wait(60)
                queued = [engine.submit("lion", request) for request in requests[1:]]
            finally:
                release.set()
            reports = [ticket.result(timeout=60) for ticket in [first, *queued]]
        assert sizes == [1, 5]
        stats = engine.stats()
        assert stats["batches"] == 2
        assert stats["scalar_requests"] == 1 and stats["batched_requests"] == 5
        for request, report in zip(requests, reports):
            _assert_reports_identical(report, estimate("lion", request))


class TestBatchGrouping:
    def test_batched_reports_bit_identical_to_scalar(self):
        requests = [_request(seed) for seed in range(12)]
        with ServeEngine(ServeConfig(max_batch_size=12), start=False) as engine:
            tickets = [engine.submit("lion", request) for request in requests]
            assert engine.drain_once() == 12
            reports = [ticket.result(timeout=0) for ticket in tickets]
        stats = engine.stats()
        assert stats["batches"] == 1
        assert stats["batched_requests"] == 12
        for request, report in zip(requests, reports):
            _assert_reports_identical(report, estimate("lion", request))

    def test_incompatible_configs_split_groups(self):
        request = _request(3)
        with ServeEngine(start=False) as engine:
            first = engine.submit("lion", request)
            second = engine.submit("lion", request, config={"interval_m": 0.2})
            assert engine.drain_once() == 1
            assert first.done() and not second.done()
            assert engine.drain_once() == 1
            assert second.done()
        assert first.result(timeout=0).config_hash != second.result(timeout=0).config_hash

    def test_max_batch_size_bounds_one_dispatch(self):
        requests = [_request(seed) for seed in range(5)]
        with ServeEngine(ServeConfig(max_batch_size=2), start=False) as engine:
            for request in requests:
                engine.submit("lion", request)
            assert engine.drain_once() == 2
            assert engine.drain_once() == 2
            assert engine.drain_once() == 1
        assert engine.stats()["completed"] == 5

    def test_non_batchable_method_routes_scalar(self):
        assert is_batchable("lion", resolve_config("lion", None))
        assert not is_batchable("lion", resolve_config("lion", {"method": "ls"}))
        assert not is_batchable("parabola", resolve_config("parabola", None))
        request = _request(1)
        with ServeEngine(start=False) as engine:
            ticket = engine.submit("lion", request, config={"method": "ls"})
            engine.drain_once()
        stats = engine.stats()
        assert stats["scalar_requests"] == 1
        assert stats["batched_requests"] == 0
        _assert_reports_identical(
            ticket.result(timeout=0), estimate("lion", request, {"method": "ls"})
        )


class TestBackpressure:
    def test_queue_full_raises(self):
        engine = ServeEngine(ServeConfig(max_queue_depth=2), start=False)
        engine.submit("lion", _request(0))
        engine.submit("lion", _request(1))
        with pytest.raises(QueueFullError):
            engine.submit("lion", _request(2))
        assert engine.stats()["rejected"] == 1
        engine.close()

    def test_drain_frees_capacity(self):
        engine = ServeEngine(ServeConfig(max_queue_depth=1, max_batch_size=1), start=False)
        engine.submit("lion", _request(0))
        engine.drain_once()
        ticket = engine.submit("lion", _request(1))  # does not raise
        engine.close()
        assert ticket.done()

    def test_closed_engine_rejects_submissions(self):
        engine = ServeEngine(start=False)
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.submit("lion", _request(0))


class TestDeadlines:
    def test_expired_request_gets_deadline_error(self):
        with ServeEngine(start=False) as engine:
            ticket = engine.submit("lion", _request(0), deadline_s=1e-4)
            time.sleep(0.01)
            engine.drain_once()
            with pytest.raises(DeadlineExceededError):
                ticket.result(timeout=0)
        assert engine.stats()["expired"] == 1

    def test_expired_member_does_not_poison_batch(self):
        healthy = _request(5)
        with ServeEngine(start=False) as engine:
            doomed = engine.submit("lion", _request(4), deadline_s=1e-4)
            alive = engine.submit("lion", healthy)
            time.sleep(0.01)
            assert engine.drain_once() == 2
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=0)
        _assert_reports_identical(alive.result(timeout=0), estimate("lion", healthy))

    def test_default_deadline_from_config(self):
        config = ServeConfig(default_deadline_s=1e-4)
        with ServeEngine(config, start=False) as engine:
            ticket = engine.submit("lion", _request(0))
            time.sleep(0.01)
            engine.drain_once()
            assert isinstance(ticket.exception(timeout=0), DeadlineExceededError)

    def test_cancel_while_queued(self):
        with ServeEngine(start=False) as engine:
            ticket = engine.submit("lion", _request(0))
            assert ticket.cancel()
            engine.drain_once()
            assert ticket.cancelled()
        assert engine.stats()["cancelled"] == 1


class TestMemberIsolation:
    def test_degenerate_member_degrades_alone(self):
        bad = EstimationRequest(
            positions=np.array([[0.0, 0.0], [0.1, 0.0]]),
            phases_rad=np.array([0.1, 0.2]),
        )
        good = [_request(seed) for seed in range(3)]
        with ServeEngine(ServeConfig(max_batch_size=4), start=False) as engine:
            tickets = [engine.submit("lion", request) for request in good]
            doomed = engine.submit("lion", bad)
            assert engine.drain_once() == 4
        with pytest.raises(TooFewReadsError):
            doomed.result(timeout=0)
        assert engine.stats()["scalar_fallbacks"] == 1
        for request, ticket in zip(good, tickets):
            _assert_reports_identical(ticket.result(timeout=0), estimate("lion", request))

    def test_missing_fields_surface_scalar_error(self):
        with ServeEngine(start=False) as engine:
            ticket = engine.submit("lion", EstimationRequest())
            engine.drain_once()
            error = ticket.exception(timeout=0)
        assert isinstance(error, ValueError)
        assert "positions" in str(error)

    def test_unknown_estimator_fails_at_submit(self):
        with ServeEngine(start=False) as engine:
            with pytest.raises(KeyError):
                engine.submit("no-such-method", _request(0))


class TestResultCache:
    def test_repeat_request_hits_cache(self):
        request = _request(7)
        with ServeEngine(ServeConfig(cache_entries=8)) as engine:
            first = engine.estimate("lion", request)
            second = engine.estimate("lion", request)
        assert second is first
        assert engine.stats()["cache_hits"] == 1

    def test_cache_disabled_by_zero_entries(self):
        request = _request(7)
        with ServeEngine(ServeConfig(cache_entries=0)) as engine:
            engine.estimate("lion", request)
            engine.estimate("lion", request)
        assert engine.stats()["cache_hits"] == 0

    def test_config_change_misses(self):
        request = _request(7)
        with ServeEngine(ServeConfig(cache_entries=8)) as engine:
            engine.estimate("lion", request)
            engine.estimate("lion", request, config={"interval_m": 0.2})
        assert engine.stats()["cache_hits"] == 0

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        reports = {
            key: estimate("lion", _request(seed))
            for seed, key in enumerate(["a", "b", "c"])
        }
        cache.put(("lion", "h", "a"), reports["a"])
        cache.put(("lion", "h", "b"), reports["b"])
        assert cache.get(("lion", "h", "a")) is reports["a"]  # refresh a
        cache.put(("lion", "h", "c"), reports["c"])  # evicts b
        assert cache.get(("lion", "h", "b")) is None
        assert cache.get(("lion", "h", "a")) is reports["a"]
        assert cache.info()["size"] == 2

    def test_fingerprint_is_content_based(self):
        first, second = _request(9), _request(9)
        assert first is not second
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() != _request(10).fingerprint()


class TestConcurrency:
    def test_concurrent_submitters_deterministic(self):
        requests = [_request(seed) for seed in range(16)]
        expected = [estimate("lion", request) for request in requests]
        reports = [None] * len(requests)
        with ServeEngine(ServeConfig(max_batch_size=8, cache_entries=0)) as engine:

            def submitter(offset):
                for index in range(offset, len(requests), 4):
                    reports[index] = engine.estimate("lion", requests[index])

            threads = [threading.Thread(target=submitter, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for ours, theirs in zip(reports, expected):
            _assert_reports_identical(ours, theirs)

    def test_close_drains_accepted_requests(self):
        engine = ServeEngine(ServeConfig(max_batch_size=4))
        tickets = [engine.submit("lion", _request(seed)) for seed in range(6)]
        engine.close()
        assert all(ticket.done() for ticket in tickets)
        assert engine.stats()["completed"] == 6


class TestLifecycle:
    def test_close_reports_clean_join(self):
        engine = ServeEngine(ServeConfig())
        engine.submit("lion", _request(0))
        assert engine.close() is True
        assert engine.drained
        # Closing again is a cheap no-op that still reports success.
        assert engine.close() is True

    def test_close_never_started_engine(self):
        engine = ServeEngine(ServeConfig(), start=False)
        ticket = engine.submit("lion", _request(1))
        assert engine.close() is True
        assert ticket.done()

    def test_atexit_drains_forgotten_engine(self):
        # The batcher is a daemon thread, so a forgotten engine used to
        # die *silently mid-batch* at interpreter exit, leaving accepted
        # tickets unresolved. The module-level atexit hook must drain it.
        # atexit runs LIFO: the checker, registered *before* the engine
        # module is imported, runs *after* the module's drain hook, and
        # ``let_go``, registered last, runs before it.
        script = textwrap.dedent(
            """
            import atexit
            import sys
            import threading

            state = {}

            def check():
                ticket = state["ticket"]
                assert state["pending_at_exit"], "the ticket resolved before exit"
                assert ticket.done(), "atexit drain left an accepted ticket unresolved"
                report = ticket.result(timeout=0)
                assert report.position.shape == (2,)
                sys.stdout.write("ATEXIT_DRAIN_OK")

            atexit.register(check)

            from repro.serve import ServeConfig, ServeEngine
            from repro.serve.bench import build_requests

            engine = ServeEngine(ServeConfig())
            busy, release = threading.Event(), threading.Event()
            dispatch = engine._dispatch

            def gated(group):
                busy.set()
                release.wait(60)
                dispatch(group)

            engine._dispatch = gated
            first, second = build_requests(2, 64, seed=3)
            engine.submit("lion", first)
            assert busy.wait(60)
            state["ticket"] = engine.submit("lion", second)

            def let_go():
                # Exit with the batcher mid-dispatch and the ticket still
                # queued behind it: no close(), no drain.
                state["pending_at_exit"] = not state["ticket"].done()
                release.set()

            atexit.register(let_go)
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        assert result.returncode == 0, result.stderr
        assert "ATEXIT_DRAIN_OK" in result.stdout


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            {"max_batch_size": 0},
            {"cache_entries": -1},
            {"scalar_executor": "process"},
            {"default_deadline_s": 0.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)


class TestMapCatching:
    def test_captures_failures_in_order(self):
        def work(value):
            if value % 2:
                raise RuntimeError(f"odd {value}")
            return value * 10

        outcomes = get_executor("serial").map_catching(work, [0, 1, 2, 3])
        assert [ok for ok, _ in outcomes] == [True, False, True, False]
        assert outcomes[0][1] == 0 and outcomes[2][1] == 20
        assert isinstance(outcomes[1][1], RuntimeError)

    def test_thread_backend_matches_serial(self):
        def work(value):
            if value == 2:
                raise ValueError("boom")
            return value + 1

        serial = get_executor("serial").map_catching(work, range(5))
        threaded = get_executor("thread", jobs=2).map_catching(work, range(5))
        assert [ok for ok, _ in serial] == [ok for ok, _ in threaded]


@pytest.mark.slow
class TestLoad:
    def test_load_generator_end_to_end(self):
        payload = run_load(requests=48, reads=300, batch_sizes=(1, 16), seed=2)
        assert payload["batch"]["16"]["requests_per_sec"] > 0
        assert payload["speedup_16_vs_1"] > 1.0

    def test_build_requests_deterministic(self):
        ours = build_requests(3, 50, seed=1)
        theirs = build_requests(3, 50, seed=1)
        for a, b in zip(ours, theirs):
            assert a.fingerprint() == b.fingerprint()
