"""Tests for repro.obs: tracing spans, metrics registry, manifests, logging.

The load-bearing guarantees: the disabled mode is a true no-op (nothing
recorded, the shared null span is handed out), recorded traces nest and
time monotonically, histogram buckets follow Prometheus ``le`` semantics
so process merge-back is exact, and the scalar and batched IRLS solvers
emit identical convergence metrics for the same systems.

Work functions used with the process backend live at module level so the
pool can pickle them.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core.solvers import (
    solve_least_squares,
    solve_weighted_least_squares,
    solve_weighted_least_squares_batch,
)
from repro.core.system import LinearSystem
from repro.obs import (
    ITERATION_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_SPAN,
    collect_manifest,
    config_fingerprint,
    configure_logging,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    get_logger,
    get_registry,
    get_trace,
    obs_enabled,
    render_trace,
    reset_tracing,
    span,
    trace_depth,
)
from repro.obs.metrics import scoped_registry
from repro.obs.trace import SpanNode, attach_spans, drain_spans
from repro.parallel import ProcessExecutor


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with observability off and empty."""
    disable_tracing()
    disable_metrics()
    reset_tracing()
    get_registry().reset()
    yield
    disable_tracing()
    disable_metrics()
    reset_tracing()
    get_registry().reset()


def _make_system(seed: int, rows: int = 40) -> LinearSystem:
    rng = np.random.default_rng(seed)
    matrix = rng.normal(0.0, 1.0, (rows, 3))
    rhs = matrix @ np.array([0.1, 0.8, 1.2]) + rng.normal(0.0, 0.02, rows)
    return LinearSystem(matrix=matrix, rhs=rhs, dim=2)


# -- worker functions for the process backend (module level, picklable) --


def _worker_records(item: int) -> int:
    get_registry().counter("test.worker_calls_total").inc()
    get_registry().histogram("test.worker_values", buckets=(1.0, 10.0)).observe(item)
    with span("worker_item", item=item):
        pass
    return item * 2


# -- tracing ---------------------------------------------------------------


class TestSpans:
    def test_disabled_span_is_shared_null_singleton(self):
        assert span("anything") is NULL_SPAN
        assert span("other", key="value") is span("anything")
        with span("ignored") as sp:
            sp.add_event(iteration=1)
            sp.set_attribute("k", "v")
        assert get_trace() == []
        assert trace_depth() == 0

    def test_nesting_builds_a_tree(self):
        enable_tracing()
        with span("outer", level=0):
            with span("middle"):
                with span("inner") as sp:
                    sp.add_event(step=1)
            with span("sibling"):
                pass
        roots = get_trace()
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["middle", "sibling"]
        assert [c.name for c in outer.children[0].children] == ["inner"]
        assert outer.children[0].children[0].events == [{"step": 1}]
        assert trace_depth() == 3
        assert outer.depth() == 3

    def test_timing_is_monotonic_and_nested(self):
        enable_tracing()
        with span("outer"):
            time.sleep(0.002)
            with span("inner"):
                time.sleep(0.002)
            time.sleep(0.002)
        outer = get_trace()[0]
        inner = outer.children[0]
        assert outer.end_s >= outer.start_s
        assert inner.end_s >= inner.start_s
        # The child's interval sits inside the parent's.
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s
        assert inner.wall_s <= outer.wall_s
        assert outer.wall_s >= 0.006
        assert outer.cpu_s >= 0.0

    def test_exception_marks_span_and_still_records(self):
        enable_tracing()
        with pytest.raises(RuntimeError):
            with span("failing"):
                raise RuntimeError("boom")
        root = get_trace()[0]
        assert root.attributes["error"] == "RuntimeError"

    def test_drain_and_attach_round_trip(self):
        enable_tracing()
        with span("child_work", item=3):
            pass
        payloads = drain_spans()
        assert get_trace() == []
        assert payloads[0]["name"] == "child_work"
        with span("parent"):
            attach_spans(payloads)
        parent = get_trace()[0]
        assert [c.name for c in parent.children] == ["child_work"]
        assert parent.children[0].attributes == {"item": 3}

    def test_span_node_dict_round_trip(self):
        node = SpanNode(name="n", attributes={"a": 1}, start_s=1.0, end_s=2.5)
        node.add_event(k=7)
        rebuilt = SpanNode.from_dict(node.to_dict())
        assert rebuilt.name == "n"
        assert rebuilt.wall_s == pytest.approx(1.5)
        assert rebuilt.events == [{"k": 7}]

    def test_render_trace_shows_tree(self):
        enable_tracing()
        with span("top", figure="fig13a"):
            with span("nested"):
                pass
        text = render_trace()
        assert "- top" in text
        assert "  - nested" in text
        assert "figure=fig13a" in text
        disable_tracing()
        reset_tracing()
        assert render_trace() == "(empty trace)"


# -- metrics ---------------------------------------------------------------


class TestHistogram:
    def test_bucket_edges_use_le_semantics(self):
        histogram = Histogram(buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 2.1, 5.0, 99.0):
            histogram.observe(value)
        # value <= edge goes into that bucket; the last slot is +Inf.
        assert histogram.counts == [2, 2, 2, 1]
        assert histogram.count == 7
        assert histogram.sum == pytest.approx(0.5 + 1.0 + 1.5 + 2.0 + 2.1 + 5.0 + 99.0)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))


class TestRegistry:
    def test_counter_and_gauge_basics(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc()
        registry.counter("hits_total").inc(2)
        registry.gauge("level").set(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"][0]["value"] == 3.0
        assert snapshot["gauges"][0]["value"] == 0.5
        with pytest.raises(ValueError):
            registry.counter("hits_total").inc(-1)

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("cells_total", outcome="accepted").inc(4)
        registry.counter("cells_total", outcome="rejected").inc(1)
        assert len(registry) == 2
        values = {
            entry["labels"]["outcome"]: entry["value"]
            for entry in registry.snapshot()["counters"]
        }
        assert values == {"accepted": 4.0, "rejected": 1.0}

    def test_kind_and_bucket_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_merge_adds_counters_and_histograms(self):
        child = MetricsRegistry()
        child.counter("calls_total", kind="x").inc(5)
        child.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        child.gauge("depth").set(7.0)
        parent = MetricsRegistry()
        parent.counter("calls_total", kind="x").inc(2)
        parent.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        parent.merge(child.snapshot())
        snapshot = parent.snapshot()
        assert snapshot["counters"][0]["value"] == 7.0
        histogram = snapshot["histograms"][0]
        assert histogram["counts"] == [1, 1, 0]
        assert histogram["sum"] == pytest.approx(2.0)
        assert snapshot["gauges"][0]["value"] == 7.0

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        payload = json.loads(registry.to_json())
        assert payload["counters"][0]["name"] == "a_total"


class TestPrometheusExport:
    def test_text_format(self):
        registry = MetricsRegistry()
        registry.counter("solver.solves_total", solver="scalar").inc(3)
        registry.gauge("parallel.workers_used").set(4)
        histogram = registry.histogram("solver.irls_iterations", buckets=(1.0, 5.0))
        histogram.observe(1)
        histogram.observe(3)
        histogram.observe(30)
        text = registry.to_prometheus_text()
        lines = text.splitlines()
        assert "# TYPE lion_solver_solves_total counter" in lines
        assert 'lion_solver_solves_total{solver="scalar"} 3' in lines
        assert "# TYPE lion_parallel_workers_used gauge" in lines
        assert "lion_parallel_workers_used 4" in lines
        assert "# TYPE lion_solver_irls_iterations histogram" in lines
        # Cumulative buckets: <=1 has 1 obs, <=5 has 2, +Inf has all 3.
        assert 'lion_solver_irls_iterations_bucket{le="1"} 1' in lines
        assert 'lion_solver_irls_iterations_bucket{le="5"} 2' in lines
        assert 'lion_solver_irls_iterations_bucket{le="+Inf"} 3' in lines
        assert "lion_solver_irls_iterations_sum 34" in lines
        assert "lion_solver_irls_iterations_count 3" in lines
        assert text.endswith("\n")

    def test_type_line_emitted_once_per_name(self):
        registry = MetricsRegistry()
        registry.counter("c_total", a="1").inc()
        registry.counter("c_total", a="2").inc()
        text = registry.to_prometheus_text()
        assert text.count("# TYPE lion_c_total counter") == 1

    def test_label_values_escaped(self):
        # Exposition format requires backslash, quote, and newline
        # escapes inside quoted label values — a raw estimator name like
        # C:\scan or an error string with a quote must not corrupt the
        # scrape.
        registry = MetricsRegistry()
        registry.counter("c_total", path="C:\\scan", note='say "hi"\nbye').inc()
        text = registry.to_prometheus_text()
        assert 'path="C:\\\\scan"' in text
        assert 'note="say \\"hi\\"\\nbye"' in text
        # A raw newline would split the series across two lines.
        series_lines = [ln for ln in text.splitlines() if ln.startswith("lion_c_total{")]
        assert len(series_lines) == 1


# -- disabled-mode no-op ---------------------------------------------------


class TestDisabledMode:
    def test_instrumented_solve_records_nothing_when_disabled(self):
        assert not obs_enabled()
        solve_weighted_least_squares(_make_system(0))
        solve_weighted_least_squares_batch([_make_system(1), _make_system(2)])
        assert len(get_registry()) == 0
        assert get_trace() == []

    def test_enabled_solve_records_spans_and_metrics(self):
        enable_tracing()
        enable_metrics()
        solve_weighted_least_squares(_make_system(0))
        roots = get_trace()
        assert [r.name for r in roots] == ["solve"]
        assert roots[0].attributes["solver"] == "scalar"
        assert roots[0].events, "per-iteration events should be recorded"
        names = {entry["name"] for entry in get_registry().snapshot()["counters"]}
        assert "solver.solves_total" in names


# -- scalar vs batch convergence metrics -----------------------------------


class TestSolverMetricsComparability:
    def test_scalar_and_batch_report_identical_iteration_counts(self):
        systems = [_make_system(seed) for seed in range(6)]
        enable_metrics()

        with scoped_registry() as scalar_registry:
            scalar_solutions = [solve_weighted_least_squares(s) for s in systems]
            scalar_snapshot = scalar_registry.snapshot()
        with scoped_registry() as batch_registry:
            batch_solutions = solve_weighted_least_squares_batch(systems)
            batch_snapshot = batch_registry.snapshot()

        def iteration_histogram(snapshot, solver):
            for entry in snapshot["histograms"]:
                if (
                    entry["name"] == "solver.irls_iterations"
                    and entry["labels"]["solver"] == solver
                ):
                    return entry
            raise AssertionError(f"no iteration histogram for {solver!r}")

        scalar_h = iteration_histogram(scalar_snapshot, "scalar")
        batch_h = iteration_histogram(batch_snapshot, "batch")
        assert scalar_h["buckets"] == list(float(b) for b in ITERATION_BUCKETS)
        assert scalar_h["counts"] == batch_h["counts"]
        assert scalar_h["count"] == batch_h["count"] == len(systems)
        # The underlying solutions agree too, so the histograms measure
        # the same convergence behaviour, not coincidentally-equal noise.
        for scalar_solution, batch_solution in zip(scalar_solutions, batch_solutions):
            assert scalar_solution.iterations == batch_solution.iterations
            assert scalar_solution.converged == batch_solution.converged

        def counter_value(snapshot, name, solver):
            for entry in snapshot["counters"]:
                if entry["name"] == name and entry["labels"]["solver"] == solver:
                    return entry["value"]
            return 0.0

        for name in ("solver.solves_total", "solver.converged_total",
                     "solver.convergence_freezes_total"):
            assert counter_value(scalar_snapshot, name, "scalar") == counter_value(
                batch_snapshot, name, "batch"
            )


    def test_position_std_histogram_records_each_solve(self):
        systems = [_make_system(seed) for seed in range(4)]
        enable_metrics()
        scalar = [solve_weighted_least_squares(system) for system in systems]
        batch = solve_weighted_least_squares_batch(systems)
        solve_least_squares(systems[0])  # plain LS records no telemetry
        histograms = {
            entry["labels"]["solver"]: entry
            for entry in get_registry().snapshot()["histograms"]
            if entry["name"] == "solver.position_std_m"
        }
        assert set(histograms) == {"scalar", "batch"}
        for solver, solutions in (("scalar", scalar), ("batch", batch)):
            norms = [float(np.linalg.norm(s.position_std_m)) for s in solutions]
            assert histograms[solver]["count"] == len(systems)
            assert histograms[solver]["sum"] == pytest.approx(sum(norms), rel=1e-12)


# -- process merge-back ----------------------------------------------------


class TestProcessMergeBack:
    def test_worker_metrics_and_spans_return_to_parent(self):
        enable_metrics()
        enable_tracing()
        executor = ProcessExecutor(jobs=2)
        with span("parent_map"):
            results = executor.map(_worker_records, range(8))
        assert results == [item * 2 for item in range(8)]

        snapshot = get_registry().snapshot()
        counters = {
            entry["name"]: entry["value"] for entry in snapshot["counters"]
        }
        assert counters["test.worker_calls_total"] == 8.0
        histograms = {entry["name"]: entry for entry in snapshot["histograms"]}
        assert histograms["test.worker_values"]["count"] == 8
        assert counters["parallel.items_total"] == 8.0

        parent = get_trace()[0]
        assert parent.name == "parent_map"
        worker_spans = [c for c in parent.children if c.name == "worker_item"]
        assert len(worker_spans) == 8
        assert sorted(sp.attributes["item"] for sp in worker_spans) == list(range(8))


# -- manifest --------------------------------------------------------------


class TestManifest:
    def test_collect_manifest_fields(self):
        manifest = collect_manifest(
            seed=7, jobs=3, config={"trials": 10}, argv=["run", "fig13a"]
        )
        payload = manifest.to_dict()
        assert payload["seed"] == 7
        assert payload["jobs"] == 3
        assert payload["config"] == {"trials": 10}
        assert payload["config_hash"] == config_fingerprint({"trials": 10})
        assert payload["argv"] == ["run", "fig13a"]
        assert isinstance(payload["git_sha"], str) and len(payload["git_sha"]) == 40
        assert isinstance(payload["git_dirty"], bool)
        for package in ("python", "numpy", "repro"):
            assert package in payload["packages"]
        assert payload["created_unix"] > 0

    def test_config_fingerprint_is_order_insensitive(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})


# -- logging ---------------------------------------------------------------


class TestLogging:
    def test_logger_hierarchy_and_level(self, capsys):
        configure_logging("info")
        logger = get_logger("cli")
        assert logger.name == "repro.cli"
        logger.info("hello %s", "world")
        logger.debug("hidden")
        captured = capsys.readouterr().err
        assert "hello world" in captured
        assert "repro.cli" in captured
        assert "hidden" not in captured

    def test_bad_level_raises(self):
        with pytest.raises(ValueError):
            configure_logging("chatty")

    def test_bound_request_id_appended_to_log_lines(self, capsys):
        from repro.obs import bind_request_id

        configure_logging("info")
        logger = get_logger("serve.net")
        with bind_request_id("abc123"):
            logger.info("inside request")
        logger.info("outside request")
        logger.info("explicit", extra={"request_id": "xyz789"})
        captured = capsys.readouterr().err
        lines = captured.splitlines()
        assert any("inside request" in ln and "request_id=abc123" in ln for ln in lines)
        assert any("outside request" in ln and "request_id" not in ln for ln in lines)
        assert any("explicit" in ln and "request_id=xyz789" in ln for ln in lines)
