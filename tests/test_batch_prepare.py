"""Batched request-path preprocessing: bit-identity, caching, ragged edges.

``repro.core.batch_prepare`` promises the scalar ``prepare()`` contract
at batch scale: float64 results bit-for-bit identical per member, every
per-member failure ejected as exactly the scalar path's exception
without touching batchmates, and repeat geometries served from the
trajectory-template cache. The float32 pipeline is opt-in and bounded,
not exact — property tests pin its error ceiling.
"""

import numpy as np
import pytest

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.batch_prepare import (
    batch_prepare,
    clear_template_cache,
    prepare_batch,
    template_cache_info,
)
from repro.core.localizer import (
    DegenerateGeometryError,
    LionLocalizer,
    TooFewReadsError,
)
from repro.core.sweep import clear_pair_cache
from repro.pipeline.contract import EstimationRequest
from repro.pipeline.registry import create_estimator, estimate
from repro.serve.batching import execute_batch
from repro.serve.engine import ServeConfig, ServeEngine


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_template_cache()
    clear_pair_cache()
    yield
    clear_template_cache()
    clear_pair_cache()


def _line_request(seed=0, reads=40, dim=2, target=(0.3, 0.8), **fields):
    rng = np.random.default_rng(seed)
    x = np.linspace(-0.5, 0.5, reads)
    if dim == 2:
        positions = np.stack([x, np.zeros(reads)], axis=1)
        goal = np.asarray(target, dtype=float)
    else:
        positions = np.stack([x, np.zeros(reads), np.zeros(reads)], axis=1)
        goal = np.asarray((*target, 0.0), dtype=float)
    distances = np.linalg.norm(positions - goal, axis=1)
    phases = np.mod(
        2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances
        + rng.normal(0.0, 0.04, reads),
        TWO_PI,
    )
    return EstimationRequest(positions=positions, phases_rad=phases, **fields)


def _l_request(seed=0, reads=30):
    """Two-segment L-scan (x-sweep then y-sweep) spanning both axes."""
    rng = np.random.default_rng(seed)
    half = reads // 2
    sweep_x = np.stack([np.linspace(-0.4, 0.4, half), np.full(half, -0.2)], axis=1)
    sweep_y = np.stack([np.full(reads - half, 0.4), np.linspace(-0.2, 0.5, reads - half)], axis=1)
    positions = np.concatenate([sweep_x, sweep_y])
    segment_ids = np.concatenate([np.zeros(half, int), np.ones(reads - half, int)])
    distances = np.linalg.norm(positions - np.array([0.1, 0.9]), axis=1)
    phases = np.mod(
        2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances
        + rng.normal(0.0, 0.04, reads),
        TWO_PI,
    )
    return EstimationRequest(
        positions=positions, phases_rad=phases, segment_ids=segment_ids
    )


def _assert_scan_equal(ours, theirs):
    assert np.array_equal(ours.solve_points, theirs.solve_points)
    assert np.array_equal(ours.used_profile, theirs.used_profile)
    assert np.array_equal(ours.delta_d, theirs.delta_d)
    assert ours.reference_index == theirs.reference_index
    assert ours.missing_axis == theirs.missing_axis
    if theirs.rotation is None:
        assert ours.rotation is None
    else:
        assert np.array_equal(ours.rotation, theirs.rotation)
    if theirs.used_segments is None:
        assert ours.used_segments is None
    else:
        assert np.array_equal(ours.used_segments, theirs.used_segments)


class TestBitIdentity:
    def test_mixed_batch_matches_scalar_prepare(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        mask = np.zeros(40, bool)
        mask[::7] = True
        requests = [
            _line_request(seed=1),
            _line_request(seed=2, exclude_mask=mask),
            _l_request(seed=3),
            _line_request(seed=4, reference_index=11),
            _line_request(seed=5, reads=25),
        ]
        batched = batch_prepare(localizer, requests)
        for request, ours in zip(requests, batched):
            theirs = localizer.prepare(
                request.positions,
                request.phases_rad,
                segment_ids=request.segment_ids,
                exclude_mask=request.exclude_mask,
                reference_index=request.reference_index,
            )
            _assert_scan_equal(ours, theirs)

    def test_property_random_batches_bit_identical(self):
        localizer = LionLocalizer(dim=2, interval_m=0.2)
        rng = np.random.default_rng(99)
        for trial in range(10):
            requests = [
                _line_request(seed=int(rng.integers(1 << 30)), reads=int(rng.integers(20, 60)))
                for _ in range(6)
            ]
            for ours, request in zip(batch_prepare(localizer, requests), requests):
                theirs = localizer.prepare(request.positions, request.phases_rad)
                _assert_scan_equal(ours, theirs)

    def test_execute_batch_float64_reports_identical(self):
        estimator = create_estimator("lion", {"dim": 2, "method": "wls"})
        requests = [_line_request(seed=s) for s in range(8)]
        for report, request in zip(execute_batch(estimator, requests), requests):
            scalar = estimate("lion", request, {"dim": 2, "method": "wls"})
            assert np.array_equal(report.position, scalar.position)
            assert report.diagnostics == scalar.diagnostics
            assert np.array_equal(report.residuals, scalar.residuals)


class TestFloat32Bounds:
    #: Position-error ceiling of the float32 pipeline, meters. The solver
    #: converges to ~1e-4; the ceiling leaves room for sqrt-recovery
    #: amplification on near-zero radicands.
    TOLERANCE_M = 5e-3

    def test_property_positions_bounded(self):
        estimator = create_estimator("lion", {"dim": 2, "method": "wls"})
        rng = np.random.default_rng(7)
        for trial in range(8):
            requests = [
                _line_request(
                    seed=int(rng.integers(1 << 30)),
                    target=(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.6, 1.1))),
                )
                for _ in range(8)
            ]
            batched = execute_batch(estimator, requests, dtype="float32")
            for report, request in zip(batched, requests):
                scalar = estimate("lion", request, {"dim": 2, "method": "wls"})
                error = float(np.max(np.abs(report.position - scalar.position)))
                assert error < self.TOLERANCE_M

    def test_prepared_deltas_bounded(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        requests = [_line_request(seed=s) for s in range(4)]
        exact = batch_prepare(localizer, requests)
        approx = batch_prepare(localizer, requests, dtype=np.float32)
        for ours, theirs in zip(approx, exact):
            assert ours.delta_d.dtype == np.float32
            assert float(np.max(np.abs(ours.delta_d - theirs.delta_d))) < 1e-5

    def test_diagnostics_shape_matches_scalar(self):
        estimator = create_estimator("lion", {"dim": 2, "method": "wls"})
        requests = [_line_request(seed=3)]
        report = execute_batch(estimator, requests, dtype="float32")[0]
        scalar = estimate("lion", requests[0], {"dim": 2, "method": "wls"})
        assert set(report.diagnostics) == set(scalar.diagnostics)
        assert report.diagnostics["recovered_axis"] == scalar.diagnostics["recovered_axis"]
        assert report.raw.recovery is not None


class TestTemplateCache:
    def test_repeat_geometry_hits(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        requests = [_line_request(seed=s) for s in range(4)]
        batch_prepare(localizer, requests)
        first = template_cache_info()
        # all four members share one trajectory digest -> one build.
        assert first["misses"] == 1
        assert first["hits"] == 3
        batch_prepare(localizer, requests)
        second = template_cache_info()
        assert second["misses"] == 1
        assert second["hits"] == 7
        assert second["size"] == 1

    def test_distinct_masks_distinct_templates(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        mask = np.zeros(40, bool)
        mask[:5] = True
        requests = [_line_request(seed=1), _line_request(seed=1, exclude_mask=mask)]
        batch_prepare(localizer, requests)
        assert template_cache_info()["misses"] == 2

    def test_clear_resets_counters(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        batch_prepare(localizer, [_line_request()])
        clear_template_cache()
        info = template_cache_info()
        assert info == {"hits": 0, "misses": 0, "size": 0, "max_size": info["max_size"]}


def _assert_ejected_like_scalar(localizer, ejected, request):
    """The batch slot holds exactly the error scalar ``prepare()`` raises."""
    with pytest.raises(ValueError) as scalar:
        localizer.prepare(
            request.positions,
            request.phases_rad,
            segment_ids=request.segment_ids,
            exclude_mask=request.exclude_mask,
            reference_index=request.reference_index,
        )
    assert type(ejected) is type(scalar.value)
    assert str(ejected) == str(scalar.value)


class TestRaggedBatches:
    def test_too_few_reads_member_ejects_alone(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        bad = EstimationRequest(
            positions=np.array([[0.0, 0.0], [0.1, 0.0]]),
            phases_rad=np.array([0.1, 0.2]),
        )
        good = [_line_request(seed=s) for s in range(3)]
        results = batch_prepare(localizer, [good[0], bad, good[1], good[2]])
        assert isinstance(results[1], TooFewReadsError)
        _assert_ejected_like_scalar(localizer, results[1], bad)
        for slot, request in ((0, good[0]), (2, good[1]), (3, good[2])):
            _assert_scan_equal(results[slot], localizer.prepare(request.positions, request.phases_rad))

    def test_mixed_2d_3d_rejection(self):
        """A planar member under a 3D localizer ejects as the scalar error."""
        localizer = LionLocalizer(dim=3, interval_m=0.25)
        flat = _line_request(seed=1)  # (n, 2): unobservable 3D target
        spatial = _line_request(seed=2, dim=3)
        spatial_positions = spatial.positions.copy()
        spatial_positions[:, 1] = np.linspace(-0.3, 0.3, spatial_positions.shape[0])
        spatial = EstimationRequest(
            positions=spatial_positions, phases_rad=spatial.phases_rad
        )
        results = batch_prepare(localizer, [flat, spatial])
        assert isinstance(results[0], DegenerateGeometryError)
        _assert_ejected_like_scalar(localizer, results[0], flat)
        _assert_scan_equal(
            results[1], localizer.prepare(spatial.positions, spatial.phases_rad)
        )

    def test_bad_shape_member_ejects_alone(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        bad = EstimationRequest(
            positions=np.zeros((10, 4)), phases_rad=np.zeros(10)
        )
        good = _line_request(seed=4)
        results = batch_prepare(localizer, [bad, good])
        assert "positions must be" in str(results[0])
        _assert_ejected_like_scalar(localizer, results[0], bad)
        _assert_scan_equal(results[1], localizer.prepare(good.positions, good.phases_rad))

    def test_empty_after_mask_member(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        smothered = _line_request(seed=5, exclude_mask=np.ones(40, bool))
        thin = _line_request(seed=6, exclude_mask=~np.isin(np.arange(40), [0, 7]))
        good = _line_request(seed=7)
        results = batch_prepare(localizer, [smothered, thin, good])
        assert isinstance(results[0], TooFewReadsError)
        assert isinstance(results[1], TooFewReadsError)
        _assert_ejected_like_scalar(localizer, results[0], smothered)
        _assert_ejected_like_scalar(localizer, results[1], thin)
        _assert_scan_equal(results[2], localizer.prepare(good.positions, good.phases_rad))

    def test_non_finite_phases_member_ejects_alone(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        poisoned = _line_request(seed=8)
        phases = poisoned.phases_rad.copy()
        phases[3] = np.nan
        poisoned = EstimationRequest(positions=poisoned.positions, phases_rad=phases)
        good = _line_request(seed=9)
        results = batch_prepare(localizer, [poisoned, good])
        assert "non-finite" in str(results[0])
        _assert_ejected_like_scalar(localizer, results[0], poisoned)
        _assert_scan_equal(results[1], localizer.prepare(good.positions, good.phases_rad))

    def test_non_finite_position_member_ejects_alone(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        poisoned = _line_request(seed=10)
        positions = poisoned.positions.copy()
        positions[5, 0] = np.inf
        poisoned = EstimationRequest(positions=positions, phases_rad=poisoned.phases_rad)
        good = _line_request(seed=10)
        results = batch_prepare(localizer, [poisoned, good, poisoned])
        assert "non-finite" in str(results[0])
        _assert_ejected_like_scalar(localizer, results[0], poisoned)
        _assert_ejected_like_scalar(localizer, results[2], poisoned)
        _assert_scan_equal(results[1], localizer.prepare(good.positions, good.phases_rad))

    def test_wrong_length_mask_member_ejects_alone(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        bad = _line_request(seed=11, exclude_mask=np.zeros(39, bool))
        good = _line_request(seed=11, exclude_mask=np.zeros(40, bool))
        results = batch_prepare(localizer, [bad, good])
        assert "exclude_mask" in str(results[0])
        _assert_ejected_like_scalar(localizer, results[0], bad)
        _assert_scan_equal(
            results[1],
            localizer.prepare(good.positions, good.phases_rad, exclude_mask=good.exclude_mask),
        )

    def test_wrong_length_segments_member_ejects_alone(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        bad = _line_request(seed=12, segment_ids=np.zeros(39, int))
        good = _line_request(seed=12, segment_ids=np.zeros(40, int))
        results = batch_prepare(localizer, [bad, good])
        assert "segment_ids" in str(results[0])
        _assert_ejected_like_scalar(localizer, results[0], bad)
        _assert_scan_equal(
            results[1],
            localizer.prepare(good.positions, good.phases_rad, segment_ids=good.segment_ids),
        )

    def test_missing_fields_member(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        results = batch_prepare(
            localizer, [EstimationRequest(positions=np.zeros((5, 2))), _line_request()]
        )
        assert isinstance(results[0], ValueError)
        assert "phases_rad" in str(results[0])
        assert not isinstance(results[1], ValueError)

    def test_execute_batch_isolates_failures(self):
        estimator = create_estimator("lion", {"dim": 2, "method": "wls"})
        bad = EstimationRequest(
            positions=np.array([[0.0, 0.0], [0.1, 0.0]]),
            phases_rad=np.array([0.1, 0.2]),
        )
        good = _line_request(seed=11)
        for dtype in ("float64", "float32"):
            results = execute_batch(estimator, [good, bad], dtype=dtype)
            assert isinstance(results[1], TooFewReadsError)
            assert results[0].position.shape == (2,)


class TestPrepareCopyContract:
    def test_assume_preprocessed_reads_input_in_place(self):
        """Satellite: no defensive copy; inputs stay unmutated, outputs don't alias."""
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        request = _line_request(seed=12)
        profile = localizer.preprocess_phase(request.phases_rad)
        snapshot = profile.copy()
        prepared = localizer.prepare(
            request.positions, profile, assume_preprocessed=True
        )
        # the input was not mutated by preparation...
        assert np.array_equal(profile, snapshot)
        # ...and the prepared scan holds no view of it: mutating the
        # input afterwards must not change the prepared profile.
        before = prepared.used_profile.copy()
        profile += 123.0
        assert np.array_equal(prepared.used_profile, before)

    def test_assume_preprocessed_matches_two_step(self):
        localizer = LionLocalizer(dim=2, interval_m=0.25)
        request = _line_request(seed=13)
        profile = localizer.preprocess_phase(request.phases_rad)
        direct = localizer.prepare(request.positions, request.phases_rad)
        two_step = localizer.prepare(
            request.positions, profile, assume_preprocessed=True
        )
        _assert_scan_equal(two_step, direct)


class TestFingerprintCache:
    def test_fingerprint_computed_once(self):
        request = _line_request(seed=14)
        first = request.fingerprint()
        assert request.fingerprint() is first  # cached object, not recomputed

    def test_equal_content_equal_fingerprint(self):
        a = _line_request(seed=15)
        b = EstimationRequest(
            positions=a.positions.copy(), phases_rad=a.phases_rad.copy()
        )
        c = _line_request(seed=16)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestServeIntegration:
    def test_dtype_knob_validated(self):
        assert ServeConfig(dtype="float32").dtype == "float32"
        with pytest.raises(ValueError, match="dtype"):
            ServeConfig(dtype="float16")

    def test_engine_float32_end_to_end(self):
        config = ServeConfig(dtype="float32", cache_entries=0)
        requests = [_line_request(seed=s) for s in range(6)]
        with ServeEngine(config) as engine:
            tickets = [engine.submit("lion", request) for request in requests]
            reports = [ticket.result(timeout=30.0) for ticket in tickets]
            stats = engine.stats()
        for report, request in zip(reports, requests):
            scalar = estimate("lion", request)
            assert float(np.max(np.abs(report.position - scalar.position))) < 5e-3
        assert {"hits", "misses", "hit_rate"} <= set(stats["template_cache"])
        assert {"hits", "misses", "hit_rate"} <= set(stats["pair_cache"])

    def test_single_request_dispatch_warms_template_cache(self):
        """The streaming windowed re-solve path (engine.submit of one
        request at a time) rides the template cache under
        ``fuse_singletons`` — and at load, singleton re-solves batch up
        with concurrent traffic and ride it regardless."""
        with ServeEngine(ServeConfig(cache_entries=0, fuse_singletons=True)) as engine:
            engine.submit("lion", _line_request(seed=20)).result(timeout=30.0)
            engine.submit("lion", _line_request(seed=21)).result(timeout=30.0)
        info = template_cache_info()
        assert info["misses"] == 1
        assert info["hits"] >= 1

    def test_stats_hit_rate_none_before_traffic(self):
        with ServeEngine(ServeConfig(cache_entries=0)) as engine:
            stats = engine.stats()
        assert stats["template_cache"]["hit_rate"] is None

    def test_timeseries_sample_carries_cache_rates(self):
        from repro.serve.net.http import derive_serve_sample
        from repro.obs.history import Sample

        sample = Sample(
            t=100.0,
            dt=1.0,
            counters={
                "serve.template_cache_hits": [({}, 9.0)],
                "serve.template_cache_misses": [({}, 1.0)],
                "adaptive.pair_cache_total": [
                    ({"result": "hit"}, 3.0),
                    ({"result": "miss"}, 1.0),
                ],
            },
            gauges={},
            histograms={},
        )
        derived = derive_serve_sample(sample)
        assert derived["template_hit_rate"] == 0.9
        assert derived["pair_hit_rate"] == 0.75
        empty = Sample(t=101.0, dt=1.0, counters={}, gauges={}, histograms={})
        assert derive_serve_sample(empty)["template_hit_rate"] is None
