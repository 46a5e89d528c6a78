"""Tests for the :mod:`repro.pipeline` serving layer.

Covers the registry (name -> typed config -> estimator), the
request/report contract, dict round-trips of every config class, the
adapters' accuracy on synthetic scenes, and the batch fan-out helper.
"""

import dataclasses

import numpy as np
import pytest

from repro import pipeline
from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.obs.manifest import config_fingerprint

K = 2.0 * TWO_PI / DEFAULT_WAVELENGTH_M
TRUTH_2D = np.array([0.15, 0.9])


def _linear_scene(seed=7, noise=0.03, count=200, offset=0.7):
    """An x-sweep past the 2D truth with Eq. (1) phases."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-0.5, 0.5, count)
    positions = np.stack([x, np.zeros_like(x)], axis=1)
    distances = np.linalg.norm(positions - TRUTH_2D, axis=1)
    phases = np.mod(
        K * distances + offset + rng.normal(0.0, noise, count), TWO_PI
    )
    return positions, phases


def _multiantenna_scene():
    """Three antennas read one static tag; offsets known exactly."""
    centers = np.array([[-0.3, 0.0], [0.0, 0.0], [0.3, 0.0]])
    truth = np.array([-0.1, 0.8])
    offsets = np.array([0.5, 1.3, 2.1])
    distances = np.linalg.norm(centers - truth, axis=1)
    phases = np.mod(K * distances + offsets, TWO_PI)
    bounds = ((truth[0] - 0.15, truth[0] + 0.15), (truth[1] - 0.15, truth[1] + 0.15))
    return centers, phases, offsets, bounds, truth


def _turntable_scene():
    """A tag on a turntable read by an antenna 0.8 m out at 0.4 rad."""
    radius = 0.15
    antenna = 0.8 * np.array([np.cos(0.4), np.sin(0.4)])
    angles = np.linspace(0.0, TWO_PI, 240, endpoint=False)
    tags = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    distances = np.linalg.norm(tags - antenna, axis=1)
    phases = np.mod(K * distances + 0.3, TWO_PI)
    return angles, phases, radius, antenna


def _circle_scene(seed=7, noise=0.03, count=240):
    """A full-rank 2D trajectory: a 0.3 m circle, Eq. (1) phases."""
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.0, TWO_PI, count, endpoint=False)
    positions = 0.3 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    distances = np.linalg.norm(positions - TRUTH_2D, axis=1)
    phases = np.mod(K * distances + 0.7 + rng.normal(0.0, noise, count), TWO_PI)
    return positions, phases


class TestRegistry:
    def test_names_sorted_and_unique(self):
        names = pipeline.estimator_names()
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_duplicate_registration_rejected(self):
        spec = pipeline.get_spec("lion")
        with pytest.raises(ValueError, match="already registered"):
            pipeline.register_estimator(
                "lion", spec.config_cls, spec.factory, summary="dupe"
            )

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="lion-online"):
            pipeline.get_spec("no-such-method")

    def test_resolve_config_defaults(self):
        config = pipeline.resolve_config("lion")
        assert isinstance(config, pipeline.LionConfig)
        assert config == pipeline.LionConfig()

    def test_resolve_config_from_dict(self):
        config = pipeline.resolve_config("lion", {"dim": 3, "interval_m": 0.2})
        assert config.dim == 3
        assert config.interval_m == 0.2

    def test_resolve_config_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            pipeline.resolve_config("lion", {"no_such_knob": 1})
        # The sweep's removed executor options are unknown keys too.
        for key, value in (("fused", True), ("executor", "thread"), ("jobs", 2)):
            with pytest.raises(ValueError, match=f"unknown config keys .*'{key}'"):
                pipeline.resolve_config("lion-adaptive", {key: value})

    def test_resolve_config_wrong_typed_class(self):
        with pytest.raises(TypeError, match="LionConfig"):
            pipeline.resolve_config("lion", pipeline.HologramConfig())


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "name", ["lion", "lion-online", "lion-multiref", "lion-multiantenna",
                 "lion-adaptive", "hyperbola", "parabola", "angle", "hologram"]
    )
    def test_defaults_round_trip(self, name):
        config = pipeline.resolve_config(name)
        payload = config.to_dict()
        assert config.__class__.from_dict(payload) == config

    def test_tuple_fields_round_trip(self):
        config = pipeline.AdaptiveLionConfig(
            ranges_m=(0.5, 0.9), intervals_m=(0.1, 0.2, 0.3)
        )
        rebuilt = pipeline.AdaptiveLionConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.ranges_m == (0.5, 0.9)

    def test_wavelength_dict_survives_json_string_keys(self):
        config = pipeline.MultiRefLionConfig(
            wavelengths_by_run={0: 0.33, 1: 0.324}
        )
        payload = config.to_dict()
        stringified = dict(payload, wavelengths_by_run={"0": 0.33, "1": 0.324})
        rebuilt = pipeline.MultiRefLionConfig.from_dict(stringified)
        assert rebuilt == config
        assert set(rebuilt.wavelengths_by_run) == {0, 1}

    @pytest.mark.parametrize(
        "name", ["lion", "lion-online", "lion-multiref", "lion-multiantenna",
                 "lion-adaptive", "hyperbola", "parabola", "angle", "hologram"]
    )
    def test_to_dict_is_json_safe(self, name):
        import json

        payload = pipeline.resolve_config(name).to_dict()
        assert json.loads(json.dumps(payload)) is not None


class TestContract:
    def test_from_scan_duck_typing(self):
        class FakeScan:
            positions = np.zeros((4, 2))
            phases = np.zeros(4)
            segment_ids = np.array([0, 0, 1, 1])
            exclude_mask = np.array([False, True, False, False])

        request = pipeline.EstimationRequest.from_scan(FakeScan())
        assert request.positions.shape == (4, 2)
        assert request.exclude_mask.sum() == 1

    def test_require_names_missing_fields(self):
        request = pipeline.EstimationRequest(positions=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="phases_rad"):
            request.require("positions", "phases_rad")

    def test_report_hash_matches_manifest_config(self):
        positions, phases = _linear_scene()
        report = pipeline.estimate(
            "lion",
            pipeline.EstimationRequest(positions=positions, phases_rad=phases),
            {"dim": 2},
        )
        assert report.config_hash == config_fingerprint(report.manifest_config())
        assert report.manifest_config()["estimator"] == "lion"
        assert report.config["dim"] == 2

    def test_config_hash_depends_on_config(self):
        positions, phases = _linear_scene()
        request = pipeline.EstimationRequest(positions=positions, phases_rad=phases)
        a = pipeline.estimate("lion", request, {"dim": 2, "interval_m": 0.25})
        b = pipeline.estimate("lion", request, {"dim": 2, "interval_m": 0.2})
        assert a.config_hash != b.config_hash


class TestAdapters:
    def test_lion_locates_truth(self):
        positions, phases = _linear_scene()
        report = pipeline.estimate(
            "lion",
            pipeline.EstimationRequest(positions=positions, phases_rad=phases),
            {"dim": 2, "interval_m": 0.25},
        )
        assert np.linalg.norm(report.position - TRUTH_2D) < 0.005
        assert report.reference_distance_m is not None
        assert "mean_abs_residual" in report.diagnostics
        assert report.residuals is not None

    def test_lion_honours_exclude_mask(self):
        positions, phases = _linear_scene()
        corrupted = phases.copy()
        corrupted[:20] = 0.0
        mask = np.zeros(len(phases), dtype=bool)
        mask[:20] = True
        report = pipeline.estimate(
            "lion",
            pipeline.EstimationRequest(
                positions=positions, phases_rad=corrupted, exclude_mask=mask
            ),
            {"dim": 2, "interval_m": 0.25},
        )
        assert np.linalg.norm(report.position - TRUTH_2D) < 0.005

    def test_online_streaming_and_batch_agree(self):
        positions, phases = _linear_scene()
        online = pipeline.create_estimator("lion-online", {"dim": 2, "pair_lag": 40})
        for position, phase in zip(positions, phases):
            online.ingest(position, phase)
        assert online.ready()
        snapshot = online.snapshot()
        replay = online.estimate(
            pipeline.EstimationRequest(positions=positions, phases_rad=phases)
        )
        assert np.linalg.norm(snapshot.position - TRUTH_2D) < 0.01
        np.testing.assert_allclose(replay.position, snapshot.position, atol=1e-9)

    def test_adaptive_reports_selection(self):
        positions, phases = _linear_scene()
        report = pipeline.estimate(
            "lion-adaptive",
            pipeline.EstimationRequest(positions=positions, phases_rad=phases),
            {"dim": 2, "ranges_m": (0.8, 1.0), "intervals_m": (0.2, 0.25)},
        )
        assert np.linalg.norm(report.position - TRUTH_2D) < 0.01
        assert report.diagnostics["best_range_m"] in (0.8, 1.0)
        assert report.diagnostics["best_interval_m"] in (0.2, 0.25)

    def test_multiref_separate_runs(self):
        positions, phases = _linear_scene(noise=0.0)
        runs = np.repeat([0, 1], len(positions) // 2)
        # Give the second run its own phase datum.
        shifted = phases.copy()
        shifted[runs == 1] = np.mod(shifted[runs == 1] + 1.9, TWO_PI)
        report = pipeline.estimate(
            "lion-multiref",
            pipeline.EstimationRequest(
                positions=positions, phases_rad=shifted, run_ids=runs
            ),
            {"dim": 2, "interval_m": 0.25},
        )
        assert np.linalg.norm(report.position - TRUTH_2D) < 0.01
        assert report.diagnostics["run_count"] == 2

    def test_multiref_requires_run_labels(self):
        positions, phases = _linear_scene()
        with pytest.raises(ValueError, match="run_ids"):
            pipeline.estimate(
                "lion-multiref",
                pipeline.EstimationRequest(positions=positions, phases_rad=phases),
            )

    def test_multiantenna_with_offset_corrections(self):
        centers, phases, offsets, bounds, truth = _multiantenna_scene()
        report = pipeline.estimate(
            "lion-multiantenna",
            pipeline.EstimationRequest(
                positions=centers,
                phases_rad=phases,
                bounds=bounds,
                offset_corrections_rad=offsets - offsets[0],
            ),
            {"grid_size_m": 0.005},
        )
        assert np.linalg.norm(report.position - truth) < 0.01

    def test_hyperbola_baseline(self):
        positions, phases = _linear_scene()
        report = pipeline.estimate(
            "hyperbola",
            pipeline.EstimationRequest(positions=positions, phases_rad=phases),
        )
        assert np.linalg.norm(report.position - TRUTH_2D) < 0.01

    def test_parabola_baseline(self):
        positions, phases = _linear_scene()
        report = pipeline.estimate(
            "parabola",
            pipeline.EstimationRequest(positions=positions, phases_rad=phases),
        )
        # The parabola fit estimates the closest-approach x and the depth.
        assert abs(report.position[0] - TRUTH_2D[0]) < 0.02

    def test_angle_baseline(self):
        angles, phases, radius, antenna = _turntable_scene()
        report = pipeline.estimate(
            "angle",
            pipeline.EstimationRequest(
                angles_rad=angles, phases_rad=phases, radius_m=radius
            ),
        )
        assert np.linalg.norm(report.position - antenna) < 0.01

    def test_hologram_baseline(self):
        positions, phases = _linear_scene()
        report = pipeline.estimate(
            "hologram",
            pipeline.EstimationRequest(
                positions=positions[::8],
                phases_rad=phases[::8],
                bounds=(
                    (TRUTH_2D[0] - 0.1, TRUTH_2D[0] + 0.1),
                    (TRUTH_2D[1] - 0.1, TRUTH_2D[1] + 0.1),
                ),
            ),
            {"grid_size_m": 0.005},
        )
        assert np.linalg.norm(report.position - TRUTH_2D) < 0.01

    def test_missing_fields_are_uniform_errors(self):
        empty = pipeline.EstimationRequest()
        for name in pipeline.estimator_names():
            with pytest.raises(ValueError, match="missing required fields"):
                pipeline.estimate(name, empty)


class TestLionStandardError:
    """``diagnostics.position_std_m``: the solver's σ where it is world-frame."""

    @staticmethod
    def _request(scene):
        positions, phases = scene
        return pipeline.EstimationRequest(positions=positions, phases_rad=phases)

    def test_full_rank_scan_reports_the_solver_sigma(self):
        report = pipeline.estimate("lion", self._request(_circle_scene()), {"dim": 2})
        sigma = report.diagnostics["position_std_m"]
        assert report.diagnostics["recovered_axis"] is None
        assert sigma == report.raw.solution.position_std_m.tolist()
        assert len(sigma) == 2 and all(0.0 < value < 0.01 for value in sigma)

    @pytest.mark.parametrize("slant_rad", [0.0, 0.5])
    def test_line_scan_reports_none(self, slant_rad):
        # The cross coordinate is recovered from d_r after the solve, where
        # the solver pins it (sigma 0); a slanted line also solves rotated.
        positions, phases = _linear_scene()
        cos, sin = np.cos(slant_rad), np.sin(slant_rad)
        positions = positions @ np.array([[cos, sin], [-sin, cos]])
        report = pipeline.estimate(
            "lion", self._request((positions, phases)), {"dim": 2, "interval_m": 0.25}
        )
        assert report.diagnostics["recovered_axis"] == 1
        assert report.raw.solution.position_std_m[1] == 0.0
        assert report.diagnostics["position_std_m"] is None

    def test_batched_reports_carry_the_same_key(self):
        from repro.serve.batching import execute_batch

        requests = [self._request(_circle_scene()), self._request(_linear_scene())]
        estimator = pipeline.create_estimator("lion", {"dim": 2})
        scalar = [estimator.estimate(request) for request in requests]
        batched = execute_batch(estimator, requests)
        assert [r.diagnostics for r in batched] == [r.diagnostics for r in scalar]
        assert batched[0].diagnostics["position_std_m"] is not None
        # The float32 kernel forms no covariance.
        single = execute_batch(estimator, requests, dtype="float32")
        assert [r.diagnostics["position_std_m"] for r in single] == [None, None]


class TestEstimateMany:
    def test_serial_and_thread_agree(self):
        requests = []
        for seed in (1, 2, 3, 4):
            positions, phases = _linear_scene(seed=seed)
            requests.append(
                pipeline.EstimationRequest(positions=positions, phases_rad=phases)
            )
        serial = pipeline.estimate_many("lion", requests, {"dim": 2})
        threaded = pipeline.estimate_many(
            "lion", requests, {"dim": 2}, executor="thread", jobs=2
        )
        for a, b in zip(serial, threaded):
            np.testing.assert_allclose(a.position, b.position, atol=0.0)
            assert a.config_hash == b.config_hash


class TestConfigIntrospection:
    def test_every_config_is_frozen_dataclass(self):
        for name in pipeline.estimator_names():
            cls = pipeline.get_spec(name).config_cls
            assert dataclasses.is_dataclass(cls)
            params = getattr(cls, "__dataclass_params__")
            assert params.frozen, f"{cls.__name__} must be frozen"

    def test_every_config_has_wavelength(self):
        for name in pipeline.estimator_names():
            config = pipeline.resolve_config(name)
            assert config.wavelength_m == pytest.approx(DEFAULT_WAVELENGTH_M)
