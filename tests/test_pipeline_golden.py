"""Cross-estimator golden regression test.

One fixed-seed scene per request shape is replayed through *every*
registered estimator, and each estimate is compared against a stored
reference position. The point is drift detection: a refactor of a solver,
adapter, or preprocessing step that changes any method's numbers — even
slightly — fails here, pointing at the exact method that moved.

Tolerances are per-method: the linear-algebra and grid-search paths are
deterministic (tight ``atol``); the ``scipy.optimize`` paths get a
looser bound to absorb library/platform variation.
"""

import numpy as np
import pytest

from repro import pipeline
from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI

K = 2.0 * TWO_PI / DEFAULT_WAVELENGTH_M
SEED = 20260805
TRUTH = np.array([0.12, 0.85])

#: estimator -> (reference position, atol). Regenerate only deliberately
#: (see the module docstring of this test): run the estimator on the
#: scene below and paste the new numbers with the reason in the commit.
GOLDEN = {
    "lion": (np.array([0.11985155311831616, 0.8496802840883577]), 1e-7),
    "lion-online": (np.array([0.11976159011961718, 0.8476843119915746]), 1e-7),
    "lion-adaptive": (np.array([0.11969605603047062, 0.8487454899379057]), 1e-7),
    "lion-multiref": (np.array([0.12169270705171202, 0.8529102283000236]), 1e-7),
    "lion-multiantenna": (np.array([-0.1, 0.8]), 1e-9),
    "hyperbola": (np.array([0.11996399156554577, 0.8492850623629289]), 1e-5),
    "parabola": (np.array([0.11868272097314138, 0.9295428238549107]), 1e-7),
    "angle": (np.array([0.7020519832984191, 0.3837946525231259]), 1e-5),
    "hologram": (np.array([0.12, 0.85]), 1e-9),
}


def _scene():
    """All golden requests, drawn from one seeded generator in order."""
    rng = np.random.default_rng(SEED)
    x = np.linspace(-0.5, 0.5, 180)
    positions = np.stack([x, np.zeros_like(x)], axis=1)
    distances = np.linalg.norm(positions - TRUTH, axis=1)
    phases = np.mod(K * distances + 0.9 + rng.normal(0.0, 0.02, x.size), TWO_PI)
    runs = np.repeat([0, 1], 90)
    hop = phases.copy()
    hop[runs == 1] = np.mod(hop[runs == 1] + 1.3, TWO_PI)

    angles = np.linspace(0.0, TWO_PI, 200, endpoint=False)
    radius = 0.15
    antenna = 0.8 * np.array([np.cos(0.5), np.sin(0.5)])
    tags = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    angle_phases = np.mod(
        K * np.linalg.norm(tags - antenna, axis=1)
        + 0.3
        + rng.normal(0.0, 0.02, angles.size),
        TWO_PI,
    )

    centers = np.array([[-0.3, 0.0], [0.0, 0.0], [0.3, 0.0]])
    tag_truth = np.array([-0.1, 0.8])
    offsets = np.array([0.5, 1.3, 2.1])
    antenna_phases = np.mod(
        K * np.linalg.norm(centers - tag_truth, axis=1) + offsets, TWO_PI
    )

    bounds = ((TRUTH[0] - 0.1, TRUTH[0] + 0.1), (TRUTH[1] - 0.1, TRUTH[1] + 0.1))
    line = pipeline.EstimationRequest(positions=positions, phases_rad=phases)
    return {
        "lion": (line, {"dim": 2, "interval_m": 0.25}),
        "lion-online": (line, {"dim": 2, "pair_lag": 40}),
        "lion-adaptive": (
            line,
            {"dim": 2, "ranges_m": (0.8, 1.0), "intervals_m": (0.2, 0.25)},
        ),
        "lion-multiref": (
            pipeline.EstimationRequest(
                positions=positions, phases_rad=hop, run_ids=runs
            ),
            {"dim": 2, "interval_m": 0.25},
        ),
        "lion-multiantenna": (
            pipeline.EstimationRequest(
                positions=centers,
                phases_rad=antenna_phases,
                bounds=((-0.2, 0.0), (0.7, 0.9)),
                offset_corrections_rad=offsets - offsets[0],
            ),
            {"grid_size_m": 0.005},
        ),
        "hyperbola": (line, {}),
        "parabola": (line, {}),
        "angle": (
            pipeline.EstimationRequest(
                angles_rad=angles, phases_rad=angle_phases, radius_m=radius
            ),
            {},
        ),
        "hologram": (
            pipeline.EstimationRequest(
                positions=positions[::6],
                phases_rad=phases[::6],
                bounds=bounds,
            ),
            {"grid_size_m": 0.005},
        ),
    }


class TestGolden:
    def test_golden_covers_every_registered_estimator(self):
        assert sorted(GOLDEN) == pipeline.estimator_names()
        assert sorted(_scene()) == pipeline.estimator_names()

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_estimator_matches_golden(self, name):
        request, config = _scene()[name]
        report = pipeline.estimate(name, request, config)
        expected, atol = GOLDEN[name]
        np.testing.assert_allclose(
            report.position, expected, atol=atol,
            err_msg=f"estimator {name!r} drifted from its golden reference",
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_estimator_is_deterministic(self, name):
        request, config = _scene()[name]
        first = pipeline.estimate(name, request, config)
        second = pipeline.estimate(name, request, config)
        np.testing.assert_allclose(first.position, second.position, atol=0.0)
