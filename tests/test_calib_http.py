"""HTTP surface of the calibration registry (repro.serve.net).

Thread-mode servers with a ``calibration_store`` configured: the
``/v1/calibrations`` routes (list / history / commit with CAS), fleet
health in ``/statz``, and ``/v1/locate`` resolving named antennas to
the same bits as explicit arrays. Also the negative space: naming
antennas on a store-less server is a 400, the registry routes 404.
"""

import http.client
import json

import numpy as np
import pytest

from repro.calib import CalibrationStore, RecalibrationScheduler, fleet_scan_source
from repro.datasets.fleet import AntennaFleet, FleetDriftConfig
from repro.serve.net import BadRequestError, NetServeConfig, ServerHandle, parse_locate_body

TAG = (0.4, -0.6, 0.1)


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        raw = response.read()
        payload = json.loads(raw) if raw else None
        return response.status, payload
    finally:
        conn.close()


def _commit_body(antenna="ant-000", offset=1.0, **extra):
    body = {
        "antenna": antenna,
        "physical_center": [0.0, 0.8, 0.0],
        "estimated_center": [0.01, 0.81, 0.002],
        "phase_offset_rad": offset,
    }
    body.update(extra)
    return json.dumps(body).encode()


@pytest.fixture(scope="class")
def fleet():
    return AntennaFleet(FleetDriftConfig(size=3, seed=2))


@pytest.fixture(scope="class")
def server(tmp_path_factory, fleet):
    root = tmp_path_factory.mktemp("calib-http") / "store"
    store = CalibrationStore(root)
    RecalibrationScheduler(
        store, fleet_scan_source(fleet), executor="serial", source="seed"
    ).recalibrate(fleet.names)
    config = NetServeConfig(
        port=0,
        shards=1,
        worker_mode="thread",
        calibration_store=str(root),
    )
    with ServerHandle(config) as handle:
        yield handle


class TestCalibrationRoutes:
    def test_list_fleet_status(self, server, fleet):
        status, payload = _request(server.port, "GET", "/v1/calibrations")
        assert status == 200
        assert payload["antennas"] == 3
        assert set(payload["latest"]) == set(fleet.names)
        assert all(entry["version"] >= 1 for entry in payload["latest"].values())

    def test_history_route(self, server, fleet):
        name = fleet.names[0]
        status, payload = _request(server.port, "GET", f"/v1/calibrations/{name}")
        assert status == 200
        assert payload["antenna"] == name
        assert payload["latest_version"] == payload["versions"][-1]["version"]
        assert payload["versions"][0]["source"] == "seed"

    def test_history_unknown_antenna_404(self, server):
        status, payload = _request(server.port, "GET", "/v1/calibrations/ghost")
        assert status == 404
        assert payload["error"]["kind"] == "unknown_antenna"

    def test_commit_then_conflict(self, server):
        status, record = _request(
            server.port, "POST", "/v1/calibrations", _commit_body("http-ant", 1.0)
        )
        assert status == 201
        assert record["version"] == 1 and record["source"] == "manual"
        # Correct CAS token commits.
        status, record = _request(
            server.port,
            "POST",
            "/v1/calibrations",
            _commit_body("http-ant", 1.1, expected_version=1, source="scan"),
        )
        assert status == 201 and record["version"] == 2
        # Stale token: 409 with the conflict coordinates.
        status, payload = _request(
            server.port,
            "POST",
            "/v1/calibrations",
            _commit_body("http-ant", 1.2, expected_version=1),
        )
        assert status == 409
        assert payload["error"]["kind"] == "version_conflict"
        assert payload["antenna"] == "http-ant"
        assert (payload["expected"], payload["actual"]) == (1, 2)

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b"[]",
            json.dumps({"antenna": "a"}).encode(),
            _commit_body("a", "not-a-number"),
            _commit_body("a", 1.0, expected_version="later"),
            pytest.param(_commit_body("a", 10**400), id="huge-offset"),
            pytest.param(b"[" * 100_000, id="deep-nesting"),
        ],
    )
    def test_commit_malformed_400(self, server, body):
        status, payload = _request(server.port, "POST", "/v1/calibrations", body)
        assert status == 400
        assert payload["error"]["kind"] == "bad_request"

    def test_statz_has_fleet_health(self, server):
        status, payload = _request(server.port, "GET", "/statz")
        assert status == 200
        health = payload["calibration"]
        assert health["enabled"] is True
        assert health["antennas"] >= 3
        assert health["versions_total"] >= health["antennas"]
        assert health["generation"] >= 3
        assert "resolver" in health

    def test_locate_by_antennas_matches_explicit_arrays(self, server, fleet):
        phases = fleet.static_tag_phases(TAG)
        bounds = [
            [TAG[0] - 0.1, TAG[0] + 0.1],
            [TAG[1] - 0.1, TAG[1] + 0.1],
            [TAG[2] - 0.1, TAG[2] + 0.1],
        ]
        named = {
            "estimator": "lion-multiantenna",
            "config": {"grid_size_m": 0.02},
            "request": {
                "antennas": list(fleet.names),
                "phases_rad": phases.tolist(),
                "bounds": bounds,
            },
        }
        status, by_name = _request(
            server.port, "POST", "/v1/locate", json.dumps(named).encode()
        )
        assert status == 200

        # Rebuild the explicit request from the history route's records:
        # centers verbatim, offsets wrapped relative to antenna 0.
        latest = {}
        for name in fleet.names:
            _, history = _request(server.port, "GET", f"/v1/calibrations/{name}")
            latest[name] = history["versions"][-1]
        reference = latest[fleet.names[0]]["phase_offset_rad"]
        explicit = dict(named)
        explicit["request"] = {
            "positions": [latest[name]["estimated_center"] for name in fleet.names],
            "phases_rad": phases.tolist(),
            "bounds": bounds,
            "offset_corrections_rad": [
                float(
                    np.mod(
                        latest[name]["phase_offset_rad"] - reference + np.pi,
                        2 * np.pi,
                    )
                    - np.pi
                )
                for name in fleet.names
            ],
        }
        status, by_arrays = _request(
            server.port, "POST", "/v1/locate", json.dumps(explicit).encode()
        )
        assert status == 200
        assert by_name["position"] == by_arrays["position"]
        assert by_name["config_hash"] == by_arrays["config_hash"]

    def test_locate_unknown_antenna_404(self, server):
        body = {
            "estimator": "lion-multiantenna",
            "request": {
                "antennas": ["ghost"],
                "phases_rad": [0.1],
                "bounds": [[-0.1, 0.1], [-0.1, 0.1], [-0.1, 0.1]],
            },
        }
        status, payload = _request(
            server.port, "POST", "/v1/locate", json.dumps(body).encode()
        )
        assert status == 404
        assert payload["error"]["kind"] == "unknown_antenna"


class TestWithoutStore:
    @pytest.fixture(scope="class")
    def bare_server(self):
        config = NetServeConfig(port=0, shards=1, worker_mode="thread")
        with ServerHandle(config) as handle:
            yield handle

    def test_registry_routes_404(self, bare_server):
        status, payload = _request(bare_server.port, "GET", "/v1/calibrations")
        assert status == 404 and payload["error"]["kind"] == "not_found"
        status, payload = _request(
            bare_server.port, "POST", "/v1/calibrations", _commit_body()
        )
        assert status == 404 and payload["error"]["kind"] == "not_found"

    def test_locate_naming_antennas_400(self, bare_server):
        body = {
            "estimator": "lion-multiantenna",
            "request": {"antennas": ["a"], "phases_rad": [0.1]},
        }
        status, payload = _request(
            bare_server.port, "POST", "/v1/locate", json.dumps(body).encode()
        )
        assert status == 400
        assert "calibration" in payload["error"]["message"]

    def test_statz_reports_disabled(self, bare_server):
        status, payload = _request(bare_server.port, "GET", "/statz")
        assert status == 200
        assert payload["calibration"] == {"enabled": False}


class TestWireParsing:
    def test_antennas_parse_to_string_tuple(self):
        body = json.dumps(
            {
                "estimator": "lion-multiantenna",
                "request": {"antennas": ["a", "b"], "phases_rad": [0.1, 0.2]},
            }
        ).encode()
        call = parse_locate_body(body)
        assert call.scalars["antennas"] == ("a", "b")

    @pytest.mark.parametrize("antennas", ["a", [], [""], [1, 2], ["a", 3]])
    def test_bad_antennas_rejected(self, antennas):
        body = json.dumps(
            {
                "estimator": "lion-multiantenna",
                "request": {"antennas": antennas, "phases_rad": [0.1]},
            }
        ).encode()
        with pytest.raises(BadRequestError):
            parse_locate_body(body)
