"""HTTP streaming-session surface of repro.serve.net.

The session routes are a thin wire face over ``repro.stream``: the same
state machine, the same events, the same bit-identity — plus the HTTP
error taxonomy (429 capacity, 404 unknown, 409 duplicate/closed, 503
draining) and session-aware drain. Thread-mode workers keep everything
in-process.
"""

import http.client
import json

import numpy as np
import pytest

from repro import LinearTrajectory, default_antenna, simulate_scan
from repro.pipeline import estimate
from repro.serve.net import (
    BadRequestError,
    NetServeConfig,
    ServerHandle,
    parse_reads_ndjson,
    parse_session_create,
)
from repro.stream import StreamConfig


def _scan(seed=21):
    rng = np.random.default_rng(seed)
    antenna = default_antenna((0.1, 0.9, 0.0), rng)
    return simulate_scan(
        LinearTrajectory((-0.5, 0.0, 0.0), (0.5, 0.0, 0.0)), antenna, rng=rng
    )


def _ndjson(scan, start=0, end=None):
    end = len(scan) if end is None else end
    lines = [
        json.dumps(
            {
                "t": k / 120.0,
                "position": [float(v) for v in scan.positions[k][:2]],
                "phase": float(scan.phases[k]),
            }
        )
        for k in range(start, end)
    ]
    return ("\n".join(lines)).encode()


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        raw = response.read()
        payload = json.loads(raw) if raw else None
        return response.status, dict(response.headers), payload
    finally:
        conn.close()


def _config(**overrides):
    defaults = dict(
        port=0,
        shards=1,
        worker_mode="thread",
    )
    defaults.update(overrides)
    return NetServeConfig(**defaults)


class TestParseSessionCreate:
    def test_minimal_body(self):
        tag, antenna, session_id, config = parse_session_create(
            json.dumps({"tag": "T1"}).encode(), StreamConfig()
        )
        assert (tag, antenna, session_id) == ("T1", "1", None)
        assert config == StreamConfig()

    def test_overrides_merge_over_defaults(self):
        body = {
            "tag": "T1",
            "antenna": "A3",
            "session_id": "fixed",
            "estimator": "lion",
            "estimator_config": {"dim": 2},
            "stream": {"resolve_every_reads": 40},
        }
        defaults = StreamConfig(update_every_reads=25)
        tag, antenna, session_id, config = parse_session_create(
            json.dumps(body).encode(), defaults
        )
        assert (tag, antenna, session_id) == ("T1", "A3", "fixed")
        assert config.resolve_every_reads == 40
        assert config.update_every_reads == 25  # default survives
        assert config.estimator_config == {"dim": 2}

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b"[]",
            b"{}",
            json.dumps({"tag": ""}).encode(),
            json.dumps({"tag": "T", "unknown": 1}).encode(),
            json.dumps({"tag": "T", "stream": {"no_such_knob": 1}}).encode(),
            json.dumps({"tag": "T", "stream": {"max_window_reads": 1}}).encode(),
            json.dumps({"tag": "T", "stream": []}).encode(),
            json.dumps({"tag": "T", "antenna": 3}).encode(),
        ],
    )
    def test_bad_bodies_rejected(self, body):
        with pytest.raises(BadRequestError):
            parse_session_create(body, StreamConfig())


class TestParseReadsNdjson:
    def test_reads_parse_in_order(self):
        raw = b'{"t": 0.0, "position": [0.1, 0.2], "phase": 1.5}\n\n' \
              b'{"t": 0.5, "position": [0.2, 0.2, 0.0], "phase": 1.6}\n'
        reads = parse_reads_ndjson(raw)
        assert len(reads) == 2
        timestamp, position, phase = reads[0]
        assert timestamp == 0.0
        assert tuple(position) == (0.1, 0.2)
        assert phase == 1.5
        assert len(reads[1][1]) == 3

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"\n\n",
            b"not json",
            b'{"t": 0.0, "phase": 1.0}',
            b'{"t": 0.0, "position": [0.1, 0.2], "phase": 1.0, "rssi": -60}',
            b'{"t": "zero", "position": [0.1, 0.2], "phase": 1.0}',
            b'{"t": 0.0, "position": [0.1], "phase": 1.0}',
            b'{"t": 0.0, "position": "here", "phase": 1.0}',
            b'{"t": 0.0, "position": [0.1, "y"], "phase": 1.0}',
        ],
    )
    def test_bad_chunks_rejected(self, raw):
        with pytest.raises(BadRequestError):
            parse_reads_ndjson(raw)


class TestSessionRoutes:
    def test_session_lifecycle_over_http(self):
        scan = _scan()
        with ServerHandle(_config()) as handle:
            port = handle.port
            status, _, snapshot = _request(
                port,
                "POST",
                "/v1/sessions",
                json.dumps({"tag": "PALLET-9", "antenna": "A1"}).encode(),
            )
            assert status == 201
            assert snapshot["state"] == "warming"
            sid = snapshot["session_id"]

            status, _, result = _request(
                port, "POST", f"/v1/sessions/{sid}/reads", _ndjson(scan, 0, 400)
            )
            assert status == 200
            assert result["accepted"] == 400
            kinds = [event["kind"] for event in result["events"]]
            assert kinds[0] == "tag_entered"
            assert "position_updated" in kinds
            assert result["estimate"] is not None

            status, _, snapshot = _request(port, "GET", f"/v1/sessions/{sid}")
            assert status == 200
            assert snapshot["reads"] == 400
            assert snapshot["state"] in ("tracking", "settled")

            # served estimate is the library's own answer, bit for bit
            session = handle.server.sessions.get_session(sid)
            name, config, request = session.build_resolve_request()
            oneshot = estimate(name, request, config)
            final = session.final_resolve()
            assert np.array_equal(final.position, oneshot.position)

            # /metrics is Prometheus text — fetch raw
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
            conn.close()
            assert "lion_serve_stream_sessions_active" in text
            assert "lion_serve_stream_reads_total" in text
            assert 'lion_serve_stream_events_total{kind="tag_entered"}' in text

            status, _, statz = _request(port, "GET", "/statz")
            assert status == 200
            assert statz["sessions"]["active"] == 1
            assert statz["sessions"]["reads"] == 400

            status, _, closed = _request(port, "DELETE", f"/v1/sessions/{sid}")
            assert status == 200
            assert closed["events"][-1]["kind"] == "tag_departed"

            status, _, error = _request(port, "GET", f"/v1/sessions/{sid}")
            assert status == 404
            assert error["error"]["kind"] == "unknown_session"

    def test_error_taxonomy(self):
        with ServerHandle(_config(max_sessions=2)) as handle:
            port = handle.port
            create = json.dumps({"tag": "T1"}).encode()
            status, _, _ = _request(port, "POST", "/v1/sessions", create)
            assert status == 201

            # duplicate (tag, antenna) key
            status, _, error = _request(port, "POST", "/v1/sessions", create)
            assert status == 409
            assert error["error"]["kind"] == "duplicate_session"

            status, _, _ = _request(
                port, "POST", "/v1/sessions", json.dumps({"tag": "T2"}).encode()
            )
            assert status == 201

            # capacity: a third tag is shed with Retry-After
            status, headers, error = _request(
                port, "POST", "/v1/sessions", json.dumps({"tag": "T3"}).encode()
            )
            assert status == 429
            assert error["error"]["kind"] == "session_capacity"
            assert "Retry-After" in headers
            assert error["retry_after_s"] > 0

            # malformed create / feed bodies
            status, _, error = _request(port, "POST", "/v1/sessions", b"not json")
            assert status == 400
            status, _, error = _request(
                port, "POST", "/v1/sessions/nope/reads", b'{"bad": 1}'
            )
            assert status == 400

            # unknown session id
            status, _, error = _request(
                port,
                "POST",
                "/v1/sessions/nope/reads",
                b'{"t": 0.0, "position": [0.1, 0.2], "phase": 1.0}',
            )
            assert status == 404
            assert error["error"]["kind"] == "unknown_session"

            # wrong verbs
            status, _, _ = _request(port, "PUT", "/v1/sessions")
            assert status == 405
            status, _, _ = _request(port, "GET", "/v1/sessions/nope/reads")
            assert status == 405
            status, _, _ = _request(port, "GET", "/v1/sessions/a/b/c/d")
            assert status == 404

    def test_session_traffic_leaves_no_trace_roots(self):
        # Session re-solves run in the front-end process. With tracing on
        # (the default), their spans finish as trace roots that no worker
        # claims; the server must drain them, not keep one per re-solve.
        from repro.obs import disable_tracing, get_trace, reset_tracing

        scan = _scan()
        reset_tracing()
        try:
            with ServerHandle(_config()) as handle:
                port = handle.port
                for cycle in range(30):
                    status, _, snapshot = _request(
                        port,
                        "POST",
                        "/v1/sessions",
                        json.dumps({"tag": f"ROOTS-{cycle}"}).encode(),
                    )
                    assert status == 201
                    sid = snapshot["session_id"]
                    status, _, _ = _request(
                        port, "POST", f"/v1/sessions/{sid}/reads", _ndjson(scan, 0, 100)
                    )
                    assert status == 200
                    status, _, _ = _request(port, "DELETE", f"/v1/sessions/{sid}")
                    assert status == 200
                stats = handle.server.sessions.stats()
                assert stats["resolves_direct"] >= 60  # one per feed, one per close
                assert len(get_trace()) <= 2
        finally:
            disable_tracing()
            reset_tracing()

    def test_session_aware_drain(self):
        scan = _scan()
        with ServerHandle(_config()) as handle:
            port = handle.port
            status, _, snapshot = _request(
                port,
                "POST",
                "/v1/sessions",
                json.dumps({"tag": "DRAINED"}).encode(),
            )
            assert status == 201
            sid = snapshot["session_id"]
            status, _, _ = _request(
                port, "POST", f"/v1/sessions/{sid}/reads", _ndjson(scan, 0, 300)
            )
            assert status == 200

            handle.stop()
            summary = handle.server.session_drain
            assert summary == {"sessions_drained": 1, "final_resolves": 1}

    def test_draining_sheds_creates_and_feeds_with_503(self):
        import threading
        import time

        with ServerHandle(_config(drain_grace_s=1.0)) as handle:
            port = handle.port
            status, _, snapshot = _request(
                port, "POST", "/v1/sessions", json.dumps({"tag": "T"}).encode()
            )
            assert status == 201
            sid = snapshot["session_id"]

            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            try:
                deadline = time.monotonic() + 5.0
                status = None
                while time.monotonic() < deadline:
                    status, _, error = _request(
                        port,
                        "POST",
                        "/v1/sessions",
                        json.dumps({"tag": "LATE"}).encode(),
                    )
                    if status == 503:
                        break
                    time.sleep(0.02)
                assert status == 503
                assert error["error"]["kind"] == "draining"

                status, _, error = _request(
                    port,
                    "POST",
                    f"/v1/sessions/{sid}/reads",
                    b'{"t": 0.0, "position": [0.1, 0.2], "phase": 1.0}',
                )
                assert status == 503
                assert error["error"]["kind"] == "draining"
            finally:
                stopper.join(timeout=30.0)

    def test_timeseries_carries_session_fields(self):
        with ServerHandle(_config(history_cadence_s=0.05)) as handle:
            port = handle.port
            _request(
                port,
                "POST",
                "/v1/sessions",
                json.dumps({"tag": "TS"}).encode(),
            )
            import time

            deadline = time.monotonic() + 5.0
            sample = None
            while time.monotonic() < deadline:
                status, _, payload = _request(port, "GET", "/debug/timeseries")
                assert status == 200
                samples = payload.get("samples", [])
                if samples:
                    sample = samples[-1]
                    if sample.get("sessions"):
                        break
                time.sleep(0.05)
            assert sample is not None
            assert "sessions" in sample
            assert "stream_reads_s" in sample
            assert "stream_events_s" in sample
            assert sample["sessions"] == 1
