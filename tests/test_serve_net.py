"""Networked sharded serving: wire contract, routing, lifecycle, drain.

The front end's contract mirrors the engine's: putting HTTP and a shard
supervisor in front of ``estimate()`` changes nothing observable except
wall-clock. Positions round-trip float64 exactly (bit-identical to the
in-process answer), failures map to a fixed ``(status, kind)`` taxonomy,
shard routing is a stable digest (pinned here against accidental
re-keying), and a graceful drain answers every accepted request before
the process exits. Thread-mode workers keep most tests in-process and
fast; one process-mode test covers the spawn + shared-memory + metrics
merge path end-to-end.
"""

import asyncio
import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.pipeline import EstimationReport, EstimationRequest, create_estimator, estimate
from repro.serve import execute_batch
from repro.serve.bench import build_requests
from repro.serve.net import (
    BadRequestError,
    LocateCall,
    NetServeConfig,
    NetServer,
    ServerHandle,
    WireRequest,
    WireResponse,
    WorkerConfig,
    encode_report_payload,
    parse_locate_body,
    shard_for,
    worker_main,
)
from repro.serve.net.protocol import ARRAY_FIELDS, SCALAR_FIELDS, STRING_TUPLE_FIELDS
from repro.serve.net.worker import report_payload

#: Any JSON value the wire can carry. Python's ``json`` reads integers of
#: any size and ``NaN`` / ``Infinity`` too, so both are in.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

#: A locate body whose request fields and serving controls hold any JSON.
_LOCATE_BODY = st.builds(
    lambda fields, controls: {"estimator": "lion", "request": fields, **controls},
    st.dictionaries(
        st.sampled_from(ARRAY_FIELDS + SCALAR_FIELDS + STRING_TUPLE_FIELDS),
        _JSON,
        max_size=4,
    ),
    st.fixed_dictionaries(
        {},
        optional={"config": _JSON, "deadline_ms": _JSON, "include_residuals": _JSON},
    ),
)

#: 400 nines: out of float range, and of every integer dtype.
_HUGE = "9" * 400


def _scan(seed=0, reads=64):
    return build_requests(1, reads, seed=seed)[0]


def _lion_body(seed=0, reads=64, **extra):
    scan = _scan(seed, reads)
    body = {
        "estimator": "lion",
        "request": {
            "positions": scan.positions.tolist(),
            "phases_rad": scan.phases_rad.tolist(),
        },
    }
    body.update(extra)
    return json.dumps(body).encode()


def _circle_body(seed=14, reads=240):
    """A full-rank 2D scan (a 0.3 m circle), unlike the line of ``_scan``."""
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.0, TWO_PI, reads, endpoint=False)
    positions = 0.3 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    distances = np.linalg.norm(positions - np.array([0.08, 0.85]), axis=1)
    phases = np.mod(
        2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * distances
        + 0.4
        + rng.normal(0.0, 0.05, reads),
        TWO_PI,
    )
    body = {
        "estimator": "lion",
        "request": {"positions": positions.tolist(), "phases_rad": phases.tolist()},
    }
    request = EstimationRequest(positions=positions, phases_rad=phases)
    return request, json.dumps(body).encode()


def _hologram_body(seed=0, reads=200, grid=0.01, **extra):
    scan = _scan(seed, reads)
    body = {
        "estimator": "hologram",
        "config": {"grid_size_m": grid},
        "request": {
            "positions": scan.positions.tolist(),
            "phases_rad": scan.phases_rad.tolist(),
            "bounds": [[-0.4, 0.4], [0.5, 1.3]],
        },
    }
    body.update(extra)
    return json.dumps(body).encode()


def _post(port, body, method="POST", path="/v1/locate", headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        conn.close()


def _get(port, path):
    status, _, raw = _post(port, None, method="GET", path=path)
    return status, json.loads(raw) if raw.startswith(b"{") else raw


def _thread_config(**overrides):
    defaults = dict(
        port=0,
        shards=2,
        worker_mode="thread",
    )
    defaults.update(overrides)
    return NetServeConfig(**defaults)


class TestParseLocateBody:
    def test_full_body_parses(self):
        call = parse_locate_body(_lion_body(deadline_ms=250, include_residuals=True))
        assert call.estimator == "lion"
        assert call.config is None
        assert call.arrays["positions"].shape[1] == 2
        assert call.arrays["phases_rad"].dtype == np.float64
        assert call.deadline_s == pytest.approx(0.25)
        assert call.include_residuals is True

    def test_bounds_become_float_tuples(self):
        call = parse_locate_body(_hologram_body())
        assert call.scalars["bounds"] == ((-0.4, 0.4), (0.5, 1.3))

    def test_max_deadline_clamps(self):
        call = parse_locate_body(_lion_body(deadline_ms=60_000), max_deadline_s=2.0)
        assert call.deadline_s == 2.0
        call = parse_locate_body(_lion_body(), max_deadline_s=2.0)
        assert call.deadline_s == 2.0

    @pytest.mark.parametrize(
        "raw",
        [
            b"not json",
            b"[1, 2]",
            b'{"request": {"positions": []}}',
            b'{"estimator": "", "request": {}}',
            b'{"estimator": "lion", "config": 7, "request": {}}',
            b'{"estimator": "lion", "request": []}',
            b'{"estimator": "lion", "request": {"positions": [], "beams": 3}}',
            b'{"estimator": "lion", "request": {"positions": [["x", 1]]}}',
            b'{"estimator": "lion", "request": {"bounds": 4}}',
            # Numbers out of range for their field, and nesting too deep.
            pytest.param(
                b'{"estimator": "lion", "request": {"segment_ids": [1e400]}}',
                id="inf-segment-id",
            ),
            pytest.param(
                f'{{"estimator": "lion", "request": {{"phases_rad": [{_HUGE}]}}}}'.encode(),
                id="huge-phase",
            ),
            pytest.param(
                f'{{"estimator": "lion", "request": {{"run_ids": [{_HUGE}]}}}}'.encode(),
                id="huge-run-id",
            ),
            pytest.param(
                f'{{"estimator": "lion", "request": {{"bounds": [[{_HUGE}, 1]]}}}}'.encode(),
                id="huge-bound",
            ),
            pytest.param(b"[" * 100_000, id="deep-nesting"),
        ],
    )
    def test_malformed_bodies_rejected(self, raw):
        with pytest.raises(BadRequestError):
            parse_locate_body(raw)

    @pytest.mark.parametrize(
        "deadline",
        ["soon", True, 0, -5, pytest.param(10**400, id="huge"), float("nan")],
    )
    def test_bad_deadline_rejected(self, deadline):
        body = json.loads(_lion_body())
        body["deadline_ms"] = deadline
        with pytest.raises(BadRequestError):
            parse_locate_body(json.dumps(body).encode())

    def test_bad_include_residuals_rejected(self):
        with pytest.raises(BadRequestError):
            parse_locate_body(_lion_body(include_residuals="yes"))

    @settings(max_examples=400, deadline=None)
    @given(body=_JSON | _LOCATE_BODY)
    def test_any_body_parses_or_is_a_bad_request(self, body):
        try:
            call = parse_locate_body(json.dumps(body).encode(), max_deadline_s=5.0)
        except BadRequestError:
            return
        assert isinstance(call, LocateCall)


class TestShardRouting:
    def test_pinned_digest_values(self):
        # Routing is part of the operational contract (which worker owns
        # which traffic); these literals fail if the digest is re-keyed.
        assert [shard_for("lion", "aaaa", s) for s in (1, 2, 4, 8, 16)] == [0, 1, 3, 3, 11]
        assert [shard_for("hologram", "aaaa", s) for s in (2, 4, 8)] == [0, 2, 2]
        assert [shard_for("lion", "bbbb", s) for s in (2, 4, 8)] == [0, 0, 0]

    def test_deterministic_and_in_range(self):
        for shards in (1, 3, 7):
            for salt in range(32):
                shard = shard_for("lion", f"cfg{salt}", shards)
                assert 0 <= shard < shards
                assert shard == shard_for("lion", f"cfg{salt}", shards)

    def test_estimator_is_part_of_the_key(self):
        spread = {shard_for(name, "samehash", 8) for name in ("lion", "hologram", "angle")}
        assert len(spread) > 1

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_for("lion", "aaaa", 0)


class TestWorkerRoundtrip:
    def test_worker_main_in_thread_serves_and_drains(self):
        import multiprocessing

        parent, child = multiprocessing.Pipe()
        config = WorkerConfig(shard_index=3)
        thread = threading.Thread(target=worker_main, args=(child, config), daemon=True)
        thread.start()
        assert parent.recv() == ("ready", 3)

        scan = _scan(seed=5)
        parent.send(
            WireRequest(
                req_id=42,
                name="lion",
                config=None,
                specs={},
                inline={"positions": scan.positions, "phases_rad": scan.phases_rad},
                scalars={},
                deadline_epoch=None,
                include_residuals=True,
            )
        )
        response = parent.recv()
        assert isinstance(response, WireResponse)
        assert response.req_id == 42 and response.ok
        expected = estimate("lion", scan)
        assert np.array_equal(response.payload["position"], expected.position)
        assert response.payload["config_hash"] == expected.config_hash
        assert np.array_equal(response.payload["residuals"], expected.residuals)
        assert "raw" not in response.payload

        parent.send(("stats", 7))
        kind, mid, stats = parent.recv()
        assert (kind, mid) == ("stats_res", 7) and stats["completed"] == 1

        parent.send(("drain",))
        kind, stats = parent.recv()
        assert kind == "drained"
        assert stats["shard"] == 3 and stats["drained_clean"] is True
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_worker_reports_failure_payloads(self):
        import multiprocessing

        parent, child = multiprocessing.Pipe()
        config = WorkerConfig(shard_index=0)
        thread = threading.Thread(target=worker_main, args=(child, config), daemon=True)
        thread.start()
        assert parent.recv() == ("ready", 0)
        # Hologram without bounds fails inside the estimator: the worker
        # must answer with a structured error, never go silent.
        scan = _scan(seed=6)
        parent.send(
            WireRequest(
                req_id=1,
                name="hologram",
                config=None,
                specs={},
                inline={"positions": scan.positions, "phases_rad": scan.phases_rad},
                scalars={},
                deadline_epoch=None,
                include_residuals=False,
            )
        )
        response = parent.recv()
        assert not response.ok
        assert response.payload["kind"] == "estimation"
        assert response.payload["exc_type"]
        parent.send(("drain",))
        assert parent.recv()[0] == "drained"
        thread.join(timeout=10)


class TestHttpThreadMode:
    @pytest.fixture(scope="class")
    def server(self):
        with ServerHandle(_thread_config()) as handle:
            yield handle

    def test_health_and_ready(self, server):
        assert _get(server.port, "/healthz") == (200, {"status": "ok"})
        status, payload = _get(server.port, "/readyz")
        assert status == 200 and payload["shards"] == 2

    def test_locate_bit_identical_to_in_process(self, server):
        scan = _scan(seed=11)
        status, _, raw = _post(server.port, _lion_body(seed=11, include_residuals=True))
        assert status == 200
        payload = json.loads(raw)
        expected = estimate("lion", scan)
        assert payload["position"] == expected.position.tolist()
        assert payload["config_hash"] == expected.config_hash
        assert payload["residuals"] == np.asarray(expected.residuals).tolist()
        assert payload["reference_distance_m"] == expected.reference_distance_m
        assert payload["shard"] == shard_for("lion", expected.config_hash, 2)
        assert payload["server_ms"] >= 0

    def test_locate_reports_position_std(self, server):
        # Full rank: the solver's per-axis sigma, as in process. A line
        # scan recovers its cross coordinate from d_r: null.
        request, body = _circle_body()
        status, _, raw = _post(server.port, body)
        assert status == 200
        sigma = json.loads(raw)["diagnostics"]["position_std_m"]
        assert sigma == estimate("lion", request).diagnostics["position_std_m"]
        assert len(sigma) == 2 and all(value > 0.0 for value in sigma)
        status, _, raw = _post(server.port, _lion_body(seed=15))
        assert status == 200
        assert json.loads(raw)["diagnostics"]["position_std_m"] is None

    def test_unknown_estimator_is_400(self, server):
        body = json.loads(_lion_body())
        body["estimator"] = "nope"
        status, _, raw = _post(server.port, json.dumps(body).encode())
        assert status == 400
        assert json.loads(raw)["error"]["kind"] == "bad_request"

    def test_estimation_failure_is_422(self, server):
        body = json.loads(_hologram_body())
        del body["request"]["bounds"]
        status, _, raw = _post(server.port, json.dumps(body).encode())
        assert status == 422
        error = json.loads(raw)["error"]
        assert error["kind"] == "estimation_failed" and error["exc_type"]

    def test_unknown_route_and_method(self, server):
        assert _post(server.port, None, method="GET", path="/nope")[0] == 404
        assert _post(server.port, None, method="DELETE", path="/healthz")[0] == 405

    def test_oversized_body_is_413(self, server):
        # The server rejects from the Content-Length header alone, before
        # (and without) reading the oversized body, so a plain client
        # mid-upload sees a reset; a raw socket reads the 413 directly.
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/locate HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 16777216\r\n\r\n"
            )
            assert sock.recv(65536).split(b"\r\n")[0] == b"HTTP/1.1 413 Payload Too Large"

    def test_statz_exposes_per_shard_stats(self, server):
        _post(server.port, _lion_body(seed=12))
        status, payload = _get(server.port, "/statz")
        assert status == 200
        assert payload["worker_mode"] == "thread" and payload["draining"] is False
        assert [entry["shard"] for entry in payload["per_shard"]] == [0, 1]
        assert sum(entry["submitted"] for entry in payload["per_shard"]) >= 1

    def test_deadline_already_expired_is_504(self, server):
        status, _, raw = _post(server.port, _lion_body(seed=13, deadline_ms=0.01))
        assert status == 504
        assert json.loads(raw)["error"]["kind"] == "deadline_exceeded"

    def test_max_deadline_is_the_default_deadline(self):
        # A body without ``deadline_ms`` gets ``max_deadline_s`` as its
        # deadline, enforced by the worker's engine like a sent one.
        with ServerHandle(_thread_config(shards=1, max_deadline_s=1e-5)) as handle:
            status, _, raw = _post(handle.port, _lion_body(seed=17))
        assert status == 504
        assert json.loads(raw)["error"]["kind"] == "deadline_exceeded"


class TestFloat32Locate:
    def test_float32_answers_carry_null_position_std(self):
        # The float32 batch path reports no standard error, so its
        # answers carry ``position_std_m: null`` on the wire, full-rank
        # scan or not.
        requests = [_circle_body()[0], _scan(seed=16)]
        reports = execute_batch(create_estimator("lion", None), requests, dtype="float32")
        for report in reports:
            assert isinstance(report, EstimationReport)
            body = encode_report_payload(report_payload(report, False), 0, 1.0)
            diagnostics = json.loads(json.dumps(body))["diagnostics"]
            assert "position_std_m" in diagnostics
            assert diagnostics["position_std_m"] is None


class TestBackpressure:
    def test_inflight_cap_returns_429_with_retry_after(self):
        config = _thread_config(
            shards=1, max_inflight_per_shard=1, retry_after_s=0.25
        )
        with ServerHandle(config) as handle:
            # Fire 6 expensive solves at once against a cap of 1: the
            # first occupies the shard for ~300 ms while the rest arrive
            # within milliseconds, so overlap — and shedding — is
            # guaranteed without racing sequential clients.
            results = []
            lock = threading.Lock()

            def fire(seed):
                outcome = _post(handle.port, _hologram_body(seed=seed, reads=300))
                with lock:
                    results.append(outcome)

            threads = [
                threading.Thread(target=fire, args=(seed,), daemon=True)
                for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            statuses = sorted(status for status, _, _ in results)
            assert statuses.count(200) >= 1
            assert statuses.count(429) >= 1
            _, headers, raw = next(entry for entry in results if entry[0] == 429)
            # Retry-After is integer seconds by spec, and never 0 (which
            # clients read as "immediately").
            assert headers["Retry-After"] == "1"
            body = json.loads(raw)
            assert body["error"]["kind"] == "queue_full"
            assert body["retry_after_s"] == 0.25


class _WatchedEvent(asyncio.Event):
    """An ``asyncio.Event`` that reports when someone first waits on it."""

    def __init__(self):
        super().__init__()
        self.awaited = asyncio.Event()

    async def wait(self):
        self.awaited.set()
        return await super().wait()


async def _drain_race():
    """Script three exchanges around ``shutdown()``.

    A is in flight when the drain starts. B starts on a second
    connection after A finishes but before ``shutdown()`` resumes. C's
    request is read only after the drain has closed its connection. The
    dispatch and the request reader are replaced, so the schedule is fixed
    by the event loop's order alone: no timing is involved.

    Returns:
        The paths dispatched, and each connection's status line (empty
        when the connection closed without an answer).
    """
    server = NetServer(_thread_config(shards=1))
    server._idle = idle = _WatchedEvent()
    idle.set()
    a_dispatched, release_a = asyncio.Event(), asyncio.Event()
    gates = {"/b": asyncio.Event(), "/c": asyncio.Event()}
    dispatched = []
    read_request = server._read_request

    async def gated_read(reader):
        parsed = await read_request(reader)
        if parsed is not None and parsed[1] in gates:
            await gates[parsed[1]].wait()
        return parsed

    async def scripted_dispatch(method, path, headers, body):
        dispatched.append(path)
        if path == "/a":
            a_dispatched.set()
            await release_a.wait()
            # B's exchange becomes runnable before A's marks the server
            # idle, so B starts before shutdown() resumes.
            gates["/b"].set()
        elif path == "/b":
            # Yield the loop long enough for shutdown() to run past its
            # wait while B's answer is still owed.
            for _ in range(20):
                await asyncio.sleep(0)
        return 200, {"path": path}, None

    server._read_request = gated_read
    server._dispatch = scripted_dispatch
    await server.start()
    streams = {
        path: await asyncio.open_connection("127.0.0.1", server.port) for path in ("/a", "/b", "/c")
    }
    for path, (_, writer) in streams.items():
        writer.write(f"POST {path} HTTP/1.1\r\nContent-Length: 0\r\n\r\n".encode())
    # The timeouts only keep a broken server from hanging the suite.
    await asyncio.wait_for(a_dispatched.wait(), 30.0)
    shutdown = asyncio.create_task(server.shutdown())
    await asyncio.wait_for(idle.awaited.wait(), 30.0)
    release_a.set()
    await shutdown
    gates["/c"].set()
    for _ in range(1000):  # bounded, so a stuck handler cannot hang the test
        if not server._connections:
            break
        await asyncio.sleep(0)
    answers = {path: (await reader.read())[:12] for path, (reader, _) in streams.items()}
    for _, writer in streams.values():
        writer.close()
    return dispatched, answers


class TestGracefulDrain:
    def test_readyz_flips_before_listener_closes(self):
        with ServerHandle(_thread_config(shards=1, drain_grace_s=1.0)) as handle:
            assert _get(handle.port, "/readyz")[0] == 200
            handle.request_shutdown()
            # During the grace window the listener still accepts
            # connections (load balancers need the 503 answer to stop
            # routing here) but readiness is already withdrawn.
            deadline = time.monotonic() + 0.9
            saw_draining = False
            while time.monotonic() < deadline:
                status, payload = _get(handle.port, "/readyz")
                if status == 503:
                    assert payload["status"] == "draining"
                    saw_draining = True
                    break
            assert saw_draining
            stats = handle.stop()
            assert all(entry["drained_clean"] for entry in stats)

    def test_drain_mid_burst_loses_no_accepted_request(self):
        config = _thread_config(shards=2)
        with ServerHandle(config) as handle:
            port = handle.port
            statuses = []
            lock = threading.Lock()

            def client(worker):
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                for index in range(50):
                    try:
                        conn.request(
                            "POST", "/v1/locate", body=_lion_body(seed=100 * worker + index)
                        )
                        response = conn.getresponse()
                        raw = response.read()
                    except OSError:
                        return  # connection refused/closed after drain: fine
                    with lock:
                        statuses.append(response.status)
                    if response.status == 200:
                        # Accepted answers must be complete, valid reports.
                        assert len(json.loads(raw)["position"]) == 2
                    else:
                        # The only legal rejection mid-drain is a clean 503.
                        assert response.status == 503
                        return
                    if response.getheader("Connection") == "close":
                        conn.close()
                        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

            workers = [
                threading.Thread(target=client, args=(i,), daemon=True) for i in range(4)
            ]
            for worker in workers:
                worker.start()
            time.sleep(0.3)  # let the burst get going before pulling the plug
            stats = handle.stop()
            for worker in workers:
                worker.join(timeout=60)
            completed = sum(entry["completed"] for entry in stats)
            ok = sum(1 for status in statuses if status == 200)
            assert ok > 0
            # Every accepted request got its answer: the engines completed
            # exactly the requests whose 200 reached a client, and every
            # shard drained clean (no batcher thread abandoned mid-batch).
            assert completed == ok
            assert all(entry["drained_clean"] for entry in stats)

    def test_drain_answers_an_exchange_started_as_the_server_went_idle(self):
        """Deterministic replay of a drain race that lost accepted answers.

        Exchange A finishes while ``shutdown()`` waits for the server to go
        idle, and exchange B starts on a second connection before
        ``shutdown()`` resumes. B reached dispatch, so it must get its
        answer before its connection closes. C's request is read after
        the drain closed its connection, so it must never be dispatched.
        """
        dispatched, answers = asyncio.run(_drain_race())
        assert dispatched == ["/a", "/b"]
        assert answers == {"/a": b"HTTP/1.1 200", "/b": b"HTTP/1.1 200", "/c": b""}

    def test_stop_is_idempotent(self):
        handle = ServerHandle(_thread_config(shards=1))
        handle.start()
        first = handle.stop()
        assert first is not None
        assert handle.stop() == first


class TestProcessMode:
    def test_process_workers_e2e_with_per_shard_metrics(self):
        config = NetServeConfig(
            port=0,
            shards=2,
            worker_mode="process",
            # Force the shared-memory request path for one of the posts.
            shm_threshold_bytes=1024,
        )
        with ServerHandle(config) as handle:
            scan = _scan(seed=21, reads=400)
            status, _, raw = _post(handle.port, _lion_body(seed=21, reads=400))
            assert status == 200
            payload = json.loads(raw)
            expected = estimate("lion", scan)
            assert payload["position"] == expected.position.tolist()
            assert payload["config_hash"] == expected.config_hash

            status, _, raw = _post(handle.port, None, method="GET", path="/metrics")
            assert status == 200
            text = raw.decode()
            # Worker metrics merge into one exporter, stamped per shard.
            assert 'shard="0"' in text or 'shard="1"' in text
            assert "lion_serve_net_requests_total" in text
            assert "lion_serve_net_shard_requests_total" in text
            stats = handle.stop()
            assert [entry["shard"] for entry in stats] == [0, 1]
            assert all(entry["drained_clean"] for entry in stats)


def _span_names_and_pids(trace_dict):
    names, pids = set(), set()

    def walk(node):
        names.add(node["name"])
        if node.get("pid"):
            pids.add(node["pid"])
        for child in node.get("children", []):
            walk(child)

    walk(trace_dict)
    return names, pids


class TestRequestTracing:
    def test_stitched_trace_timeseries_and_slo_process_mode(self):
        config = NetServeConfig(
            port=0,
            shards=2,
            worker_mode="process",
            recorder_slow_ms=0.0,  # record every request
            history_cadence_s=0.05,
        )
        with ServerHandle(config) as handle:
            status, headers, raw = _post(
                handle.port,
                _lion_body(seed=3),
                headers={"X-Request-Id": "itest-trace-1"},
            )
            assert status == 200
            payload = json.loads(raw)
            # The caller-supplied id is echoed in header and body.
            assert headers["X-Request-Id"] == "itest-trace-1"
            assert payload["request_id"] == "itest-trace-1"
            for seed in range(4, 10):  # burst for the timeseries
                status, _, _ = _post(handle.port, _lion_body(seed=seed))
                assert status == 200

            # One stitched trace: ingress and shard-route spans from the
            # server process, the lone request's scalar dispatch and its
            # solve spans from the worker.
            status, recorder = _get(handle.port, "/debug/traces")
            assert status == 200
            ours = [
                entry
                for entry in recorder["traces"]
                if entry["request_id"] == "itest-trace-1"
            ]
            assert len(ours) == 1
            assert ours[0]["status"] == 200 and ours[0]["route"] == "/v1/locate"
            names, pids = _span_names_and_pids(ours[0]["trace"])
            assert {"serve.net.ingress", "serve.net.route", "serve.scalar", "solve"} <= names
            assert len(pids) >= 2  # spans crossed the process boundary
            assert recorder["stats"]["recorded"] >= 7

            time.sleep(0.25)  # let the sampler tick past the burst
            status, series = _get(handle.port, "/debug/timeseries?window=60")
            assert status == 200
            assert series["samples"]
            assert sum(row["req_s"] for row in series["samples"]) > 0

            status, slo = _get(handle.port, "/slo")
            assert status == 200
            assert slo["route"] == "/v1/locate"
            assert slo["state"] in ("ok", "burning")
            by_kind = {entry["kind"]: entry for entry in slo["objectives"]}
            # No request errored, so the error budget is intact.
            assert by_kind["error_rate"]["state"] == "ok"
            assert by_kind["error_rate"]["budget_remaining"] == 1.0
            assert 0.0 <= by_kind["latency"]["budget_remaining"] <= 1.0

    def test_tracing_disabled_records_nothing(self):
        # Thread-mode servers share this process's tracing flag; a
        # previous tracing-enabled server leaves it on, so clear it.
        from repro.obs import disable_tracing, reset_request_spans, reset_tracing

        disable_tracing()
        reset_tracing()
        reset_request_spans()
        config = _thread_config(shards=1, tracing=False, recorder_slow_ms=0.0)
        with ServerHandle(config) as handle:
            status, headers, raw = _post(
                handle.port, _lion_body(seed=5), headers={"X-Request-Id": "no-trace"}
            )
            assert status == 200
            # Ids still flow with tracing off...
            assert headers["X-Request-Id"] == "no-trace"
            assert json.loads(raw)["request_id"] == "no-trace"
            # ...but the flight recorder stays empty.
            status, recorder = _get(handle.port, "/debug/traces")
            assert status == 200
            assert recorder["traces"] == []
            assert recorder["stats"]["considered"] == 0


class TestShardRestart:
    def test_metrics_merge_survives_worker_restart(self):
        config = NetServeConfig(
            port=0,
            shards=2,
            worker_mode="process",
        )
        with ServerHandle(config) as handle:
            status, _, raw = _post(handle.port, _lion_body(seed=11))
            assert status == 200
            shard = int(json.loads(raw)["shard"])

            handle.server.supervisor.restart_shard(shard)

            # The replacement worker serves the same traffic...
            status, _, raw = _post(handle.port, _lion_body(seed=12))
            assert status == 200
            assert int(json.loads(raw)["shard"]) == shard

            # ...and the merged exporter still carries its shard label.
            status, _, raw = _post(handle.port, None, method="GET", path="/metrics")
            assert status == 200
            text = raw.decode()
            assert f'shard="{shard}"' in text
            assert "lion_serve_net_shard_requests_total" in text

            status, statz = _get(handle.port, "/statz")
            assert status == 200
            assert statz["shards"] == 2
            assert sorted(s["shard"] for s in statz["per_shard"]) == [0, 1]
            assert statz["draining"] is False

            stats = handle.stop()
            assert [entry["shard"] for entry in stats] == [0, 1]
            assert all(entry["drained_clean"] for entry in stats)

    def test_restart_shard_rejects_bad_index(self):
        config = _thread_config(shards=1)
        with ServerHandle(config) as handle:
            with pytest.raises(RuntimeError):
                handle.server.supervisor.restart_shard(5)
