"""Tests of the serving benchmark itself.

Run from the repository root::

    python3 -m pytest servebench/tests -q

The smoke and interruption tests start real ``lion serve`` processes and
take a few minutes; the scoring tests are pure and fast.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from httpload import ClosedSource, Exchange, LoadClient, LoadRun, Op  # noqa: E402
from serverproc import descendants, session_members  # noqa: E402

import run as bench  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def _start(workload: str, seconds: float, trace: int = 0, cwd: Path = ROOT) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "servebench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def _wait_for(process: subprocess.Popen, marker: str, timeout: float = 180.0) -> list:
    """Read stdout lines until one contains ``marker``; returns the lines read."""
    lines = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line)
        if marker in line:
            return lines
    raise AssertionError(f"no {marker!r} line; got {lines} / {process.stderr.read()[-2000:]}")


def _server_pids(lines: list) -> list:
    return [int(line.rsplit("pid=", 1)[1]) for line in lines if "pid=" in line]


def _assert_nothing_left(bench_pid: int, server_pids: list, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        left = session_members(bench_pid) + descendants(bench_pid)
        for pid in server_pids:
            left += session_members(pid)
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    assert not left, f"processes outlived the run: {sorted(set(left))}"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    process = _start(workload, seconds=1.0, trace=trace)
    stdout, stderr = process.communicate(timeout=600)
    assert process.returncode == 0, stderr[-3000:]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    assert all(np.isfinite(metric["value"]) for metric in result["metrics"].values())
    _assert_nothing_left(process.pid, _server_pids(stdout.splitlines()))


@pytest.mark.parametrize(
    ("signum", "marker"),
    [
        (signal.SIGTERM, "window 2/3 open"),
        (signal.SIGINT, "window 1/3 open"),
        (signal.SIGTERM, "ladder supervisor up"),
    ],
)
def test_interrupted_run_leaves_no_process(signum: int, marker: str) -> None:
    trace = int(marker.startswith("ladder"))
    process = _start("survey", seconds=2.0 if trace else 60.0, trace=trace)
    lines = _wait_for(process, marker)
    os.kill(process.pid, signum)
    stdout, _ = process.communicate(timeout=120)
    assert process.returncode == 128 + signum
    assert '"metrics"' not in stdout
    _assert_nothing_left(process.pid, _server_pids(lines))


def test_killed_run_leaves_no_process() -> None:
    """SIGKILL cannot be handled: the server drains on its parent-death signal."""
    process = _start("portal", seconds=60.0)
    lines = _wait_for(process, "window 1/3 open")
    process.kill()
    process.communicate(timeout=60)
    _assert_nothing_left(process.pid, _server_pids(lines), timeout=60.0)


def test_run_without_the_program_fails(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "servebench", ignore=shutil.ignore_patterns("__pycache__"))
    process = _start("portal", seconds=1.0, cwd=tmp_path)
    stdout, _ = process.communicate(timeout=180)
    assert process.returncode != 0
    assert '"metrics"' not in stdout


def _exchange(op: Op, body: bytes, status: int = 200, latency_s: float = 0.004) -> Exchange:
    exchange = Exchange(op=op, conn=0, ready=0.0, sent=0.0, start=0.0)
    exchange.head = f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}".encode()
    exchange.status = status
    exchange.body = body
    exchange.done = latency_s
    return exchange


def test_corrupted_response_counts_as_failed_not_timed(tmp_path: Path) -> None:
    portal = workloads.Portal(seed=5, seconds=1.0, workdir=tmp_path)
    infos = portal.make(6)
    ops = [workloads.locate_op(index, info) for index, info in enumerate(infos)]
    answers = [portal.expected_position(info) for info in infos]

    def answer(position) -> bytes:
        return json.dumps({"estimator": "lion", "position": list(position), "server_ms": 1.0}).encode()

    nudged = answers[2].copy()
    nudged[0] = np.nextafter(nudged[0], 1.0)
    exchanges = [
        _exchange(ops[0], answer(answers[0])),
        _exchange(ops[1], answer(answers[1])[:-7], latency_s=9.0),
        _exchange(ops[2], answer(nudged), latency_s=9.0),
        _exchange(ops[3], b'{"error": {"kind": "internal"}}', status=500, latency_s=9.0),
        _exchange(ops[4], answer(answers[4])),
        _exchange(ops[5], answer(answers[5])),
    ]
    run = LoadRun(started=0.0, ended=1.0, exchanges=exchanges, unsent=[ops[0]])
    verdicts = portal.check(exchanges)
    assert [verdict.ok for verdict in verdicts] == [True, False, False, False, True, True]
    scored = bench.score(portal, [run], verdicts)
    assert (scored.attempted, scored.failed, scored.wrong) == (7, 4, 3)
    assert scored.latencies_ms == pytest.approx([4.0, 4.0, 4.0])
    assert len(scored.errors_mm) == 3


def _http_response(body: bytes, status: int = 200) -> bytes:
    return f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body


def _serve_canned(listener: socket.socket, responses: list) -> None:
    """Answer each request, on whatever connection it comes, with the next response."""
    while responses:
        conn, _ = listener.accept()
        with conn:
            buffer = b""
            while responses:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                buffer += chunk
                end = buffer.find(b"\r\n\r\n")
                if end < 0:
                    continue
                length = 0
                for line in buffer[:end].split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                if len(buffer) >= end + 4 + length:
                    buffer = buffer[end + 4 + length:]
                    conn.sendall(responses.pop(0))


def test_malformed_response_on_the_wire_counts_as_failed_not_timed(tmp_path: Path) -> None:
    portal = workloads.Portal(seed=5, seconds=1.0, workdir=tmp_path)
    infos = portal.make(4)
    ops = [workloads.locate_op(index, info) for index, info in enumerate(infos)]

    def answer(info) -> bytes:
        position = portal.expected_position(info).tolist()
        return json.dumps({"estimator": "lion", "position": position, "server_ms": 1.0}).encode()

    responses = [
        _http_response(answer(infos[0])),
        b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\n" + answer(infos[1]),
        b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\n{}",
        _http_response(answer(infos[3])),
    ]
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(30.0)
        server = threading.Thread(target=_serve_canned, args=(listener, responses), daemon=True)
        server.start()
        with LoadClient(listener.getsockname()[1], connections=1) as client:
            run = client.run(ClosedSource([iter(ops)]), None)
        server.join(30.0)
    assert [exchange.op.index for exchange in run.exchanges] == [0, 1, 2, 3]
    assert [exchange.error.startswith("malformed response") for exchange in run.exchanges] == [
        False, True, True, False
    ]
    verdicts = portal.check(run.exchanges)
    assert [verdict.ok for verdict in verdicts] == [True, False, False, True]
    run.started, run.ended = run.exchanges[0].sent, run.exchanges[-1].done
    scored = bench.score(portal, [run], verdicts)
    assert (scored.attempted, scored.failed) == (4, 2)
    assert len(scored.latencies_ms) == 2
