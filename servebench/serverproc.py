"""One ``lion serve`` process, started in its own session and stopped cleanly.

The server runs as ``python -m repro serve`` with the CLI defaults (one
process shard, float64, metrics and request tracing on, the result cache
on) on an ephemeral port. It is started with ``start_new_session=True``
so it leads its own session and process group: every process it spawns
(the shard worker, the multiprocessing resource tracker) stays in that
session and can be found in ``/proc`` even after it is re-parented.

Stopping follows the server's own drain protocol: SIGTERM, then wait for
the ``lion serve: drained [...]`` line, in which every shard must report
``drained_clean``. A drain that overruns its budget gets the whole
process group killed. :func:`session_members` and
:func:`descendants` let the caller prove that nothing is left behind.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Seconds to wait for the listening line and a 200 from ``/readyz``.
READY_TIMEOUT_S = 90.0

#: Seconds the SIGTERM drain may take before the process group is killed.
DRAIN_TIMEOUT_S = 45.0

#: Seconds to wait for session stragglers (worker, resource tracker) to exit
#: after the server itself has exited.
STRAGGLER_TIMEOUT_S = 10.0

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Child-side: get SIGTERM if the benchmark process dies first.

    Covers the one exit the benchmark cannot clean up after (SIGKILL):
    the server then drains and exits on its own instead of lingering.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _proc_stat(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read().decode("latin-1")
    except OSError:
        return None
    return data[data.rindex(")") + 2:].split()


def _all_pids() -> List[int]:
    return [int(entry) for entry in os.listdir("/proc") if entry.isdigit()]


def session_members(sid: int) -> List[int]:
    """Live processes (zombies included) whose session id is ``sid``."""
    members = []
    for pid in _all_pids():
        fields = _proc_stat(pid)
        if fields is not None and int(fields[3]) == sid:
            members.append(pid)
    return members


def descendants(root: int) -> List[int]:
    """Every process below ``root`` in the parent tree (zombies included)."""
    children: Dict[int, List[int]] = {}
    for pid in _all_pids():
        fields = _proc_stat(pid)
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(pid)
    found: List[int] = []
    stack = [root]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set size (``VmHWM``) of one process in KiB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def http_get(port: int, path: str, timeout: float = 10.0) -> tuple[int, bytes]:
    """One ``GET`` over a fresh loopback connection: ``(status, body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n".encode()
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head[9:12]), body


class LionServer:
    """A ``lion serve`` child process in its own session.

    Args:
        root: checkout root; ``src/`` is put on the child's ``PYTHONPATH``.
        workdir: the child's working directory; its stdout and stderr go to
            files there, so a chatty server can never block on a full pipe.
        label: file-name tag of this launch.
    """

    def __init__(self, root: Path, workdir: Path, label: str) -> None:
        self.root = root
        self.workdir = workdir
        self.label = label
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self._stdout_path = workdir / f"{label}.out"
        self._stderr_path = workdir / f"{label}.err"

    @property
    def pid(self) -> int:
        if self.process is None:
            raise RuntimeError("server not started")
        return self.process.pid

    def start(self) -> float:
        """Launch and wait for ``/readyz`` 200; returns the set-up seconds."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        with open(self._stdout_path, "wb") as stdout, open(self._stderr_path, "wb") as stderr:
            started = time.perf_counter()
            self.process = subprocess.Popen(
                command,
                cwd=self.workdir,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=stdout,
                stderr=stderr,
                start_new_session=True,
                preexec_fn=_die_with_parent,
            )
        deadline = started + READY_TIMEOUT_S
        while not self.port:
            self._check_alive()
            self.port = self._listening_port()
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{self.label}: no listening line within {READY_TIMEOUT_S}s")
            if not self.port:
                time.sleep(0.002)
        while True:
            self._check_alive()
            try:
                status, _ = http_get(self.port, "/readyz", timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                break
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{self.label}: /readyz not 200 within {READY_TIMEOUT_S}s")
            time.sleep(0.002)
        return time.perf_counter() - started

    def _check_alive(self) -> None:
        assert self.process is not None
        if self.process.poll() is not None:
            raise RuntimeError(
                f"{self.label}: server exited with {self.process.returncode}: "
                f"{self._stderr_path.read_text(errors='replace')[-2000:]}"
            )

    def _listening_port(self) -> int:
        """Port from a complete ``listening on http://127.0.0.1:<port> ...`` line."""
        marker = "listening on http://127.0.0.1:"
        text = self._stdout_path.read_text(errors="replace")
        for line in text.splitlines(keepends=True):
            if marker in line and line.endswith("\n"):
                return int(line.split(marker, 1)[1].split()[0])
        return 0

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server's session, in MiB."""
        return sum(vm_hwm_kb(pid) for pid in session_members(self.pid)) / 1024.0

    def stop(self) -> List[Dict[str, object]]:
        """SIGTERM drain; returns the per-shard drain stats.

        The server's multiprocessing resource tracker exits a moment after
        the server itself; :meth:`wait_gone` waits for it, so a run can
        check every launch's session once, at its end.

        Raises:
            RuntimeError: the drain overran (the group was killed) or a
                shard did not drain clean.
        """
        if self.process is None:
            return []
        problems: List[str] = []
        if self.process.poll() is None:
            try:
                os.kill(self.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                self.process.wait(DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                problems.append(f"drain overran {DRAIN_TIMEOUT_S}s; killed the process group")
                self.kill()
        stats = self._drained_stats()
        if stats is None:
            problems.append("no 'drained' line on stdout")
            stats = []
        unclean = [entry for entry in stats if not entry.get("drained_clean")]
        if unclean:
            problems.append(f"shards not drained clean: {unclean}")
        if problems:
            raise RuntimeError(f"{self.label}: " + "; ".join(problems))
        return stats

    def wait_gone(self) -> List[int]:
        """Wait for the server's session to empty; returns any survivors."""
        if self.process is None:
            return []
        deadline = time.monotonic() + STRAGGLER_TIMEOUT_S
        while True:
            left = session_members(self.pid)
            if not left or time.monotonic() > deadline:
                return left
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL the whole session's process group and reap the leader."""
        if self.process is None:
            return
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        for pid in session_members(self.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        try:
            self.process.wait(10.0)
        except subprocess.TimeoutExpired:
            pass

    def _drained_stats(self) -> Optional[List[Dict[str, object]]]:
        marker = "lion serve: drained "
        for line in self._stdout_path.read_text(errors="replace").splitlines():
            if line.startswith(marker):
                payload = json.loads(line[len(marker):])
                return payload if isinstance(payload, list) else None
        return None
