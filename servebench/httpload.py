"""Single-threaded loopback HTTP/1.1 load generator.

One thread drives a few keep-alive connections through ``selectors``.
Requests arrive pre-encoded (full request bytes), responses are kept as
raw bytes, and nothing is decoded while the window runs, so the client
spends as little CPU as possible on the cores it shares with the server.

Two arrival disciplines:

- :class:`ClosedSource` — one op stream per connection; a connection
  sends its next op as soon as its previous one completes.
- :class:`OpenSource` — one schedule of due times; any free connection
  sends the head of the queue once it is due. Latency then counts from
  the due time, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, List, Optional

#: Seconds to wait for in-flight exchanges once the window has closed.
DRAIN_TIMEOUT_S = 30.0

#: Open loop: an op due inside the window may still go out this long after
#: it closes (it was only waiting for a free connection); later, it counts
#: as left unsent.
GRACE_S = 1.0


@dataclass
class Op:
    """One pre-encoded HTTP exchange.

    Attributes:
        index: position in the workload's op list (unique per run).
        kind: workload-specific op kind (``locate``, ``feed``, ...).
        request: the full request bytes, without an ``X-Request-Id``.
        due: open loop only — seconds after the window start.
        info: what the checker needs (ground truth, expected version, ...).
    """

    index: int
    kind: str
    request: bytes
    due: float = 0.0
    info: Any = None


@dataclass
class Exchange:
    """One op as it went over the wire (times are ``perf_counter`` seconds)."""

    op: Op
    conn: int
    ready: float
    sent: float
    start: float
    request_id: str = ""
    done: float = 0.0
    status: int = 0
    head: bytes = b""
    body: bytes = b""
    error: str = ""

    @property
    def latency_s(self) -> float:
        """Client latency: completion minus ``start`` (due time or send time)."""
        return self.done - self.start

    @property
    def lag_s(self) -> float:
        """How late the generator sent after the op could have gone out."""
        return self.sent - self.ready


@dataclass
class LoadRun:
    """Everything one ``run`` produced."""

    started: float
    ended: float
    exchanges: List[Exchange] = field(default_factory=list)
    unsent: List[Op] = field(default_factory=list)
    exhausted: bool = False


class ClosedSource:
    """Per-connection op streams, each sent back to back."""

    def __init__(self, streams: List[Iterator[Op]]) -> None:
        self.streams = streams
        self.dry: set[int] = set()

    @property
    def exhausted(self) -> bool:
        """Some stream ran dry (a sizing error inside a measured window)."""
        return bool(self.dry)

    def drained(self, origin: float, end: float) -> bool:
        return len(self.dry) == len(self.streams)

    def take(self, conn: int, now: float, origin: float, end: float) -> Optional[Op]:
        op = next(self.streams[conn], None)
        if op is None:
            self.dry.add(conn)
        return op

    def next_due(self, origin: float) -> Optional[float]:
        return None

    def leftover(self, origin: float, end: float) -> List[Op]:
        return []


class OpenSource:
    """One schedule of ops, sent when due by whichever connection is free."""

    def __init__(self, ops: List[Op]) -> None:
        self.ops = sorted(ops, key=lambda op: op.due)
        self.position = 0
        self.exhausted = False

    def drained(self, origin: float, end: float) -> bool:
        """No op due before ``end`` is left to send."""
        return self.position == len(self.ops) or origin + self.ops[self.position].due >= end

    def take(self, conn: int, now: float, origin: float, end: float) -> Optional[Op]:
        if self.position < len(self.ops) and origin + self.ops[self.position].due <= min(now, end):
            op = self.ops[self.position]
            self.position += 1
            return op
        return None

    def next_due(self, origin: float) -> Optional[float]:
        if self.position < len(self.ops):
            return origin + self.ops[self.position].due
        return None

    def split(self, parts: int, seconds: float) -> List["OpenSource"]:
        """The schedule cut into ``parts`` consecutive windows, each from 0."""
        length = seconds / parts
        pieces: List[List[Op]] = [[] for _ in range(parts)]
        for op in self.ops:
            part = min(int(op.due // length), parts - 1)
            pieces[part].append(replace(op, due=op.due - part * length))
        return [OpenSource(piece) for piece in pieces]

    def leftover(self, origin: float, end: float) -> List[Op]:
        """Ops due inside the window that never went out."""
        return [op for op in self.ops[self.position:] if origin + op.due < end]


class _Conn:
    def __init__(self, index: int, port: int) -> None:
        self.index = index
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.buffer = bytearray()
        self.current: Optional[Exchange] = None
        self.free_since = 0.0

    def connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=30.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.buffer.clear()
        return sock

    def parse(self) -> bool:
        """Fill ``current`` from the buffer; True once the response is whole.

        Raises:
            ValueError: the status line or ``Content-Length`` is malformed.
        """
        assert self.current is not None
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return False
        head = bytes(self.buffer[:end])
        if not head.startswith(b"HTTP/1.") or head[8:9] != b" " or not head[9:12].isdigit():
            raise ValueError(f"bad status line {head[:40]!r}")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                if not value.strip().isdigit():
                    raise ValueError(f"bad Content-Length {value.strip()[:40]!r}")
                length = int(value.strip())
        if len(self.buffer) < end + 4 + length:
            return False
        self.current.head = head
        self.current.status = int(head[9:12])
        self.current.body = bytes(self.buffer[end + 4:end + 4 + length])
        del self.buffer[:end + 4 + length]
        return True


def with_request_id(request: bytes, request_id: str) -> bytes:
    """``request`` with an ``X-Request-Id`` header after the request line."""
    cut = request.index(b"\r\n") + 2
    return request[:cut] + b"X-Request-Id: " + request_id.encode() + b"\r\n" + request[cut:]


class LoadClient:
    """A fixed set of keep-alive loopback connections to one server.

    Args:
        port: the server's port on 127.0.0.1.
        connections: how many connections (and so at most how many
            exchanges in flight).
    """

    def __init__(self, port: int, connections: int) -> None:
        self.port = port
        self.conns = [_Conn(index, port) for index in range(connections)]
        self.selector = selectors.DefaultSelector()
        self.sends = 0
        for conn in self.conns:
            self.selector.register(conn.connect(), selectors.EVENT_READ, conn)

    def close(self) -> None:
        for conn in self.conns:
            if conn.sock is not None:
                self.selector.unregister(conn.sock)
                conn.sock.close()
                conn.sock = None
        self.selector.close()

    def __enter__(self) -> "LoadClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _reconnect(self, conn: _Conn) -> None:
        if conn.sock is not None:
            self.selector.unregister(conn.sock)
            conn.sock.close()
            conn.sock = None
        self.selector.register(conn.connect(), selectors.EVENT_READ, conn)

    def run(
        self,
        source: "ClosedSource | OpenSource",
        seconds: Optional[float],
        traced: Optional[Callable[[float], bool]] = None,
        open_loop: bool = False,
    ) -> LoadRun:
        """Drive ``source`` for ``seconds`` (or until it runs dry).

        Args:
            source: where ops come from.
            seconds: window length; ``None`` runs until the source is
                exhausted (warm-up).
            traced: predicate on seconds-since-start; when it holds at send
                time the op carries ``X-Request-Id: sb-<send number>``.
            open_loop: time latency from the op's due time, not its send.
        """
        started = time.perf_counter()
        end = started + seconds if seconds is not None else float("inf")
        issue_until = end + GRACE_S if open_loop else end
        run = LoadRun(started=started, ended=end)
        for conn in self.conns:
            conn.free_since = started
        while True:
            now = time.perf_counter()
            issuing = now < issue_until and not source.drained(started, end)
            if issuing:
                for conn in self.conns:
                    if conn.current is None:
                        op = source.take(conn.index, now, started, end)
                        if op is not None:
                            self._send(conn, op, started, open_loop, traced, run)
            busy = [conn for conn in self.conns if conn.current is not None]
            if not issuing:
                if not busy:
                    break
                if now > end + DRAIN_TIMEOUT_S:
                    for conn in busy:
                        self._fail(conn, run, "no response before the drain timeout")
                    break
            timeout = 0.05
            if issuing and now < end:
                timeout = min(timeout, end - now)
            next_due = source.next_due(started)
            if issuing and next_due is not None and len(busy) < len(self.conns):
                timeout = max(0.0, min(timeout, next_due - now))
            for key, _ in self.selector.select(timeout):
                self._receive(key.data, run)
        run.unsent = source.leftover(started, end)
        run.exhausted = source.exhausted and seconds is not None
        return run

    def _send(
        self,
        conn: _Conn,
        op: Op,
        started: float,
        open_loop: bool,
        traced: Optional[Callable[[float], bool]],
        run: LoadRun,
    ) -> None:
        sent = time.perf_counter()
        due = started + op.due if open_loop else sent
        request = op.request
        request_id = ""
        self.sends += 1
        if traced is not None and traced(sent - started):
            request_id = f"sb-{self.sends}"
            request = with_request_id(request, request_id)
        conn.current = Exchange(
            op=op,
            conn=conn.index,
            ready=max(due, conn.free_since) if open_loop else conn.free_since,
            sent=sent,
            start=due,
            request_id=request_id,
        )
        try:
            assert conn.sock is not None
            conn.sock.sendall(request)
        except OSError as error:
            self._fail(conn, run, f"send: {error}")
            self._reconnect(conn)

    def _receive(self, conn: _Conn, run: LoadRun) -> None:
        try:
            assert conn.sock is not None
            chunk = conn.sock.recv(262144)
            reason = "connection closed by the server"
        except OSError as error:
            chunk = b""
            reason = f"recv: {error}"
        if not chunk:
            if conn.current is not None:
                self._fail(conn, run, reason)
            self._reconnect(conn)
            return
        if conn.current is None:
            return
        conn.buffer += chunk
        try:
            whole = conn.parse()
        except ValueError as error:
            # The rest of the stream cannot be framed: fail the op untimed
            # and start the connection afresh.
            self._fail(conn, run, f"malformed response: {error}")
            self._reconnect(conn)
            return
        if whole:
            done = time.perf_counter()
            conn.current.done = done
            run.exchanges.append(conn.current)
            conn.current = None
            conn.free_since = done

    @staticmethod
    def _fail(conn: _Conn, run: LoadRun, reason: str) -> None:
        assert conn.current is not None
        conn.current.error = reason
        conn.current.done = time.perf_counter()
        run.exchanges.append(conn.current)
        conn.current = None
        conn.free_since = time.perf_counter()
