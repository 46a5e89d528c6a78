"""The traffic mixes: inputs from a seed, pre-encoded ops, answer checks.

Every request body is generated from ``(seed, workload)`` and encoded
before any timing starts. Closed-loop workloads cycle through a pool of
distinct bodies that is far larger than any cache that could remember
one (the result cache holds 128 answers, the pair cache 1024 recipes), so
a faster server reuses bodies instead of running dry, and no body is ever
seen again while a cache could still hold it. Each op keeps its ground
truth, so the checks after the window can score the answers.

- ``portal``: open loop over two connections, one shared 60-read
  conveyor trajectory.
- ``survey``: closed loop over one connection, ``lion-adaptive`` on
  400-read scans, each request with its own trajectory and antenna.

:class:`Sessions` and :class:`CalibFleet` generate the streaming sessions
and the calibration-store traffic the ladder replays through
``repro.stream`` and ``repro.calib``; no workload drives them over HTTP.
See ``RATIONALE.md`` for why each workload exists and which layers it
loads.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from httpload import ClosedSource, Exchange, Op, OpenSource
from repro.calib import CalibrationStore
from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI
from repro.core.calibration import AntennaCalibration
from repro.pipeline import EstimationRequest
from repro.pipeline import estimate as pipeline_estimate

#: Round-trip phase per metre of tag-antenna distance.
WAVENUMBER = 2.0 * TWO_PI / DEFAULT_WAVELENGTH_M

#: Generator ids folded into the seed so generators never share draws.
_STREAM_IDS = {"portal": 1, "survey": 2, "sessions": 3, "fleet": 4}

#: Seed of the open-loop arrival schedule, the same in every run.
SCHEDULE_SEED = 20221


def post_request(path: str, body: bytes) -> bytes:
    """Full HTTP/1.1 ``POST`` bytes of a JSON body for one keep-alive exchange."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    )
    return head.encode() + b"\r\n" + body


def wrapped_phases(
    points: np.ndarray, center: np.ndarray, offset: float, noise: np.ndarray
) -> np.ndarray:
    """Backscatter phase of reads at ``points`` from an antenna at ``center``."""
    distances = np.linalg.norm(points - center, axis=1)
    return np.mod(WAVENUMBER * distances + offset + noise, TWO_PI)


@dataclass
class Verdict:
    """The check of one exchange."""

    ok: bool
    reason: str = ""
    position: Optional[np.ndarray] = None
    error_m: Optional[float] = None


@dataclass
class Answer:
    """A decoded 2xx body, or the reason there is none."""

    body: Dict[str, Any] = field(default_factory=dict)
    reason: str = ""


def decode(exchange: Exchange, status: int) -> Answer:
    """Decode one response and check the envelope every answer must have."""
    if exchange.error:
        return Answer(reason=exchange.error)
    if exchange.status != status:
        return Answer(reason=f"status {exchange.status}: {exchange.body[:200]!r}")
    try:
        body = json.loads(exchange.body)
    except (UnicodeDecodeError, ValueError) as error:
        return Answer(reason=f"undecodable body: {error}")
    if not isinstance(body, dict):
        return Answer(reason="body is not a JSON object")
    if exchange.request_id:
        echoed = b"x-request-id: " + exchange.request_id.encode()
        if echoed not in exchange.head.lower().split(b"\r\n"):
            return Answer(reason="X-Request-Id not echoed")
        if "request_id" in body and body["request_id"] != exchange.request_id:
            return Answer(reason="request_id mismatch")
    return Answer(body=body)


def position_of(value: Any) -> Optional[np.ndarray]:
    """A finite 2-vector from a JSON list, else None."""
    if not isinstance(value, list) or len(value) != 2:
        return None
    if not all(isinstance(item, float) for item in value):
        return None
    position = np.asarray(value, dtype=float)
    return position if np.all(np.isfinite(position)) else None


@dataclass
class LocateInfo:
    """One locate: its request fields (arrays as numpy), truth and body."""

    estimator: str
    config: Optional[Dict[str, Any]]
    fields: Dict[str, Any]
    truth: np.ndarray
    body: bytes = b""

    def __post_init__(self) -> None:
        if not self.body:
            wire = {
                name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in self.fields.items()
            }
            payload: Dict[str, Any] = {"estimator": self.estimator, "request": wire}
            if self.config is not None:
                payload["config"] = self.config
            self.body = json.dumps(payload).encode()

    def request(self) -> EstimationRequest:
        """The in-process request, as the server parses the body."""
        return EstimationRequest(
            positions=np.asarray(self.fields["positions"], dtype=float),
            phases_rad=np.asarray(self.fields["phases_rad"], dtype=float),
        )


def locate_op(index: int, info: LocateInfo, due: float = 0.0) -> Op:
    return Op(index, "locate", post_request("/v1/locate", info.body), due, info)


def _deal(ops: List[Op], connections: int, cycle: bool) -> ClosedSource:
    """Deal ops round-robin onto per-connection streams (cycling if asked)."""
    lanes = [ops[index::connections] for index in range(connections)]
    return ClosedSource([itertools.cycle(lane) if cycle else iter(lane) for lane in lanes])


class Workload:
    """Base of the workloads; see the module docstring."""

    name = ""
    open_loop = False
    #: Keep-alive connections, at most one per core.
    connections = 1
    #: Answers that feed the error metrics: an equal share of each window's
    #: first answers (by op in the open loop, per connection otherwise).
    error_ops = 1000
    #: Locate answers re-solved in process for bit-identity.
    identity_sample = 64

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.connections = max(1, min(self.connections, os.cpu_count() or 1))
        self.rng = np.random.default_rng([seed, _STREAM_IDS[self.name]])
        self._index = 0

    def next_index(self) -> int:
        self._index += 1
        return self._index - 1

    def warmup_source(self) -> ClosedSource:
        raise NotImplementedError

    def window_sources(self, parts: int) -> List[ClosedSource | OpenSource]:
        """One op source per window of the run (one window per server launch)."""
        raise NotImplementedError

    def check(self, exchanges: Sequence[Exchange]) -> List[Verdict]:
        """One verdict per exchange, bit-identity on a deterministic sample."""
        verdicts = [self.check_one(exchange) for exchange in exchanges]
        self.check_identity(exchanges, verdicts)
        return verdicts

    def check_one(self, exchange: Exchange) -> Verdict:
        info: LocateInfo = exchange.op.info
        answer = decode(exchange, 200)
        if answer.reason:
            return Verdict(False, answer.reason)
        if answer.body.get("estimator") != info.estimator:
            return Verdict(False, f"estimator {answer.body.get('estimator')!r}")
        position = position_of(answer.body.get("position"))
        if position is None:
            return Verdict(False, f"bad position {answer.body.get('position')!r}")
        return Verdict(True, position=position, error_m=float(np.linalg.norm(position - info.truth)))

    def expected_position(self, info: LocateInfo) -> np.ndarray:
        """The in-process ``estimate()`` answer for one locate."""
        return pipeline_estimate(info.estimator, info.request(), info.config).position

    def check_identity(self, exchanges: Sequence[Exchange], verdicts: List[Verdict]) -> None:
        """Re-solve an evenly spread sample in process; a mismatch fails it."""
        candidates = [
            (exchange, verdict)
            for exchange, verdict in zip(exchanges, verdicts)
            if verdict.ok and exchange.op.kind == "locate"
        ]
        stride = max(1, math.ceil(len(candidates) / self.identity_sample))
        for exchange, verdict in candidates[::stride]:
            expected = self.expected_position(exchange.op.info)
            assert verdict.position is not None
            if not np.array_equal(expected, verdict.position):
                verdict.ok = False
                verdict.reason = (
                    f"answer {verdict.position.tolist()} differs from in-process "
                    f"estimate() {expected.tolist()}"
                )


class Portal(Workload):
    """Open loop on one shared conveyor trajectory (the repeat-geometry case)."""

    name = "portal"
    open_loop = True
    reads = 60
    #: Offered rate, requests per second: about a third of the closed-loop
    #: capacity two connections reach on the parent commit (~256/s). At
    #: 120/s queueing behind the server's brief pauses made the ten-run
    #: spread of the p99 0.34; at 80/s it was 0.16.
    rate = 80.0
    #: Two, so requests that arrive close together reach the server
    #: together and the engine can fuse them into a batch.
    connections = 2
    warmup_ops = 48
    error_ops = 1500

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        super().__init__(seed, seconds, workdir)
        x = np.linspace(-0.6, 0.6, self.reads)
        self.positions = np.stack([x, np.zeros_like(x)], axis=1)

    def make(self, count: int) -> List[LocateInfo]:
        infos = []
        for _ in range(count):
            truth = np.array([self.rng.uniform(-0.15, 0.15), self.rng.uniform(0.7, 1.0)])
            offset = self.rng.uniform(0.0, TWO_PI)
            phases = wrapped_phases(self.positions, truth, offset, self.rng.normal(0.0, 0.05, self.reads))
            fields = {"positions": self.positions, "phases_rad": phases}
            infos.append(LocateInfo("lion", None, fields, truth))
        return infos

    def warmup_source(self) -> ClosedSource:
        ops = [locate_op(self.next_index(), info) for info in self.make(self.warmup_ops)]
        return _deal(ops, self.connections, cycle=False)

    def window_sources(self, parts: int) -> List[ClosedSource | OpenSource]:
        # One fixed draw of the arrival schedule for every run: a Poisson
        # process conditioned on its count. Drawn per seed, the p99 would
        # mostly rank that seed's largest arrival bursts rather than the
        # server; ``--seed`` varies the requests themselves.
        count = max(1, round(self.rate * self.seconds))
        schedule = np.random.default_rng([SCHEDULE_SEED, _STREAM_IDS[self.name]])
        dues = np.sort(schedule.uniform(0.0, self.seconds, count)).tolist()
        ops = [locate_op(self.next_index(), info, due) for info, due in zip(self.make(count), dues)]
        return list(OpenSource(ops).split(parts, self.seconds))


class Survey(Workload):
    """Closed loop of adaptive solves, each on its own trajectory and antenna."""

    name = "survey"
    reads = 400
    #: The 2x2 (range, interval) grid of a fleet recalibration scan
    #: (``repro.datasets.fleet``); RATIONALE.md says why not the 6x6 default.
    config = {"ranges_m": [0.8, 1.0], "intervals_m": [0.2, 0.3]}
    #: One: the solve is the bottleneck, and a second connection only adds
    #: a parse competing with it for the two cores (RATIONALE.md).
    connections = 1
    warmup_ops = 16
    #: Distinct bodies cycled through (more than the 128 result-cache
    #: entries, and than the 1024 pair-cache recipes at four per request).
    pool = 1200
    error_ops = 1200
    identity_sample = 24

    def make(self, count: int) -> List[LocateInfo]:
        infos = []
        for _ in range(count):
            x = np.linspace(self.rng.uniform(-0.68, -0.62), self.rng.uniform(0.62, 0.68), self.reads)
            positions = np.stack([x, np.zeros_like(x)], axis=1)
            truth = np.array([self.rng.uniform(-0.1, 0.1), self.rng.uniform(0.75, 0.85)])
            offset = self.rng.uniform(0.0, TWO_PI)
            phases = wrapped_phases(positions, truth, offset, self.rng.normal(0.0, 0.08, self.reads))
            fields = {"positions": positions, "phases_rad": phases}
            infos.append(LocateInfo("lion-adaptive", self.config, fields, truth))
        return infos

    def warmup_source(self) -> ClosedSource:
        ops = [locate_op(self.next_index(), info) for info in self.make(self.warmup_ops)]
        return _deal(ops, self.connections, cycle=False)

    def window_sources(self, parts: int) -> List[ClosedSource | OpenSource]:
        """Window k cycles the pool from its k-th part, so its first ops
        do not depend on how far earlier windows got."""
        ops = [locate_op(self.next_index(), info) for info in self.make(self.pool)]
        starts = [part * len(ops) // parts for part in range(parts)]
        return [_deal(ops[start:] + ops[:start], self.connections, cycle=True) for start in starts]


@dataclass
class SessionPlan:
    """One streaming session: its reads, truth and NDJSON feed chunks."""

    sid: str
    positions: np.ndarray
    phases: np.ndarray
    truth: np.ndarray
    chunks: List[bytes] = field(default_factory=list)


class Sessions:
    """Streaming sessions: a 64-read conveyor pass fed in 16-read NDJSON chunks.

    The ladder's stream rungs replay these through ``SessionManager``.
    """

    reads = 64
    chunk = 16

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng([seed, _STREAM_IDS["sessions"]])
        x = np.linspace(-0.8, 0.8, self.reads)
        self.positions = np.stack([x, np.zeros_like(x)], axis=1)
        self.times = np.arange(self.reads) / 40.0
        self._sessions = 0

    def plan(self, label: str) -> SessionPlan:
        sid = f"{label}{self.seed}-{self._sessions}"
        self._sessions += 1
        truth = np.array([self.rng.uniform(-0.3, 0.3), self.rng.uniform(0.8, 1.2)])
        offset = self.rng.uniform(0.0, TWO_PI)
        phases = wrapped_phases(self.positions, truth, offset, self.rng.normal(0.0, 0.05, self.reads))
        plan = SessionPlan(sid, self.positions, phases, truth)
        for start in range(0, self.reads, self.chunk):
            lines = [
                json.dumps(
                    {
                        "t": float(self.times[k]),
                        "position": self.positions[k].tolist(),
                        "phase": float(phases[k]),
                    }
                )
                for k in range(start, start + self.chunk)
            ]
            plan.chunks.append(("\n".join(lines) + "\n").encode())
        return plan

    @staticmethod
    def final_position(plan: SessionPlan) -> np.ndarray:
        """One-shot ``estimate()`` over the session's reads."""
        request = EstimationRequest(positions=plan.positions, phases_rad=plan.phases)
        return pipeline_estimate("lion", request).position


#: Antenna slots of one fleet portal, relative to the portal's x position.
_PORTAL_SLOTS = np.array([[0.0, -0.6, 0.5], [0.5, -0.6, 1.5], [0.0, 0.6, 1.5], [0.5, 0.6, 0.5]])


@dataclass
class CalibOp:
    """One op of a fleet client: a lookup of a portal's antennas, or a commit."""

    kind: str
    antennas: Tuple[str, ...] = ()
    #: Commits: the antenna and the CAS ``expected_version``.
    antenna: str = ""
    expected: int = 0


class CalibFleet:
    """A seeded calibration store and one fleet client's ops on it.

    The ladder's calib rungs replay the ops through ``repro.calib``: a
    lookup names the four antennas of one portal, as a multi-antenna
    locate does, and every ``commit_every``-th op re-commits the latest
    values of the client's next antenna with the CAS ``expected_version``.
    """

    antennas = 32
    #: History committed per antenna before the replay starts.
    seed_versions = 3
    #: 2% of ops are commits. Every commit bumps the store generation and
    #: empties the resolver, so this share sets ``calib.resolver.hit_share``
    #: (RATIONALE.md). The repo's own staleness budget
    #: (``StalenessPolicy.max_age_s``, 24 h) would give no commit at all.
    commit_every = 50

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, _STREAM_IDS["fleet"]])
        #: ``(name, physical center, [(estimated center, phase offset), ...])``.
        self.fleet: List[Tuple[str, np.ndarray, List[Tuple[np.ndarray, float]]]] = []
        for index in range(self.antennas):
            portal = index // len(_PORTAL_SLOTS)
            center = _PORTAL_SLOTS[index % len(_PORTAL_SLOTS)] + [3.0 * portal, 0.0, 0.0]
            offset = float(self.rng.uniform(0.0, TWO_PI))
            versions = []
            for scale in (3e-3, 2e-3, 1e-3)[: self.seed_versions]:
                estimated = center + self.rng.normal(0.0, scale, 3)
                drifted = np.mod(offset + self.rng.normal(0.0, 10 * scale), TWO_PI)
                versions.append((estimated, float(drifted)))
            self.fleet.append((f"ant-{index:03d}", center + [0.0, 0.02, 0.0], versions))

    def prepare(self, store_path: Path) -> None:
        """Create the store at ``store_path`` with every antenna's history."""
        store = CalibrationStore(store_path, create=True)
        for name, physical, versions in self.fleet:
            for estimated, offset in versions:
                store.commit(AntennaCalibration(name, physical, estimated, offset), source="seed")

    def ops(self, count: int) -> List[CalibOp]:
        """``count`` ops: lookups of random portals, every n-th a commit of
        the next antenna in round-robin, expecting the version it left."""
        slots = len(_PORTAL_SLOTS)
        owned = itertools.cycle(name for name, _, _ in self.fleet)
        versions: Dict[str, int] = {}
        ops = []
        for step in range(count):
            if step % self.commit_every == self.commit_every - 1:
                name = next(owned)
                expected = versions.get(name, self.seed_versions)
                versions[name] = expected + 1
                ops.append(CalibOp("commit", antenna=name, expected=expected))
            else:
                portal = int(self.rng.integers(self.antennas // slots))
                members = self.fleet[portal * slots:(portal + 1) * slots]
                ops.append(CalibOp("lookup", antennas=tuple(name for name, _, _ in members)))
        return ops


WORKLOADS = {cls.name: cls for cls in (Portal, Survey)}
