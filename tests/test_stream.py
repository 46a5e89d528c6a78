"""Tests for repro.stream — sessions, manager lifecycle, events, replay.

The subsystem's contract: reads stream in chunks of any size, lifecycle
events narrate the session, and every windowed re-solve (periodic,
final, drain) is bit-identical to a one-shot estimate over the same
window. Chunking is an I/O artifact — it must never change an answer.
"""

import numpy as np
import pytest

from repro import LinearTrajectory, default_antenna, simulate_scan
from repro.pipeline import EstimationRequest, estimate
from repro.stream import (
    DuplicateSessionError,
    EventBus,
    SessionCapacityError,
    SessionClosedError,
    SessionManager,
    StreamConfig,
    TagSession,
    UnknownSessionError,
    replay_records,
    replay_stream,
)
from repro.datasets import session_streams


def _scan(seed=5):
    rng = np.random.default_rng(seed)
    antenna = default_antenna((0.1, 0.9, 0.0), rng)
    return simulate_scan(
        LinearTrajectory((-0.5, 0.0, 0.0), (0.5, 0.0, 0.0)), antenna, rng=rng
    )


def _reads(scan, start=0, end=None):
    end = len(scan) if end is None else end
    return [
        (k / 120.0, scan.positions[k], float(scan.phases[k]))
        for k in range(start, end)
    ]


def _feed_chunked(manager, session_id, reads, chunk):
    for start in range(0, len(reads), chunk):
        manager.feed(session_id, reads[start : start + chunk])


class TestStreamConfig:
    def test_round_trip(self):
        config = StreamConfig(resolve_every_reads=40, settle_epsilon_m=0.01)
        assert StreamConfig.from_dict(config.to_dict()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown stream config"):
            StreamConfig.from_dict({"resolve_cadence": 10})
        with pytest.raises(TypeError):
            StreamConfig().override(resolve_cadence=10)

    @pytest.mark.parametrize(
        "changes",
        [
            {"estimator": ""},
            {"max_window_reads": 2},
            {"min_window_reads": 2},
            {"min_window_reads": 64, "max_window_reads": 32},
            {"update_every_reads": 0},
            {"resolve_every_reads": 0},
            {"settle_window": 1},
            {"settle_epsilon_m": 0.0},
            {"depart_after_s": 0.0},
            {"drift_threshold_m": -1.0},
            {"fast_pair_lag": 0},
            {"fast_min_rows": 0},
        ],
    )
    def test_validation(self, changes):
        with pytest.raises(ValueError):
            StreamConfig(**changes)

    def test_bad_estimator_fails_at_session_open(self):
        manager = SessionManager()
        with pytest.raises(KeyError):
            manager.open_session("T", config=StreamConfig(estimator="no-such"))
        with pytest.raises(ValueError):
            manager.open_session(
                "T", config=StreamConfig(estimator_config={"dim": 7})
            )
        # failed opens leave no live session behind
        assert manager.active_sessions() == 0


class TestSessionLifecycle:
    def test_events_narrate_the_session(self):
        scan = _scan()
        manager = SessionManager(defaults=StreamConfig(fast_pair_lag=120))
        session = manager.open_session("PALLET-1", antenna="A")
        assert session.state.value == "warming"

        result = manager.feed(session.session_id, _reads(scan))
        kinds = [event.kind for event in result.events]
        assert kinds[0] == "tag_entered"
        assert "position_updated" in kinds
        assert result.accepted == len(scan)
        assert result.estimate is not None
        assert session.state.value in ("tracking", "settled")

        closing = manager.close_session(session.session_id)
        closing_kinds = [event.kind for event in closing.events]
        assert closing_kinds[-1] == "tag_departed"
        # the close flushed one final windowed re-solve
        assert "position_updated" in closing_kinds
        assert manager.active_sessions() == 0

    def test_event_sequence_is_gapless(self):
        scan = _scan()
        manager = SessionManager()
        session = manager.open_session("T1")
        seen = []
        manager.bus.subscribe(lambda event: seen.append(event))
        _feed_chunked(manager, session.session_id, _reads(scan), 50)
        manager.close_session(session.session_id)
        sequences = [event.sequence for event in seen]
        assert sequences == list(range(1, len(sequences) + 1))

    def test_feed_after_close_is_unknown(self):
        manager = SessionManager()
        session = manager.open_session("T1")
        manager.close_session(session.session_id)
        with pytest.raises(UnknownSessionError):
            manager.feed(session.session_id, [(0.0, (0.0, 0.0), 0.1)])

    def test_departed_session_rejects_reads(self):
        session = TagSession("sid", "T1", "1", StreamConfig())
        session.depart("closed")
        with pytest.raises(SessionClosedError):
            session.add_read(0.0, (0.0, 0.0), 0.1)

    def test_depart_is_idempotent(self):
        session = TagSession("sid", "T1", "1", StreamConfig())
        assert [event.kind for event in session.depart("closed")] == ["tag_departed"]
        assert session.depart("closed") == []

    def test_snapshot_is_json_safe(self):
        import json

        scan = _scan()
        manager = SessionManager()
        session = manager.open_session("T1", antenna="A2")
        manager.feed(session.session_id, _reads(scan, 0, 100))
        snapshot = session.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["tag"] == "T1"
        assert snapshot["antenna"] == "A2"
        assert snapshot["reads"] == 100


class TestManagerAdmission:
    def test_capacity(self):
        manager = SessionManager(max_sessions=1)
        manager.open_session("T1")
        with pytest.raises(SessionCapacityError):
            manager.open_session("T2")

    def test_duplicate_key(self):
        manager = SessionManager()
        manager.open_session("T1", antenna="A")
        with pytest.raises(DuplicateSessionError):
            manager.open_session("T1", antenna="A")
        # same tag at another antenna is a distinct session
        manager.open_session("T1", antenna="B")

    def test_duplicate_session_id(self):
        manager = SessionManager()
        manager.open_session("T1", session_id="fixed")
        with pytest.raises(DuplicateSessionError):
            manager.open_session("T2", session_id="fixed")

    def test_key_is_reusable_after_close(self):
        manager = SessionManager()
        first = manager.open_session("T1")
        manager.close_session(first.session_id)
        second = manager.open_session("T1")
        assert second.session_id != first.session_id

    def test_unknown_session(self):
        manager = SessionManager()
        with pytest.raises(UnknownSessionError):
            manager.get_session("nope")
        with pytest.raises(UnknownSessionError):
            manager.close_session("nope")

    def test_empty_tag_rejected(self):
        with pytest.raises(ValueError):
            SessionManager().open_session("")

    def test_max_sessions_validated(self):
        with pytest.raises(ValueError):
            SessionManager(max_sessions=0)


class TestIdleSweep:
    def test_poll_departs_idle_sessions(self):
        now = [0.0]
        manager = SessionManager(
            defaults=StreamConfig(depart_after_s=1.0), clock=lambda: now[0]
        )
        idle = manager.open_session("IDLE")
        busy = manager.open_session("BUSY")
        now[0] = 0.9
        manager.feed(busy.session_id, [(0.9, (0.0, 0.0), 0.1)])
        now[0] = 1.5
        events = manager.poll()
        assert [event.tag for event in events] == ["IDLE"]
        assert events[0].to_dict()["reason"] == "timeout"
        assert manager.session_ids() == [busy.session_id]
        assert idle.state.value == "departed"


class TestDrain:
    def test_drain_final_resolves_and_sheds_new_opens(self):
        scan = _scan()
        manager = SessionManager()
        fed = manager.open_session("FED")
        empty = manager.open_session("EMPTY")
        manager.feed(fed.session_id, _reads(scan, 0, 200))

        summary = manager.drain()
        assert summary == {"sessions_drained": 2, "final_resolves": 1}
        assert manager.draining
        assert fed.state.value == "departed"
        assert empty.state.value == "departed"
        assert fed.last_estimate["source"] == "windowed"
        with pytest.raises(SessionCapacityError):
            manager.open_session("LATE")
        # idempotent
        assert manager.drain() == {"sessions_drained": 0, "final_resolves": 0}

    def test_stats_shape(self):
        manager = SessionManager()
        manager.open_session("T1")
        stats = manager.stats()
        assert stats["active"] == 1
        assert stats["opened"] == 1
        assert stats["states"] == {"warming": 1}
        for key in (
            "departed",
            "reads",
            "events",
            "resolves_direct",
            "resolves_engine",
            "resolve_errors",
            "draining",
        ):
            assert key in stats

    def test_failed_resolves_are_counted(self):
        # Twelve reads at one position make a degenerate window, so every
        # re-solve raises; feed, close and drain each count the attempt
        # and the failure.
        reads = [(k / 120.0, (0.0, 0.0), 0.1 * k) for k in range(12)]
        manager = SessionManager(defaults=StreamConfig(resolve_every_reads=12))

        def counts():
            stats = manager.stats()
            return stats["resolves_direct"], stats["resolve_errors"]

        closed = manager.open_session("CLOSED")
        manager.feed(closed.session_id, reads)
        assert closed.last_estimate is None
        assert counts() == (1, 1)
        manager.close_session(closed.session_id)
        assert counts() == (2, 2)

        # the default cadence (64 reads) leaves the re-solve to the drain
        drained = manager.open_session("DRAINED", config=StreamConfig())
        manager.feed(drained.session_id, reads)
        assert counts() == (2, 2)
        assert manager.drain() == {"sessions_drained": 1, "final_resolves": 1}
        assert counts() == (3, 3)


class TestChunkDeterminism:
    """Chunking is transport, not math: any chunking of the same reads
    produces bit-identical windowed solves."""

    @pytest.mark.parametrize("chunk", [1, 7, 64, 10_000])
    def test_final_resolve_independent_of_chunk_size(self, chunk):
        scan = _scan()
        reads = _reads(scan)
        reference = None
        manager = SessionManager()
        session = manager.open_session("T", session_id=f"chunk-{chunk}")
        _feed_chunked(manager, session.session_id, reads, chunk)
        final = session.final_resolve()
        assert final is not None

        baseline_manager = SessionManager()
        baseline = baseline_manager.open_session("T")
        baseline_manager.feed(baseline.session_id, reads)
        reference = baseline.final_resolve()
        assert np.array_equal(final.position, reference.position)

    def test_final_resolve_bit_identical_to_oneshot(self):
        scan = _scan()
        manager = SessionManager()
        session = manager.open_session("T")
        _feed_chunked(manager, session.session_id, _reads(scan), 33)
        final = session.final_resolve()
        name, config, request = session.build_resolve_request()
        oneshot = estimate(name, request, config)
        assert np.array_equal(final.position, oneshot.position)

    def test_window_eviction_keeps_identity(self):
        scan = _scan()
        config = StreamConfig(max_window_reads=250, min_window_reads=12)
        manager = SessionManager(defaults=config)
        session = manager.open_session("T")
        _feed_chunked(manager, session.session_id, _reads(scan), 19)
        assert session.window_size() == 250
        final = session.final_resolve()
        name, cfg, request = session.build_resolve_request()
        assert request.positions.shape[0] == 250
        oneshot = estimate(name, request, cfg)
        assert np.array_equal(final.position, oneshot.position)


class TestWindowReads:
    """Every session validates a read before it enters the window."""

    @pytest.mark.parametrize("estimator", ["lion", "hyperbola"])
    @pytest.mark.parametrize(
        "position, phase",
        [
            ((0.0, 0.0), float("nan")),
            ((float("inf"), 0.0), 0.1),
            ((0.0, 0.0, 0.0, 0.0), 0.1),
        ],
        ids=["nan-phase", "inf-position", "wrong-shape"],
    )
    def test_feed_rejects_malformed_read(self, estimator, position, phase):
        manager = SessionManager(defaults=StreamConfig(estimator=estimator))
        session = manager.open_session("T")
        manager.feed(session.session_id, [(0.0, (0.0, 0.0), 0.1)])
        with pytest.raises(ValueError):
            manager.feed(session.session_id, [(0.1, position, phase)])
        # the bad read left the session as it was
        assert session.reads == 1
        assert session.window_size() == 1

    def test_short_position_for_a_3d_session_is_not_stored(self):
        manager = SessionManager(defaults=StreamConfig(estimator_config={"dim": 3}))
        session = manager.open_session("T")
        with pytest.raises(ValueError):
            manager.feed(session.session_id, [(0.0, (0.0, 0.0), 0.1)])
        assert (session.reads, session.window_size()) == (0, 0)

    def test_too_few_reads_to_resolve(self):
        session = TagSession("sid", "T", "1", StreamConfig())
        session.add_read(0.0, (0.0, 0.0), 0.1)
        session.add_read(0.01, (0.01, 0.0), 0.2)
        assert session.final_resolve() is None
        with pytest.raises(ValueError):
            session.resolve_windowed()


class TestResolveIdentity:
    """A windowed re-solve is ``estimate()`` on the window, whatever the
    estimator config."""

    @pytest.mark.parametrize(
        "estimator_config",
        [{"method": "ls"}, {"smoothing_window": 1}, {"hampel_window": 7}],
        ids=["ls", "no-smoothing", "hampel"],
    )
    def test_resolve_equals_oneshot_estimate(self, estimator_config):
        scan = _scan()
        reads = _reads(scan)
        config = StreamConfig(
            estimator_config=estimator_config, resolve_every_reads=len(reads)
        )
        manager = SessionManager(defaults=config)
        session = manager.open_session("T")
        manager.feed(session.session_id, reads)
        assert session.last_estimate["source"] == "windowed"
        _, positions, phases = session.window_arrays()
        oneshot = estimate(
            "lion",
            EstimationRequest(positions=positions, phases_rad=phases),
            estimator_config,
        )
        assert np.array_equal(session.last_estimate["position"], oneshot.position)
        assert np.array_equal(session.final_resolve().position, oneshot.position)


class TestEventBus:
    def _event(self):
        from repro.stream import TagEntered

        return TagEntered(
            session_id="s", tag="T", antenna="1", sequence=1, timestamp_s=0.0
        )

    def test_kind_filter_and_unsubscribe(self):
        bus = EventBus()
        seen = []
        token = bus.subscribe(seen.append, kinds=["tag_entered"])
        other = bus.subscribe(seen.append, kinds=["tag_departed"])
        bus.publish(self._event())
        assert len(seen) == 1
        assert bus.unsubscribe(token)
        bus.publish(self._event())
        assert len(seen) == 1
        assert not bus.unsubscribe(token)
        assert bus.unsubscribe(other)

    def test_raising_subscriber_is_isolated(self):
        bus = EventBus()
        seen = []

        def bad(event):
            raise RuntimeError("boom")

        bus.subscribe(bad)
        bus.subscribe(seen.append)
        bus.publish(self._event())
        assert len(seen) == 1
        assert bus.stats()["subscriber_errors"] == 1
        assert bus.stats()["published"] == 1


class TestReplay:
    def _streams(self, seed=9):
        scan = _scan(seed)
        return session_streams(scan.records, dim=2)

    def test_replay_verifies_bit_identity(self):
        results = replay_records(self._streams())
        assert len(results) == 1
        result = results[0]
        assert result.bit_identical is True
        assert result.final_position == result.oneshot_position
        assert result.events["tag_entered"] == 1
        assert result.events["tag_departed"] == 1
        assert result.reads > 0
        assert result.reads_per_sec > 0

    def test_replay_skips_verification_when_asked(self):
        result = replay_records(self._streams(), verify=False)[0]
        assert result.bit_identical is None
        assert result.oneshot_position is None
        assert result.final_position is not None

    def test_paced_replay_sleeps_the_recorded_gaps(self):
        slept = []
        streams = self._streams()
        replay_records(
            streams, speed=2.0, chunk_reads=50, sleep=slept.append
        )
        total = len(streams[0])
        expected_gaps = (total - 1) // 50  # one sleep per non-initial chunk
        assert len(slept) == expected_gaps
        assert all(gap >= 0.0 for gap in slept)
        # 2x speed halves the recorded gap
        recorded = float(
            streams[0].timestamps_s[50] - streams[0].timestamps_s[49]
        )
        assert slept[0] == pytest.approx(recorded / 2.0)

    def test_invalid_speed_and_chunk_rejected(self):
        manager = SessionManager()
        stream = self._streams()[0]
        with pytest.raises(ValueError):
            replay_stream(stream, manager, speed=0.0)
        with pytest.raises(ValueError):
            replay_stream(stream, manager, chunk_reads=0)

    def test_subscriber_sees_the_events(self):
        kinds = []
        replay_records(
            self._streams(), subscriber=lambda event: kinds.append(event.kind)
        )
        assert kinds.count("tag_entered") == 1
        assert kinds.count("tag_departed") == 1
