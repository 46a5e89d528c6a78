"""Tests for a streaming session's incremental re-solve.

A :class:`~repro.stream.TagSession` appends reads one at a time to a
bounded window and re-solves that window with the session estimator; for
``lion`` the re-solve is one :meth:`LionLocalizer.locate` call on the
window's raw reads. These tests pin its identity with the batch pipeline
at every stage (stored reads, preprocessed profile, full solve), across
window eviction, and across repeated re-solves.
"""

import numpy as np
import pytest

from repro import LinearTrajectory, default_antenna, simulate_scan
from repro.core.localizer import LionLocalizer
from repro.stream import StreamConfig, TagSession


def _scan(seed=3):
    rng = np.random.default_rng(seed)
    antenna = default_antenna((0.15, 0.95, 0.0), rng)
    return simulate_scan(
        LinearTrajectory((-0.5, 0.0, 0.0), (0.5, 0.0, 0.0)), antenna, rng=rng
    )


def _filled(scan, max_reads=4096, estimator_config=None):
    config = StreamConfig(
        max_window_reads=max_reads, estimator_config=estimator_config
    )
    session = TagSession("sid", "T", "1", config)
    for k in range(len(scan)):
        session.add_read(k / 120.0, scan.positions[k], scan.phases[k])
    return session


class TestWindowProfile:
    def test_profile_bit_identical_to_batch_preprocess(self):
        scan = _scan()
        localizer = LionLocalizer(dim=2)
        session = _filled(scan)
        _, _, phases = session.window_arrays()
        batch = localizer.preprocess_phase(scan.phases)
        assert np.array_equal(localizer.preprocess_phase(phases), batch)
        # the re-solve's Eq. (7) right-hand side is built from that profile
        resolved = session.final_resolve().raw
        located = localizer.locate(scan.positions, scan.phases)
        assert np.array_equal(resolved.system.rhs, located.system.rhs)

    def test_profile_identity_survives_eviction(self):
        scan = _scan()
        localizer = LionLocalizer(dim=2)
        max_reads = 200
        session = _filled(scan, max_reads=max_reads)
        assert session.window_size() == max_reads
        _, _, phases = session.window_arrays()
        batch = localizer.preprocess_phase(scan.phases[-max_reads:])
        assert np.array_equal(localizer.preprocess_phase(phases), batch)
        resolved = session.final_resolve().raw
        located = localizer.locate(
            np.asarray(scan.positions)[-max_reads:], scan.phases[-max_reads:]
        )
        assert np.array_equal(resolved.system.rhs, located.system.rhs)

    def test_window_arrays_are_the_raw_reads(self):
        scan = _scan()
        session = _filled(scan)
        timestamps, positions, phases = session.window_arrays()
        assert np.array_equal(positions, np.asarray(scan.positions, dtype=float))
        assert np.array_equal(phases, np.asarray(scan.phases, dtype=float))
        assert np.array_equal(timestamps, np.arange(len(scan)) / 120.0)
        assert timestamps[-1] == pytest.approx((len(scan) - 1) / 120.0)


class TestResolveIdentity:
    @pytest.mark.parametrize("method", ["wls", "ls"])
    def test_resolve_bit_identical_to_locate(self, method):
        scan = _scan()
        session = _filled(scan, estimator_config={"method": method})
        incremental = session.final_resolve()
        batch = LionLocalizer(dim=2, method=method).locate(
            scan.positions, scan.phases
        )
        assert np.array_equal(incremental.position, batch.position)
        assert incremental.reference_distance_m == batch.reference_distance_m

    def test_resolve_bit_identical_after_eviction(self):
        scan = _scan()
        max_reads = 300
        session = _filled(scan, max_reads=max_reads)
        incremental = session.final_resolve()
        batch = LionLocalizer(dim=2).locate(
            np.asarray(scan.positions)[-max_reads:], scan.phases[-max_reads:]
        )
        assert np.array_equal(incremental.position, batch.position)

    def test_repeated_resolves_are_stable(self):
        scan = _scan()
        session = _filled(scan)
        first = session.final_resolve()
        events = session.resolve_windowed()
        second = session.final_resolve()
        assert np.array_equal(first.position, second.position)
        assert events[0].source == "windowed"
        assert np.array_equal(events[0].position, first.position)
        assert session.window_size() == len(scan)


class TestValidation:
    def test_window_bound_must_hold_three_reads(self):
        with pytest.raises(ValueError, match="max_window_reads must be at least 3"):
            StreamConfig(max_window_reads=2, min_window_reads=3)

    def test_appended_counts_evicted_reads(self):
        scan = _scan()
        session = _filled(scan, max_reads=100)
        assert session.reads == len(scan)
        assert session.window_size() == 100
