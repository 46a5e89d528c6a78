"""Tests for repro.rf.reader."""

import numpy as np
import pytest

from repro.constants import DEFAULT_FREQUENCY_HZ
from repro.rf.channel import Channel, ChannelConfig
from repro.rf.noise import NoPhaseNoise
from repro.rf.reader import ReadRecord, Reader, ReaderConfig


@pytest.fixture
def channel(ideal_antenna, ideal_tag):
    return Channel(
        antenna=ideal_antenna,
        tag=ideal_tag,
        config=ChannelConfig(noise=NoPhaseNoise()),
    )


class TestInterrogate:
    def test_one_record_per_sample(self, channel, rng):
        reader = Reader()
        positions = np.array([[x, 0.0, 0.0] for x in np.linspace(-0.5, 0.5, 20)])
        timestamps = np.linspace(0.0, 1.0, 20)
        records = reader.interrogate(channel, positions, timestamps, rng)
        assert len(records) == 20

    def test_records_carry_positions_and_times(self, channel, rng):
        reader = Reader()
        positions = np.array([[0.1, 0.0, 0.0], [0.2, 0.0, 0.0]])
        records = reader.interrogate(channel, positions, [0.0, 0.5], rng)
        assert records[1].tag_position == pytest.approx((0.2, 0.0, 0.0))
        assert records[1].timestamp_s == pytest.approx(0.5)

    def test_records_carry_identifiers(self, channel, rng):
        reader = Reader()
        records = reader.interrogate(
            channel, np.array([[0.0, 0.0, 0.0]]), [0.0], rng
        )
        assert records[0].epc == channel.tag.epc
        assert records[0].antenna == channel.antenna.name

    def test_phase_matches_channel(self, channel, rng):
        reader = Reader()
        records = reader.interrogate(channel, np.array([[0.3, 0.0, 0.0]]), [0.0], rng)
        assert records[0].phase_rad == pytest.approx(
            channel.ideal_phase((0.3, 0.0, 0.0))
        )

    def test_pinned_frequency(self, channel, rng):
        reader = Reader()
        records = reader.interrogate(channel, np.array([[0.0, 0.0, 0.0]]), [0.0], rng)
        assert records[0].frequency_hz == pytest.approx(DEFAULT_FREQUENCY_HZ)
        assert records[0].channel_index == -1

    def test_dropouts_remove_reads(self, channel, rng):
        reader = Reader(config=ReaderConfig(dropout_probability=0.5))
        positions = np.zeros((400, 3))
        positions[:, 1] = 0.1
        records = reader.interrogate(channel, positions, np.arange(400.0), rng)
        assert 100 < len(records) < 300

    def test_frequency_hopping_changes_channels(self, channel, rng):
        reader = Reader(
            config=ReaderConfig(frequency_hopping=True, hop_interval_s=0.1)
        )
        positions = np.zeros((50, 3))
        positions[:, 1] = 0.1
        records = reader.interrogate(channel, positions, np.linspace(0, 5, 50), rng)
        channels = {r.channel_index for r in records}
        assert len(channels) > 3
        assert all(0 <= c < 50 for c in channels)

    def test_shape_mismatch_rejected(self, channel, rng):
        reader = Reader()
        with pytest.raises(ValueError):
            reader.interrogate(channel, np.zeros((3, 3)), [0.0], rng)

    def test_2d_positions_rejected(self, channel, rng):
        reader = Reader()
        with pytest.raises(ValueError):
            reader.interrogate(channel, np.zeros((3, 2)), [0.0, 1.0, 2.0], rng)


class TestCollectStatic:
    def test_count_and_position(self, channel, rng):
        reader = Reader()
        records = reader.collect_static(channel, (0.0, 0.0, 0.0), 50, rng)
        assert len(records) == 50
        assert all(r.tag_position == (0.0, 0.0, 0.0) for r in records)

    def test_timestamps_follow_read_rate(self, channel, rng):
        reader = Reader(config=ReaderConfig(read_rate_hz=100.0))
        records = reader.collect_static(channel, (0.0, 0.0, 0.0), 10, rng)
        assert records[1].timestamp_s - records[0].timestamp_s == pytest.approx(0.01)

    def test_zero_count_rejected(self, channel, rng):
        with pytest.raises(ValueError):
            Reader().collect_static(channel, (0.0, 0.0, 0.0), 0, rng)


class TestReadRecord:
    def test_wavelength_property(self):
        record = ReadRecord(
            epc="x", antenna="a", timestamp_s=0.0, channel_index=-1,
            frequency_hz=DEFAULT_FREQUENCY_HZ, phase_rad=1.0, rssi_dbm=-50.0,
            tag_position=(1.0, 2.0, 3.0),
        )
        assert record.wavelength_m == pytest.approx(0.3256, abs=1e-3)

    def test_position_array(self):
        record = ReadRecord(
            epc="x", antenna="a", timestamp_s=0.0, channel_index=-1,
            frequency_hz=DEFAULT_FREQUENCY_HZ, phase_rad=1.0, rssi_dbm=-50.0,
            tag_position=(1.0, 2.0, 3.0),
        )
        assert np.array_equal(record.position_array(), [1.0, 2.0, 3.0])


class TestReaderConfigValidation:
    def test_bad_frequency(self):
        with pytest.raises(ValueError):
            ReaderConfig(frequency_hz=0.0)

    def test_bad_read_rate(self):
        with pytest.raises(ValueError):
            ReaderConfig(read_rate_hz=-1.0)

    def test_bad_dropout(self):
        with pytest.raises(ValueError):
            ReaderConfig(dropout_probability=1.0)

    def test_bad_hop_interval(self):
        with pytest.raises(ValueError):
            ReaderConfig(hop_interval_s=0.0)
