"""Tests for repro.datasets (synthetic scans + CSV round-trip)."""

import numpy as np
import pytest

from repro.datasets.io import read_records_csv, write_records_csv
from repro.datasets.synthetic import (
    default_antenna,
    simulate_scan,
    simulate_static_reads,
)
from repro.rf.noise import NoPhaseNoise
from repro.rf.reader import ReaderConfig
from repro.trajectory.linear import LinearTrajectory
from repro.trajectory.multiline import ThreeLineScan


class TestDefaultAntenna:
    def test_ideal_without_rng(self):
        antenna = default_antenna((0.0, 1.0, 0.0))
        assert antenna.phase_center == pytest.approx([0.0, 1.0, 0.0])
        assert antenna.phase_offset_rad == 0.0

    def test_random_has_realistic_displacement(self, rng):
        antenna = default_antenna((0.0, 1.0, 0.0), rng)
        magnitude = np.linalg.norm(antenna.center_displacement)
        assert 0.015 < magnitude < 0.035

    def test_boresight_faces_track(self, rng):
        behind = default_antenna((0.0, 1.0, 0.0), rng)
        assert behind.off_boresight_angle((0.0, 0.0, 0.0)) < 0.2


class TestSimulateScan:
    def test_bundle_shapes_consistent(self, ideal_antenna, rng):
        scan = simulate_scan(
            LinearTrajectory((-0.3, 0, 0), (0.3, 0, 0)), ideal_antenna, rng=rng
        )
        n = len(scan)
        assert scan.positions.shape == (n, 3)
        assert scan.phases.shape == (n,)
        assert scan.timestamps_s.shape == (n,)
        assert scan.segment_ids.shape == (n,)
        assert scan.exclude_mask.shape == (n,)
        assert len(scan.records) == n

    def test_single_line_has_no_transits(self, ideal_antenna, rng):
        scan = simulate_scan(
            LinearTrajectory((-0.3, 0, 0), (0.3, 0, 0)), ideal_antenna, rng=rng
        )
        assert not scan.exclude_mask.any()

    def test_three_line_marks_transits(self, ideal_antenna, rng):
        scan = simulate_scan(ThreeLineScan(-0.3, 0.3), ideal_antenna, rng=rng,
                             read_rate_hz=40.0)
        assert scan.exclude_mask.any()
        assert scan.data_positions.shape[0] == int(np.sum(~scan.exclude_mask))

    def test_dropouts_shrink_scan(self, ideal_antenna, rng):
        full = simulate_scan(
            LinearTrajectory((-0.3, 0, 0), (0.3, 0, 0)), ideal_antenna,
            rng=np.random.default_rng(0),
        )
        lossy = simulate_scan(
            LinearTrajectory((-0.3, 0, 0), (0.3, 0, 0)), ideal_antenna,
            rng=np.random.default_rng(0),
            reader_config=ReaderConfig(dropout_probability=0.3),
        )
        assert len(lossy) < len(full)
        assert lossy.segment_ids.shape == (len(lossy),)

    def test_deterministic_given_seed(self, ideal_antenna):
        scans = [
            simulate_scan(
                LinearTrajectory((-0.3, 0, 0), (0.3, 0, 0)),
                ideal_antenna,
                rng=np.random.default_rng(7),
            )
            for _ in range(2)
        ]
        assert scans[0].phases == pytest.approx(scans[1].phases)

    def test_noiseless_matches_geometry(self, ideal_antenna, ideal_tag, rng):
        scan = simulate_scan(
            LinearTrajectory((-0.3, 0, 0), (0.3, 0, 0)),
            ideal_antenna,
            tag=ideal_tag,
            rng=rng,
            noise=NoPhaseNoise(),
        )
        from repro.constants import DEFAULT_WAVELENGTH_M, TWO_PI

        d = np.linalg.norm(
            scan.positions - ideal_antenna.phase_center[np.newaxis, :], axis=1
        )
        expected = np.mod(2.0 * TWO_PI / DEFAULT_WAVELENGTH_M * d, TWO_PI)
        assert scan.phases == pytest.approx(expected)


class TestSimulateStaticReads:
    def test_count(self, ideal_antenna, ideal_tag, rng):
        records = simulate_static_reads(
            ideal_antenna, ideal_tag, (0.0, 0.0, 0.0), 25, rng
        )
        assert len(records) == 25
        assert all(r.tag_position == (0.0, 0.0, 0.0) for r in records)


class TestCsvRoundTrip:
    def test_roundtrip_exact(self, ideal_antenna, rng, tmp_path):
        scan = simulate_scan(
            LinearTrajectory((-0.2, 0, 0), (0.2, 0, 0)), ideal_antenna, rng=rng,
            read_rate_hz=40.0,
        )
        path = tmp_path / "scan.csv"
        write_records_csv(scan.records, path)
        restored = read_records_csv(path)
        assert restored == scan.records

    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_records_csv([], tmp_path / "empty.csv")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_records_csv(tmp_path / "nope.csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_records_csv(path)

    def test_malformed_row_rejected(self, tmp_path, ideal_antenna, rng):
        scan = simulate_scan(
            LinearTrajectory((-0.2, 0, 0), (0.2, 0, 0)), ideal_antenna, rng=rng,
            read_rate_hz=40.0,
        )
        path = tmp_path / "scan.csv"
        write_records_csv(scan.records[:3], path)
        with path.open("a") as handle:
            handle.write("short,row\n")
        with pytest.raises(ValueError):
            read_records_csv(path)
