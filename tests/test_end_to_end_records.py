"""End-to-end tests through the read-record path (the LLRP-shaped data).

Everything earlier feeds arrays around in memory; these tests force the
full production data path: simulate -> records -> CSV -> reload ->
localize/calibrate, including the frequency-hopping record fields.
"""

import numpy as np
import pytest

from repro.core.calibration import estimate_phase_offset
from repro.core.localizer import LionLocalizer
from repro.datasets.io import read_records_csv, write_records_csv
from repro.datasets.synthetic import simulate_scan, simulate_static_reads
from repro.rf.antenna import Antenna
from repro.rf.noise import GaussianPhaseNoise, NoPhaseNoise
from repro.rf.reader import ReaderConfig
from repro.rf.tag import Tag
from repro.trajectory.linear import LinearTrajectory


class TestRecordPathLocalization:
    def test_locate_from_reloaded_records(self, tmp_path, rng):
        antenna = Antenna(
            physical_center=(0.1, 0.9, 0.0),
            center_displacement=(0.02, -0.01, 0.0),
            boresight=(0, -1, 0),
        )
        scan = simulate_scan(
            LinearTrajectory((-0.5, 0, 0), (0.5, 0, 0)), antenna, rng=rng,
            noise=GaussianPhaseNoise(0.05), read_rate_hz=40.0,
        )
        path = tmp_path / "scan.csv"
        write_records_csv(scan.records, path)
        records = read_records_csv(path)

        positions = np.array([r.tag_position for r in records])
        phases = np.array([r.phase_rad for r in records])
        result = LionLocalizer(dim=2).locate(positions, phases)
        error = np.linalg.norm(result.position - antenna.phase_center[:2])
        assert error < 0.01

    def test_offset_estimate_through_records(self, tmp_path, rng):
        """Eq. 17 offset survives a CSV round trip bit-exactly."""
        antenna = Antenna(
            physical_center=(0.0, 0.8, 0.0),
            phase_offset_rad=1.9,
            boresight=(0, -1, 0),
        )
        tag = Tag(phase_offset_rad=0.6)
        records = simulate_static_reads(
            antenna, tag, (0.0, 0.0, 0.0), 200, rng, noise=GaussianPhaseNoise(0.05)
        )
        path = tmp_path / "static.csv"
        write_records_csv(records, path)
        reloaded = read_records_csv(path)

        positions = np.array([r.tag_position for r in reloaded])
        phases = np.array([r.phase_rad for r in reloaded])
        # Many reads of a single position still yield the offset given the
        # true center (distance identical for all reads).
        estimate = estimate_phase_offset(positions, phases, antenna.phase_center)
        expected = (1.9 + 0.6) % (2 * np.pi)
        delta = (estimate - expected + np.pi) % (2 * np.pi) - np.pi
        assert abs(delta) < 0.05


class TestHoppingRecords:
    def test_hop_fields_roundtrip(self, tmp_path, ideal_antenna, ideal_tag, rng):
        scan = simulate_scan(
            LinearTrajectory((-0.3, 0, 0), (0.3, 0, 0)),
            ideal_antenna, tag=ideal_tag, rng=rng, noise=NoPhaseNoise(),
            read_rate_hz=40.0,
            reader_config=ReaderConfig(
                frequency_hopping=True, hop_interval_s=0.3, read_rate_hz=40.0
            ),
        )
        channels = {r.channel_index for r in scan.records}
        assert len(channels) > 1
        path = tmp_path / "hop.csv"
        write_records_csv(scan.records, path)
        reloaded = read_records_csv(path)
        assert reloaded == scan.records
        for record in reloaded:
            assert record.wavelength_m == pytest.approx(
                299_792_458.0 / record.frequency_hz
            )

    def test_hop_blocks_usable_by_multiref(self, tmp_path, rng):
        """Records grouped by hop channel feed the lion-multiref estimator.

        Note: the simulated phases here use the channel's own wavelength
        per block (as real hopped reads would), built directly rather than
        through Channel (whose wavelength is fixed per config).
        """
        from repro.constants import TWO_PI, wavelength_for_frequency
        from repro.pipeline import EstimationRequest, estimate

        target = np.array([0.05, 0.85])
        x = np.linspace(-0.5, 0.5, 400)
        positions3 = np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=1)
        blocks = np.repeat([3, 17], 200)  # two FCC channels
        wavelengths = {
            3: wavelength_for_frequency(904.25e6),
            17: wavelength_for_frequency(911.25e6),
        }
        phases = np.zeros(400)
        for block in (3, 17):
            members = blocks == block
            distances = np.linalg.norm(positions3[members, :2] - target, axis=1)
            phases[members] = np.mod(
                2.0 * TWO_PI / wavelengths[block] * distances
                + rng.uniform(0, TWO_PI)
                + rng.normal(0, 0.04, 200),
                TWO_PI,
            )
        report = estimate(
            "lion-multiref",
            EstimationRequest(positions=positions3[:, :2], phases_rad=phases, run_ids=blocks),
            {"dim": 2, "interval_m": 0.2, "wavelengths_by_run": wavelengths},
        )
        assert np.linalg.norm(report.position - target) < 0.02
