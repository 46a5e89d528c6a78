"""Acceptance: the full fleet loop — drift, detect, recalibrate, serve.

Drives the whole PR surface end to end with a 10-antenna fleet:
calibrations seeded through the scheduler, truth drifted by the
simulator, staleness detected from *real* :mod:`repro.stream` drift
alarms on a live :class:`EventBus`, repair fanned through the
``process`` executor, commits persisted across a store reopen, and the
HTTP front end resolving named antennas on ``POST /v1/locate`` to
positions **bit-identical** to hand-running :func:`calibrate_antenna` +
the registry estimator on explicit arrays. Also covers mixed-version
pinned reads (old and new calibrations localized together).
"""

import http.client
import json

import numpy as np

from repro import pipeline
from repro.calib import (
    CalibrationStore,
    DriftMonitor,
    RecalibrationScheduler,
    StalenessPolicy,
    fleet_scan_source,
)
from repro.core.calibration import calibrate_antenna, relative_phase_offsets
from repro.datasets.fleet import AntennaFleet, FleetDriftConfig
from repro.serve.net import NetServeConfig, ServerHandle
from repro.stream import CalibrationDriftAlarm, EventBus

FLEET_SIZE = 10
DRIFT_HOURS = 12.0
TAG = (0.4, -0.6, 0.1)
GRID = {"grid_size_m": 0.01}


def _bounds(tag, half=0.12):
    return tuple((coord - half, coord + half) for coord in tag)


def _http(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _direct_calibrations(fleet, salt):
    """The reference path: calibrate every antenna by hand, same scans."""
    calibrations = []
    for name in fleet.names:
        scan, grid = fleet.calibration_scan(name, salt=salt)
        calibration, _ = calibrate_antenna(
            scan.positions,
            scan.phases,
            fleet.antenna(name).physical_center_array,
            antenna_name=name,
            segment_ids=scan.segment_ids,
            exclude_mask=scan.exclude_mask,
            grid=grid,
        )
        calibrations.append(calibration)
    relative = relative_phase_offsets(calibrations)
    offsets = np.asarray([relative[name] for name in fleet.names])
    centers = np.asarray([c.estimated_center for c in calibrations])
    return offsets, centers


class TestFleetLoop:
    def test_drift_detect_recalibrate_serve(self, tmp_path):
        fleet = AntennaFleet(FleetDriftConfig(size=FLEET_SIZE, seed=0))
        store = CalibrationStore(tmp_path / "fleet")

        # -- seed: first calibration of every antenna -------------------
        seed_report = RecalibrationScheduler(
            store, fleet_scan_source(fleet, salt=0), executor="serial", source="seed"
        ).recalibrate(fleet.names)
        assert len(seed_report.committed) == FLEET_SIZE
        assert not seed_report.failures and not seed_report.conflicts

        # -- drift: half a day of offset walk + thermal swing -----------
        fleet.advance(DRIFT_HOURS * 3600.0)

        # -- detect: real stream alarms on a live bus -------------------
        monitor = DriftMonitor(
            store, StalenessPolicy(max_drift_alarms=2, alarm_window_s=600.0)
        )
        bus = EventBus()
        monitor.attach(bus)
        for sequence in range(2):
            for index, name in enumerate(fleet.names):
                bus.publish(
                    CalibrationDriftAlarm(
                        session_id=f"sess-{index}",
                        tag="tag-0",
                        antenna=name,
                        sequence=sequence,
                        timestamp_s=float(sequence),
                        drift_m=0.12,
                    )
                )

        # -- repair: scheduler cycle through the process executor -------
        scheduler = RecalibrationScheduler(
            store,
            fleet_scan_source(fleet, salt=1),
            executor="process",
            jobs=4,
            source="scheduled",
            manifest={"cycle": 1},
        )
        report, stale = scheduler.run_cycle(monitor)
        assert sorted(stale) == sorted(fleet.names)
        assert report.committed == {name: 2 for name in fleet.names}
        assert not report.failures and not report.conflicts

        # -- persistence: a cold reopen sees the same registry ----------
        reopened = CalibrationStore(tmp_path / "fleet", create=False)
        assert reopened.generation == store.generation
        assert all(reopened.latest(n).version == 2 for n in fleet.names)
        assert all(reopened.latest(n).manifest == {"cycle": 1} for n in fleet.names)

        # -- reference: the same physics by hand ------------------------
        offsets, centers = _direct_calibrations(fleet, salt=1)
        assert np.array_equal(reopened.offsets_for(fleet.names), offsets)
        assert np.array_equal(reopened.centers_for(fleet.names), centers)

        phases = fleet.static_tag_phases(TAG)
        bounds = _bounds(TAG)
        expected = pipeline.estimate(
            "lion-multiantenna",
            pipeline.EstimationRequest(
                positions=centers,
                phases_rad=phases,
                bounds=bounds,
                offset_corrections_rad=offsets,
            ),
            GRID,
        )

        # -- serve: the front end resolves named antennas from the store -
        config = NetServeConfig(
            port=0,
            shards=1,
            worker_mode="thread",
            calibration_store=str(tmp_path / "fleet"),
        )
        body = {
            "estimator": "lion-multiantenna",
            "config": GRID,
            "request": {
                "antennas": list(fleet.names),
                "phases_rad": phases.tolist(),
                "bounds": [list(axis) for axis in bounds],
            },
        }
        with ServerHandle(config) as handle:
            status, served = _http(
                handle.port, "POST", "/v1/locate", json.dumps(body).encode()
            )
            assert status == 200
            _, statz = _http(handle.port, "GET", "/statz")
        position = np.asarray(served["position"])
        assert np.array_equal(position, expected.position)
        assert served["config_hash"] == expected.config_hash
        # The recalibrated fleet actually localizes the tag.
        assert np.linalg.norm(position - np.asarray(TAG)) < 0.05
        resolver = statz["calibration"]["resolver"]
        assert resolver["generation"] == reopened.generation
        assert resolver["misses"] >= 1

    def test_mixed_version_localization_from_store(self, tmp_path):
        fleet = AntennaFleet(FleetDriftConfig(size=4, seed=3))
        store = CalibrationStore(tmp_path / "mixed")
        scheduler = RecalibrationScheduler(
            store, fleet_scan_source(fleet, salt=0), executor="serial", source="seed"
        )
        scheduler.recalibrate(fleet.names)
        fleet.advance(6 * 3600.0)
        RecalibrationScheduler(
            store, fleet_scan_source(fleet, salt=1), executor="serial"
        ).recalibrate(fleet.names)

        # Pin one antenna to its seed calibration, everyone else latest.
        pinned = fleet.names[1]
        pins = {pinned: 1}
        offsets = store.offsets_for(fleet.names, versions=pins)
        centers = store.centers_for(fleet.names, versions=pins)

        manual = [
            store.get(name, pins.get(name, 2)).to_calibration()
            for name in fleet.names
        ]
        relative = relative_phase_offsets(manual)
        assert np.array_equal(
            offsets, np.asarray([relative[name] for name in fleet.names])
        )
        assert np.array_equal(
            centers, np.asarray([c.estimated_center for c in manual])
        )

        # The mixed-version array still localizes (one stale antenna is
        # an error source, not a crash) bit-identically to the manual
        # construction of the same request.
        phases = fleet.static_tag_phases(TAG)
        request = pipeline.EstimationRequest(
            positions=centers,
            phases_rad=phases,
            bounds=_bounds(TAG),
            offset_corrections_rad=offsets,
        )
        from_store = pipeline.estimate("lion-multiantenna", request, GRID)
        by_hand = pipeline.estimate(
            "lion-multiantenna",
            pipeline.EstimationRequest(
                positions=np.asarray([c.estimated_center for c in manual]),
                phases_rad=phases,
                bounds=_bounds(TAG),
                offset_corrections_rad=np.asarray(
                    [relative[name] for name in fleet.names]
                ),
            ),
            GRID,
        )
        assert np.array_equal(from_store.position, by_hand.position)
        assert from_store.diagnostics == by_hand.diagnostics
