"""Tests for the CLI (python -m repro / lion)."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig13a" in out
        assert "fig21" in out


class TestRun:
    def test_runs_single_figure(self, capsys):
        assert main(["run", "fig02", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out
        assert "valley_offset_cm" in out

    def test_seed_flag(self, capsys):
        assert main(["run", "fig02", "--fast", "--seed", "3"]) == 0

    def test_unknown_figure_errors(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestDataTooling:
    def test_simulate_then_locate(self, tmp_path, capsys):
        csv_path = str(tmp_path / "scan.csv")
        assert main(["simulate", "--scenario", "conveyor", "--out", csv_path,
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert main(["locate", csv_path, "--dim", "2"]) == 0
        out = capsys.readouterr().out
        assert "estimated position" in out
        assert "lower-dimension" in out

    def test_locate_ls_method(self, tmp_path, capsys):
        csv_path = str(tmp_path / "scan.csv")
        main(["simulate", "--out", csv_path, "--seed", "1"])
        capsys.readouterr()
        assert main(["locate", csv_path, "--method", "ls"]) == 0

    def test_simulate_turntable(self, tmp_path, capsys):
        csv_path = str(tmp_path / "turn.csv")
        assert main(["simulate", "--scenario", "turntable", "--out", csv_path]) == 0

    def test_calibrate_three_line(self, tmp_path, capsys):
        csv_path = str(tmp_path / "cal.csv")
        main(["simulate", "--scenario", "three-line", "--out", csv_path,
              "--seed", "6", "--noise", "0.05"])
        capsys.readouterr()
        assert main(["calibrate", csv_path, "--physical-center", "0,0.8,0"]) == 0
        out = capsys.readouterr().out
        assert "estimated phase center" in out
        assert "phase offset" in out

    def test_calibrate_bad_center_format(self, tmp_path):
        csv_path = str(tmp_path / "cal.csv")
        main(["simulate", "--scenario", "three-line", "--out", csv_path])
        with pytest.raises(SystemExit):
            main(["calibrate", csv_path, "--physical-center", "nonsense"])


class TestTopCommand:
    def _timeseries(self, rows=3):
        return {
            "cadence_s": 1.0,
            "window_s": 60.0,
            "samples": [
                {
                    "t": float(i), "dt": 1.0, "req_s": 10.0 + i, "err_s": 0.0,
                    "shed_s": 0.0, "p50_ms": 4.0, "p99_ms": 9.0 if i else None,
                    "inflight": 1.0, "queue_depth": 0.0,
                }
                for i in range(rows)
            ],
        }

    def _slo(self, state="ok"):
        return {
            "route": "/v1/locate",
            "state": state,
            "objectives": [
                {
                    "name": "latency_p99_le_250ms", "kind": "latency",
                    "state": state, "budget_remaining": 1.0,
                    "windows": [
                        {"window_s": 30.0, "burn_rate": 0.0, "burning": False},
                    ],
                }
            ],
        }

    def test_render_top_frame(self):
        from repro.cli import _render_top

        frame = _render_top("http://x", self._timeseries(), self._slo(), 60.0)
        assert "lion top — http://x" in frame
        assert "samples=3" in frame and "slo=ok" in frame
        assert "req/s" in frame and "queue" in frame
        assert "slo latency_p99_le_250ms: ok" in frame
        assert "budget_remaining=1.0" in frame

    def test_render_top_burning_and_empty(self):
        from repro.cli import _render_top

        slo = self._slo("burning")
        slo["objectives"][0]["windows"][0].update(burn_rate=50.0, burning=True)
        frame = _render_top("http://x", {"samples": []}, slo, 60.0)
        assert "no samples yet" in frame
        assert "burning_windows=[30.0]" in frame and "max_burn=50" in frame

    def test_top_once_against_live_server(self, capsys):
        from repro.serve.net import NetServeConfig, ServerHandle

        config = NetServeConfig(port=0, shards=1, worker_mode="thread", history_cadence_s=0.05)
        with ServerHandle(config) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            assert main(["top", url, "--once"]) == 0
        out = capsys.readouterr().out
        assert "lion top —" in out and "slo=" in out

    def test_top_rejects_bad_interval_and_window(self):
        assert main(["top", "http://127.0.0.1:1", "--interval", "0", "--once"]) == 2
        assert main(["top", "http://127.0.0.1:1", "--window", "-5", "--once"]) == 2

    def test_top_unreachable_server_exits_1(self):
        import socket

        # Grab a port that is definitely closed.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["top", f"http://127.0.0.1:{port}", "--once"]) == 1
