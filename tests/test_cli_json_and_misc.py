"""Tests for CLI JSON export, extension runners and result serialization."""

import json

from repro.cli import main
from repro.experiments.figures import run_figure
from repro.experiments.metrics import ExperimentResult


class TestJsonExport:
    def test_single_figure_json(self, tmp_path, capsys):
        out = tmp_path / "fig02.json"
        assert main(["run", "fig02", "--fast", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["figure_id"] == "fig02"
        assert payload["columns"] == [
            "scan_axis", "valley_offset_cm", "true_displacement_cm"
        ]
        assert len(payload["rows"]) == 2

    def test_json_roundtrip_through_from_dict(self, tmp_path):
        out = tmp_path / "fig.json"
        main(["run", "fig02", "--fast", "--json", str(out)])
        payload = json.loads(out.read_text())
        rebuilt = ExperimentResult.from_dict(payload)
        assert rebuilt.figure_id == "fig02"
        assert len(rebuilt.rows) == 2

    def test_to_json_matches_to_dict(self):
        result = ExperimentResult("x", "t", columns=["a"])
        result.add_row(a=1.5)
        assert json.loads(result.to_json()) == result.to_dict()


class TestExtensionRunnersViaCli:
    def test_ext_wander_runs(self, capsys):
        assert main(["run", "ext_wander", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "wander_mm" in out

    def test_list_includes_extensions(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "ext_online" in out
        assert "fig21" in out


class TestExtensionResults:
    def test_ext_online_converges(self):
        result = run_figure("ext_online", seed=1, fast=True)
        errors = [float(v) for v in result.column("mean_error_cm")]
        assert errors[-1] < errors[0]
        assert errors[-1] < 1.0

    def test_ext_wander_monotone(self):
        result = run_figure("ext_wander", seed=0, fast=True)
        floors = [float(v) for v in result.column("floor_error_cm")]
        assert floors == sorted(floors)
        assert floors[0] < 0.1

    def test_ext_multiref_ordering(self):
        result = run_figure("ext_multiref", seed=0, fast=True)
        by_variant = {row["variant"]: row["mean_error_cm"] for row in result.rows}
        assert by_variant["stitched three-line (paper)"] < 1.0
        # Multiref variants work (bounded error) without any stitching.
        assert by_variant["separate sweeps (multiref)"] < 8.0
        assert by_variant["frequency-hopped 2D (multiref)"] < 5.0
