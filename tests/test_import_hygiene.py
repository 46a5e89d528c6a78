"""Tests for the import-hygiene gate (tools/check_import_hygiene.py).

The tool also runs standalone in CI's lint job; these tests keep its
verdict correct in both directions — the tree is currently clean, and a
sneaky import (even a lazy one inside a function) is caught: a solver
import in the harness, an upward import in core or baselines, a
serving import in the session layer, or a calibration-registry import
in the serving engine.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "check_import_hygiene.py"

spec = importlib.util.spec_from_file_location("check_import_hygiene", TOOL)
hygiene = importlib.util.module_from_spec(spec)
sys.modules.setdefault("check_import_hygiene", hygiene)
spec.loader.exec_module(hygiene)


class TestGateOnTree:
    def test_tree_is_clean(self):
        assert hygiene.main() == 0

    def test_gate_covers_experiments_and_cli(self):
        names = {path.name for path in hygiene.gated_files()}
        assert "cli.py" in names
        assert "montecarlo.py" in names
        assert "figures_eval.py" in names


class TestGateVerdicts:
    def test_flags_solver_module_import(self):
        assert hygiene._is_forbidden("repro.core.localizer")
        assert hygiene._is_forbidden("repro.core.adaptive")
        assert hygiene._is_forbidden("repro.core.online")
        assert hygiene._is_forbidden("repro.core.multiref")
        assert hygiene._is_forbidden("repro.core.multiantenna")
        assert hygiene._is_forbidden("repro.core")

    def test_flags_baselines(self):
        assert hygiene._is_forbidden("repro.baselines")
        assert hygiene._is_forbidden("repro.baselines.hologram")

    def test_allows_calibration_and_pipeline(self):
        assert not hygiene._is_forbidden("repro.core.calibration")
        assert not hygiene._is_forbidden("repro.pipeline")
        assert not hygiene._is_forbidden("repro.datasets.io")
        assert not hygiene._is_forbidden("repro.corelike")

    def test_catches_lazy_function_level_import(self):
        import ast

        tree = ast.parse(
            "def sneaky():\n"
            "    from repro.core.localizer import LionLocalizer\n"
            "    from repro import pipeline\n"
            "    return LionLocalizer, pipeline\n"
        )
        modules = [module for _, module in hygiene._imported_modules(tree)]
        assert "repro.core.localizer" in modules
        # A name imported from a package may be a submodule.
        assert "repro.pipeline" in modules


class TestDownwardOnly:
    """The solver rule: core and baselines never import the layers above."""

    def test_flags_every_upper_layer(self):
        for module in (
            "repro.pipeline",
            "repro.pipeline.contract",
            "repro.serve",
            "repro.serve.net.http",
            "repro.stream",
            "repro.calib.store",
            "repro.experiments.montecarlo",
            "repro.cli",
        ):
            assert hygiene._is_upper(module), module

    def test_allows_lower_layers_and_lookalikes(self):
        for module in (
            "repro.core.localizer",
            "repro.signalproc.unwrap",
            "repro.obs",
            "repro.parallel",
            "repro.lru",
            "repro.pipelines",
            "repro.client",
        ):
            assert not hygiene._is_upper(module), module

    def test_gate_covers_core_and_baselines_only(self):
        relative = {
            path.relative_to(hygiene.SRC).as_posix() for path in hygiene.solver_files()
        }
        assert "repro/core/adaptive.py" in relative
        assert "repro/core/batch_prepare.py" in relative
        assert "repro/baselines/hyperbola.py" in relative
        assert not any(
            name.startswith(("repro/pipeline/", "repro/serve/")) for name in relative
        )

    def test_one_message_per_import_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hygiene, "REPO_ROOT", tmp_path)
        offender = tmp_path / "shim.py"
        offender.write_text(
            "from repro.pipeline.contract import EstimationRequest, build_report\n"
        )
        messages = hygiene.check_solver_file(offender)
        assert messages == [
            "shim.py:1: imports 'repro.pipeline.contract'; core and baselines "
            "may import only the layers below them"
        ]


class TestStreamLayering:
    """The second rule: nothing below repro.stream may import it back."""

    def test_flags_stream_imports(self):
        assert hygiene._is_stream("repro.stream")
        assert hygiene._is_stream("repro.stream.manager")
        assert hygiene._is_stream("repro.stream.session")

    def test_does_not_flag_lookalikes_or_lower_layers(self):
        assert not hygiene._is_stream("repro.streaming")
        assert not hygiene._is_stream("repro.serve")
        assert not hygiene._is_stream("repro.core")

    def test_gate_exempts_only_the_session_surface(self):
        relative = {
            path.relative_to(hygiene.SRC).as_posix()
            for path in hygiene.stream_gated_files()
        }
        # the allowed importers are NOT gated...
        assert "repro/cli.py" not in relative
        assert not any(name.startswith("repro/stream/") for name in relative)
        assert not any(name.startswith("repro/serve/net/") for name in relative)
        # ...but everything else below the session layer is.
        assert "repro/__init__.py" in relative
        assert "repro/serve/engine.py" in relative
        assert "repro/core/localizer.py" in relative
        assert "repro/pipeline/registry.py" in relative

    def test_flags_violation_even_when_lazy(self, tmp_path):
        offender = hygiene.SRC / "repro" / "_hygiene_probe.py"
        offender.write_text(
            "def sneaky():\n"
            "    from repro.stream import SessionManager\n"
            "    return SessionManager\n"
        )
        try:
            messages = hygiene.check_stream_file(offender)
        finally:
            offender.unlink()
        assert len(messages) == 1
        assert "repro.stream" in messages[0]
        assert "session layer" in messages[0]

    def test_session_layer_files_and_serve_prefix(self):
        relative = {
            path.relative_to(hygiene.SRC).as_posix() for path in hygiene.stream_files()
        }
        assert "repro/stream/manager.py" in relative
        assert all(name.startswith("repro/stream/") for name in relative)
        assert hygiene._is_serve("repro.serve")
        assert hygiene._is_serve("repro.serve.engine")
        assert not hygiene._is_serve("repro.server")
        assert not hygiene._is_serve("repro.stream")

    def test_flags_serve_import_in_session_layer(self, tmp_path, monkeypatch, capsys):
        # A synthetic tree whose session layer imports the serving engine
        # lazily: the gate reports exactly that one line.
        repro = tmp_path / "src" / "repro"
        (repro / "stream").mkdir(parents=True)
        (repro / "cli.py").write_text("")
        (repro / "stream" / "manager.py").write_text(
            "from repro.stream.config import StreamConfig\n"
            "def engine():\n"
            "    from repro.serve.engine import ServeEngine\n"
            "    return ServeEngine, StreamConfig\n"
        )
        monkeypatch.setattr(hygiene, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(hygiene, "SRC", tmp_path / "src")
        assert hygiene.main() == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "import-hygiene violations:",
            "  src/repro/stream/manager.py:3: imports 'repro.serve.engine'; "
            "repro.serve.net imports the session layer, which may not import it back",
        ]


class TestCalibLayering:
    """The calibration rule: only the HTTP front end and the CLI import it."""

    def test_flags_calib_imports_only(self):
        assert hygiene._is_calib("repro.calib")
        assert hygiene._is_calib("repro.calib.resolver")
        assert not hygiene._is_calib("repro.calibration")
        assert not hygiene._is_calib("repro.core.calibration")

    def test_gate_exempts_only_the_front_end_and_cli(self):
        relative = {
            path.relative_to(hygiene.SRC).as_posix()
            for path in hygiene.calib_gated_files()
        }
        assert "repro/cli.py" not in relative
        assert not any(name.startswith("repro/calib/") for name in relative)
        assert not any(name.startswith("repro/serve/net/") for name in relative)
        # The engine and the rest of repro.serve are gated now.
        assert "repro/serve/engine.py" in relative
        assert "repro/serve/batching.py" in relative
        assert "repro/pipeline/contract.py" in relative

    def test_flags_annotation_only_import_in_engine(self, tmp_path, monkeypatch, capsys):
        # A synthetic tree whose serving engine imports the resolver for
        # annotations only, beside a front end that may import it: the
        # gate reports exactly the engine's line.
        repro = tmp_path / "src" / "repro"
        (repro / "serve" / "net").mkdir(parents=True)
        (repro / "cli.py").write_text("import repro.calib\n")
        (repro / "serve" / "net" / "http.py").write_text(
            "from repro.calib import CalibrationResolver\n"
        )
        (repro / "serve" / "engine.py").write_text(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.calib.resolver import CalibrationResolver\n"
        )
        monkeypatch.setattr(hygiene, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(hygiene, "SRC", tmp_path / "src")
        assert hygiene.main() == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "import-hygiene violations:",
            "  src/repro/serve/engine.py:3: imports 'repro.calib.resolver'; "
            "only repro.serve.net and the CLI may import the calibration registry",
        ]
