#!/usr/bin/env python3
"""Import-hygiene gates for the solver, serving, streaming, and calibration layers.

Four rules, all checked by AST walk (so lazy in-function imports count
too), runnable standalone on the source tree — no package install
needed::

    python tools/check_import_hygiene.py

**Downward only.** The solvers sit below everything that serves them.
No file under ``src/repro/core/`` or ``src/repro/baselines/`` may import
``repro.pipeline``, ``repro.serve``, ``repro.stream``, ``repro.calib``,
``repro.experiments`` or ``repro.cli`` — not at module level, not
lazily inside a function, and not as ``from repro import pipeline``.

**Registry dispatch.** The experiment harness and the CLI must dispatch
estimation through the :mod:`repro.pipeline` registry — never by
importing a concrete solver module. This keeps "add a method" a
one-file change and keeps the figure/CLI layer honest about using the
same serving surface downstream users get. For every file under
``src/repro/experiments/`` plus ``src/repro/cli.py``:

- no import of ``repro.baselines`` or any of its submodules;
- no import of ``repro.core`` or any of its submodules, **except**
  ``repro.core.calibration`` (calibration is a workflow on top of
  estimation, not an estimator, and is itself registry-backed inside).

**Stream layering.** :mod:`repro.stream` sits above core/pipeline: it
may import them, but nothing below it may import it back. Within
``src/repro/``, only ``repro/stream/`` itself, ``repro/serve/net/``
(the HTTP face of sessions), and ``repro/cli.py`` (``lion replay``)
may import ``repro.stream`` — so the one-shot path never grows a
hidden dependency on the session subsystem. Because ``repro.serve.net``
imports the session layer, no file under ``src/repro/stream/`` may
import ``repro.serve`` — so the two packages never form an import loop.

**Calibration layering.** :mod:`repro.calib` (the fleet calibration
registry) likewise sits above the solver stack: it may import core /
pipeline / parallel / datasets, but the estimation path must never
depend on the registry — a solver works from explicit arrays whether or
not a store exists. Within ``src/repro/``, only ``repro/calib/`` itself,
``repro/serve/`` (engine resolver wiring and the HTTP face), and
``repro/cli.py`` (``lion calib`` / ``lion serve``) may import
``repro.calib``.

Exits non-zero listing every violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: directories (relative to src/) whose files the downward-only rule gates.
SOLVER_DIRS = ("repro/core", "repro/baselines")
#: the layers above the solvers, which files under SOLVER_DIRS may never import.
UPPER_PREFIXES = (
    "repro.pipeline",
    "repro.serve",
    "repro.stream",
    "repro.calib",
    "repro.experiments",
    "repro.cli",
)

#: import prefixes that registry-dispatch-gated files may never use.
FORBIDDEN_PREFIXES = ("repro.baselines", "repro.core")
#: exact modules exempt from the forbidden prefixes.
ALLOWED_MODULES = ("repro.core.calibration",)

#: the layered package of the stream rule.
STREAM_PREFIX = "repro.stream"
#: directories (relative to src/) whose files may import repro.stream.
STREAM_ALLOWED_DIRS = ("repro/stream", "repro/serve/net")
#: single files (relative to src/) that may import repro.stream.
STREAM_ALLOWED_FILES = ("repro/cli.py",)
#: the serving layer, which files under repro/stream may never import.
SERVE_PREFIX = "repro.serve"

#: the layered package of the calibration rule.
CALIB_PREFIX = "repro.calib"
#: directories (relative to src/) whose files may import repro.calib.
CALIB_ALLOWED_DIRS = ("repro/calib", "repro/serve")
#: single files (relative to src/) that may import repro.calib.
CALIB_ALLOWED_FILES = ("repro/cli.py",)


def solver_files() -> List[Path]:
    """The files the downward-only rule applies to."""
    files: List[Path] = []
    for directory in SOLVER_DIRS:
        files.extend(sorted((SRC / directory).rglob("*.py")))
    return files


def _is_upper(module: str) -> bool:
    return any(module == prefix or module.startswith(prefix + ".") for prefix in UPPER_PREFIXES)


def gated_files() -> List[Path]:
    """The files the registry-dispatch rule applies to."""
    files = sorted((SRC / "repro" / "experiments").rglob("*.py"))
    files.append(SRC / "repro" / "cli.py")
    return files


def stream_gated_files() -> List[Path]:
    """The files the stream-layering rule applies to: all of src/repro
    except the locations allowed to import :mod:`repro.stream`."""
    files = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in STREAM_ALLOWED_FILES:
            continue
        if any(relative.startswith(prefix + "/") for prefix in STREAM_ALLOWED_DIRS):
            continue
        files.append(path)
    return files


def _is_forbidden(module: str) -> bool:
    if module in ALLOWED_MODULES or any(
        module.startswith(allowed + ".") for allowed in ALLOWED_MODULES
    ):
        return False
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in FORBIDDEN_PREFIXES
    )


def _is_stream(module: str) -> bool:
    return module == STREAM_PREFIX or module.startswith(STREAM_PREFIX + ".")


def stream_files() -> List[Path]:
    """The session layer's own files, which may not import :mod:`repro.serve`."""
    return sorted((SRC / "repro" / "stream").rglob("*.py"))


def _is_serve(module: str) -> bool:
    return module == SERVE_PREFIX or module.startswith(SERVE_PREFIX + ".")


def calib_gated_files() -> List[Path]:
    """The files the calibration-layering rule applies to: all of
    src/repro except the locations allowed to import :mod:`repro.calib`."""
    files = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in CALIB_ALLOWED_FILES:
            continue
        if any(relative.startswith(prefix + "/") for prefix in CALIB_ALLOWED_DIRS):
            continue
        files.append(path)
    return files


def _is_calib(module: str) -> bool:
    return module == CALIB_PREFIX or module.startswith(CALIB_PREFIX + ".")


def _imported_modules(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """Every ``(lineno, module)`` imported anywhere in the tree.

    ``from a import b`` yields both ``a`` and ``a.b``: ``b`` may be a
    submodule (``from repro import pipeline``).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def _violations(path: Path, is_bad: Callable[[str], bool], advice: str) -> List[str]:
    """One message per import line of ``path`` that ``is_bad`` flags."""
    tree = ast.parse(path.read_text(), filename=str(path))
    relative = path.relative_to(REPO_ROOT)
    flagged: Dict[int, str] = {}
    for lineno, module in _imported_modules(tree):
        if is_bad(module):
            flagged.setdefault(lineno, module)
    return [
        f"{relative}:{lineno}: imports {module!r}; {advice}"
        for lineno, module in sorted(flagged.items())
    ]


def check_solver_file(path: Path) -> List[str]:
    """Downward-only violation messages for one file (empty when clean)."""
    return _violations(path, _is_upper, "core and baselines may import only the layers below them")


def check_file(path: Path) -> List[str]:
    """Registry-dispatch violation messages for one file (empty when clean)."""
    return _violations(path, _is_forbidden, "dispatch through repro.pipeline instead")


def check_stream_file(path: Path) -> List[str]:
    """Stream-layering violation messages for one file (empty when clean)."""
    return _violations(
        path, _is_stream, "only repro.serve.net and the CLI may import the session layer"
    )


def check_stream_serve_file(path: Path) -> List[str]:
    """Session-layer-imports-serve violation messages (empty when clean)."""
    return _violations(
        path, _is_serve, "repro.serve.net imports the session layer, which may not import it back"
    )


def check_calib_file(path: Path) -> List[str]:
    """Calibration-layering violation messages for one file (empty when clean)."""
    return _violations(
        path, _is_calib, "only repro.serve and the CLI may import the calibration registry"
    )


def main() -> int:
    """Run all four gates over their file sets; 0 when clean."""
    violations: List[str] = []
    solver = solver_files()
    for path in solver:
        violations.extend(check_solver_file(path))
    for path in gated_files():
        violations.extend(check_file(path))
    stream_gated = stream_gated_files()
    for path in stream_gated:
        violations.extend(check_stream_file(path))
    session_files = stream_files()
    for path in session_files:
        violations.extend(check_stream_serve_file(path))
    calib_files = calib_gated_files()
    for path in calib_files:
        violations.extend(check_calib_file(path))
    if violations:
        print("import-hygiene violations:")
        for message in violations:
            print(f"  {message}")
        return 1
    print(
        f"import hygiene OK ({len(solver)} solver, {len(gated_files())} dispatch-gated, "
        f"{len(stream_gated)} stream-gated, {len(session_files)} session-layer, "
        f"{len(calib_files)} calib-gated files checked)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
