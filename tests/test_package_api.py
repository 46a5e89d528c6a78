"""Package-level API integrity checks.

These are the release gates an open-source project runs in CI: every name
promised by ``__all__`` must exist, every public callable must carry a
docstring, and the version must be sane. They catch the classic refactor
accidents (renamed function, forgotten export) that unit tests of the
moved code itself cannot.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.constants",
    "repro.viz",
    "repro.cli",
    "repro.geometry",
    "repro.signalproc",
    "repro.rf",
    "repro.trajectory",
    "repro.core",
    "repro.baselines",
    "repro.pipeline",
    "repro.pipeline.config",
    "repro.pipeline.contract",
    "repro.pipeline.registry",
    "repro.pipeline.estimators",
    "repro.pipeline.batch",
    "repro.datasets",
    "repro.experiments",
    "repro.experiments.crlb",
    "repro.experiments.montecarlo",
    "repro.experiments.reporting",
]


def _walk_public_modules():
    """Every importable module in the package."""
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        modules.append(info.name)
    return modules


class TestExports:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    def test_every_submodule_imports(self):
        for module_name in _walk_public_modules():
            importlib.import_module(module_name)

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_root_all_covers_key_apis(self):
        for name in (
            "LionLocalizer",
            "calibrate_antenna",
            "DifferentialHologram",
            "simulate_scan",
            "ThreeLineScan",
            "OnlineLionLocalizer",
            "EstimationRequest",
            "estimate",
            "create_estimator",
        ):
            assert name in repro.__all__


class TestOneEntryPointPerMethod:
    """A solver's ``_<name>_impl`` is reached only through the registry."""

    def test_no_public_twin_of_any_impl(self):
        twins = set()
        for package in (repro.core, repro.baselines):
            for info in pkgutil.iter_modules(package.__path__, prefix=package.__name__ + "."):
                module = importlib.import_module(info.name)
                for name in vars(module):
                    if not (name.startswith("_") and name.endswith("_impl")):
                        continue
                    public = name[1 : -len("_impl")]
                    twins.add(public)
                    for namespace in (module, repro, repro.core, repro.baselines):
                        assert not hasattr(namespace, public), (
                            f"{namespace.__name__}.{public} is a second entry point"
                        )
        # adaptive, multiref, multiantenna, hyperbola, parabola, angle
        assert len(twins) == 6


class TestEstimatorRegistry:
    """The registry is the package's serving surface: complete, no dupes."""

    EXPECTED = [
        "angle",
        "hologram",
        "hyperbola",
        "lion",
        "lion-adaptive",
        "lion-multiantenna",
        "lion-multiref",
        "lion-online",
        "parabola",
    ]

    def test_registry_lists_every_estimator_exactly_once(self):
        names = repro.estimator_names()
        assert names == self.EXPECTED
        assert len(names) == len(set(names))

    def test_every_estimator_constructible_by_name(self):
        for name in repro.estimator_names():
            estimator = repro.create_estimator(name)
            assert isinstance(estimator, repro.Estimator)
            assert estimator.name == name

    def test_every_summary_nonempty(self):
        for name, summary in repro.list_estimators().items():
            assert summary.strip(), f"estimator {name!r} has no summary"


class TestDocstrings:
    def _public_members(self, module):
        names = getattr(module, "__all__", None)
        if names is None:
            names = [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            member = getattr(module, name, None)
            if member is None:
                continue
            if inspect.isfunction(member) or inspect.isclass(member):
                if getattr(member, "__module__", "").startswith("repro"):
                    yield f"{module.__name__}.{name}", member

    def test_all_public_callables_documented(self):
        undocumented = []
        for module_name in _walk_public_modules():
            module = importlib.import_module(module_name)
            for qualified, member in self._public_members(module):
                if not (member.__doc__ or "").strip():
                    undocumented.append(qualified)
        assert not undocumented, f"missing docstrings: {sorted(set(undocumented))}"

    def test_all_modules_documented(self):
        missing = [
            name
            for name in _walk_public_modules()
            if not (importlib.import_module(name).__doc__ or "").strip()
        ]
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_methods_documented_on_key_classes(self):
        from repro.core.localizer import LionLocalizer
        from repro.core.online import OnlineLionLocalizer
        from repro.baselines.hologram import DifferentialHologram

        for cls in (LionLocalizer, OnlineLionLocalizer, DifferentialHologram):
            for name, member in vars(cls).items():
                if name.startswith("_") or not callable(member):
                    continue
                assert (member.__doc__ or "").strip(), f"{cls.__name__}.{name} undocumented"
