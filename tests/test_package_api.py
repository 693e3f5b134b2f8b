"""Package-level API tests: exports, version, and docstring examples."""

import doctest
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"
        from repro.version import PAPER

        assert "Intersectional" in PAPER

    def test_setup_py_declares_name_and_version(self):
        pytest.importorskip("setuptools")
        result = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.splitlines()[-2:] == ["repro", repro.__version__]

    @pytest.mark.parametrize("name", repro.__all__)
    def test_all_names_resolve(self, name):
        assert getattr(repro, name) is not None

    def test_core_quick_path(self):
        """The README quickstart snippet works verbatim."""
        from repro import Table, dataset_edf, interpret_epsilon, subset_sweep

        table = Table.from_dict(
            {
                "gender": ["F", "F", "M", "M", "M", "F"],
                "race": ["X", "Y", "X", "Y", "X", "X"],
                "loan": ["no", "yes", "yes", "yes", "no", "yes"],
            }
        )
        result = dataset_edf(table, protected=["gender", "race"], outcome="loan")
        assert result.epsilon >= 0
        interpret_epsilon(result.epsilon)
        sweep = subset_sweep(table, protected=["gender", "race"], outcome="loan")
        assert sweep.theorem_bound() == pytest.approx(2 * sweep.full_epsilon)


SUBPACKAGES = [
    "repro.core",
    "repro.tabular",
    "repro.distributions",
    "repro.mechanisms",
    "repro.metrics",
    "repro.learn",
    "repro.data",
    "repro.audit",
    "repro.utils",
]


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_imports_cleanly(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} is missing a docstring"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert getattr(module, name) is not None, f"{module_name}.{name}"


METRIC_MODULES = [
    "repro.metrics.calibration",
    "repro.metrics.demographic_parity",
    "repro.metrics.equalized_odds",
    "repro.metrics.subgroup_fairness",
]


class TestMetricExportCompleteness:
    """Every public def/class in a metric module is re-exported.

    ``demographic_parity_epsilon`` spent several releases defined and
    documented but absent from both the module ``__all__`` and the
    package surface; this closes the class of bug."""

    @pytest.mark.parametrize("module_name", METRIC_MODULES)
    def test_module_all_covers_every_public_definition(self, module_name):
        import inspect

        module = importlib.import_module(module_name)
        public = {
            name
            for name, item in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(item) or inspect.isclass(item))
            and getattr(item, "__module__", None) == module_name
        }
        missing = public - set(module.__all__)
        assert not missing, f"{module_name}.__all__ is missing {sorted(missing)}"

    @pytest.mark.parametrize("module_name", METRIC_MODULES)
    def test_package_all_covers_every_module_export(self, module_name):
        import repro.metrics

        module = importlib.import_module(module_name)
        missing = set(module.__all__) - set(repro.metrics.__all__)
        assert not missing, (
            f"repro.metrics.__all__ is missing {sorted(missing)} "
            f"from {module_name}"
        )

    def test_the_original_orphan_is_reachable(self):
        import repro.metrics

        assert "demographic_parity_epsilon" in repro.metrics.__all__
        assert callable(repro.metrics.demographic_parity_epsilon)


DOCTEST_MODULES = [
    "repro.core.empirical",
    "repro.utils.formatting",
]


class TestDoctests:
    @pytest.mark.parametrize("module_name", DOCTEST_MODULES)
    def test_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        failures, _ = doctest.testmod(module, verbose=False)
        assert failures == 0


class TestPublicDocstrings:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_callables_documented(self, module_name):
        """Every public item reachable from a subpackage has a docstring."""
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            item = getattr(module, name)
            if callable(item) or isinstance(item, type):
                assert item.__doc__, f"{module_name}.{name} lacks a docstring"
