"""Public API surface checks: everything exported exists, imports, and
carries documentation."""

import importlib
import inspect

import pytest

from conftest import run_python

PUBLIC_MODULES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.energy",
    "repro.harness",
    "repro.memsys",
    "repro.network",
    "repro.obs",
    "repro.routers",
    "repro.traffic",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_is_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip()


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_exported_classes_and_functions_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{module_name}.{name} lacks a docstring"
            )


def test_top_level_exports_cover_the_headline_types():
    import repro

    for name in (
        "Network",
        "NetworkConfig",
        "Design",
        "AfcRouter",
        "BackpressuredRouter",
        "BackpressurelessRouter",
        "OrionEnergyMeter",
        "StatsCollector",
    ):
        assert name in repro.__all__

    assert repro.__version__


def test_design_enum_is_complete():
    from repro import Design

    values = {d.value for d in Design}
    assert values == {
        "backpressured",
        "backpressureless",
        "afc",
        "afc_always_backpressured",
        "backpressured_ideal_bypass",
        "backpressureless_priority",
        "backpressureless_dropping",
        "backpressured_bypass",
    }


def test_every_design_constructs_a_network():
    from repro import Design, Network, NetworkConfig

    for design in Design:
        net = Network(NetworkConfig(), design, seed=0)
        net.run(5)  # no traffic; must simply not crash


def test_simulation_processes_do_not_load_the_linter():
    """The harness imports ``repro.analysis`` for the sanitizer; that
    must not drag simlint into every simulation and service process.
    ``lint_paths`` still resolves from the package on first use."""
    program = (
        "import sys\n"
        "import repro.harness, repro.service\n"
        "loaded = sorted(m for m in sys.modules"
        " if m.startswith('repro.analysis.simlint'))\n"
        "assert not loaded, loaded\n"
        "from repro.analysis import LintReport, lint_paths\n"
        "assert 'repro.analysis.simlint' in sys.modules\n"
        "assert isinstance(lint_paths([]), LintReport)\n"
    )
    proc = run_python("-c", program)
    assert proc.returncode == 0, proc.stderr
