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
    "repro.faults",
    "repro.harness",
    "repro.memsys",
    "repro.network",
    "repro.obs",
    "repro.routers",
    "repro.service",
    "repro.traffic",
]

#: Packages whose exports resolve on first access (PEP 562).
LAZY_PACKAGES = [
    "repro.analysis",
    "repro.core",
    "repro.faults",
    "repro.obs",
    "repro.service",
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


def test_every_lazy_name_is_listed_and_resolves():
    """In a fresh interpreter, before anything resolved it, ``dir``
    lists every exported name of a lazy package, and each resolves to
    the object its defining submodule holds (a typo in a lazy name map
    fails here)."""
    program = (
        "import importlib\n"
        f"for name in {LAZY_PACKAGES!r}:\n"
        "    package = importlib.import_module(name)\n"
        "    listed = dir(package)\n"
        "    for export in package.__all__:\n"
        "        assert export in listed, (name, export)\n"
        "        value = getattr(package, export)\n"
        "        assert vars(package)[export] is value, (name, export)\n"
        "    try:\n"
        "        package.no_such_name\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(name)\n"
    )
    proc = run_python("-c", program)
    assert proc.returncode == 0, proc.stderr


def test_simulation_processes_import_only_the_simulation():
    """A process that builds and runs simulations, and encodes their
    results, imports neither the service's server nor the fault
    injector, the sanitizer, the threshold search or asyncio."""
    absent = [
        "asyncio",
        "ssl",
        "multiprocessing",
        "concurrent.futures",
        "repro.faults.injector",
        "repro.analysis.sanitizer",
        "repro.core.threshold_search",
        "repro.service.protocol",
        "repro.service.queue",
        "repro.service.client",
        "repro.service.workers",
    ]
    program = (
        "import sys\n"
        "import repro.harness\n"
        "from repro.service import result_to_dict\n"
        f"loaded = [m for m in {absent!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = run_python("-c", program)
    assert proc.returncode == 0, proc.stderr


def test_seed_workers_import_nothing_after_fork():
    """``repro serve`` imports, before its first fork, every module a
    seed unit runs (``repro.service.workers.PRELOAD``): a worker of any
    kind, sanitized or observed, adds nothing to ``sys.modules``, so no
    forked worker imports (or compiles) a module per unit."""
    program = """
import sys, threading

import asyncio
import repro.cli
from repro.service import (
    ExperimentService, JobSpec, ResultStore, ServiceServer, drain,
)

from repro.harness.experiment import KINDS, fork_context
from repro.obs.hub import ObservabilityOptions
from repro.service import workers

observed = ObservabilityOptions(
    trace=True, metrics=True, profile=True, probe_every=50
)
workers.BEAT_INTERVAL = 0.005
ctx = fork_context()


def read_all(receiver, messages):
    try:
        while True:
            messages.append(receiver.recv())
    except EOFError:
        pass


units = []
for kind in KINDS:
    spec = JobSpec(
        kind=kind, warmup_cycles=50, measure_cycles=150, metrics=True
    )
    units.append((spec, ctx.Pipe(duplex=False)))
before = set(sys.modules)
for spec, (receiver, sender) in units:
    messages = []
    reader = threading.Thread(target=read_all, args=(receiver, messages))
    reader.start()
    workers._seed_worker_main(sender, spec.to_dict(), 0)
    reader.join()
    assert all(kind == "beat" for kind, _ in messages[:-1]), messages
    verdict, payload = messages[-1]
    assert verdict == "ok", payload
    spec.run(sanitize=True)
    spec.run(obs=observed)
    added = sorted(set(sys.modules) - before)
    assert not added, (spec.kind, added)
"""
    proc = run_python("-c", program)
    assert proc.returncode == 0, proc.stderr
