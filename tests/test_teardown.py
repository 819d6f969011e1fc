"""A finished simulation is freed by reference counting.

The ownership rule (docs/PERFORMANCE.md, "Teardown"): the whole holds
its parts, and a part's hook back to the whole is weak or captures only
plain state.  Then no run leaves cyclic garbage behind: the moment the
last reference to a network (and its memory system) goes, everything
it built goes with it, without waiting for a full collection.  Each
test here runs with the cyclic collector disabled and checks, through
``weakref``, that the run's objects are gone once its caller returns.
"""

import gc
import weakref

import pytest

import repro.harness.experiment as experiment
from repro import Design, Network, NetworkConfig
from repro.faults import FaultSpec
from repro.harness import ExperimentRunner
from repro.memsys.system import MemorySystem
from repro.obs.hub import Observability, ObservabilityOptions
from repro.service.jobs import JobSpec
from repro.traffic.synthetic import uniform_random_traffic
from repro.traffic.workloads import WORKLOADS


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees objects while the test runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


#: Weak references to one router and the static-energy cache (when
#: there is one) of every network the harness builds: a cycle between
#: them outlives the network without keeping the network itself alive.
_NETWORK_PARTS = []


@pytest.fixture
def simulated(monkeypatch):
    """Weak references to every network and traffic driver the harness
    builds (a faulted run's driver is its ``(injector, source)`` pair);
    their routers and caches go to :data:`_NETWORK_PARTS`."""
    refs = []
    _NETWORK_PARTS.clear()
    simulate = experiment._simulate

    def recording(job, build, phases):
        net, driver, outcome, payload = simulate(job, build, phases)
        parts = driver if isinstance(driver, tuple) else (driver,)
        refs.extend(weakref.ref(obj) for obj in (net,) + parts)
        _NETWORK_PARTS.extend(_network_parts(net))
        return net, driver, outcome, payload

    monkeypatch.setattr(experiment, "_simulate", recording)
    return refs


def _alive(refs):
    return [type(ref()).__name__ for ref in refs if ref() is not None]


def _network_parts(net):
    """Weak references to a router of ``net`` and its static-energy
    cache, if it has one."""
    parts = (net.routers[0], net._static_cache)
    return [weakref.ref(obj) for obj in parts if obj is not None]


def _open_loop_run(design, engine):
    net = Network(NetworkConfig(width=4, height=4), design, seed=1,
                  engine=engine)
    source = uniform_random_traffic(net, 0.3, seed=2, source_queue_limit=60)
    source.run(300)
    assert net.stats.packets_completed > 0
    return (weakref.ref(net), weakref.ref(source)), _network_parts(net)


@pytest.mark.parametrize("engine", ["active", "naive"])
@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
def test_open_loop_run_is_freed(design, engine, no_cyclic_gc):
    refs, parts = _open_loop_run(design, engine)
    assert _alive(refs) == []
    assert parts and _alive(parts) == []


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
def test_closed_loop_run_is_freed(design, simulated, no_cyclic_gc):
    runner = ExperimentRunner(warmup_cycles=100, measure_cycles=300, seeds=1)
    result = runner.run_closed_loop(design, WORKLOADS["apache"])
    assert result.performance > 0
    # The network and its memory system.
    assert len(simulated) == 2 and _alive(simulated) == []
    # A router and the static-energy cache of the network.
    assert _NETWORK_PARTS and _alive(_NETWORK_PARTS) == []


def test_sanitized_run_is_freed(simulated, no_cyclic_gc):
    runner = ExperimentRunner(
        warmup_cycles=100, measure_cycles=300, seeds=1, sanitize=True
    )
    runner.run_closed_loop(Design.AFC, WORKLOADS["apache"])
    assert len(simulated) == 2 and _alive(simulated) == []


def test_observed_then_detached_run_is_freed(no_cyclic_gc):
    def run():
        net = Network(NetworkConfig(width=4, height=4), Design.AFC, seed=1)
        observer = Observability(
            net, ObservabilityOptions(trace=True, metrics=True, profile=True)
        ).attach()
        uniform_random_traffic(net, 0.3, seed=2).run(200)
        observer.detach()
        return weakref.ref(net), weakref.ref(observer)

    assert _alive(run()) == []


def test_faulted_seed_is_freed(simulated, no_cyclic_gc):
    spec = JobSpec(
        kind="faulted",
        design=Design.BACKPRESSURED,
        rate=0.2,
        warmup_cycles=100,
        measure_cycles=400,
        fault=FaultSpec(
            seed=1, link_flap_rate=8.0, bit_error_rate=4.0,
            credit_loss_rate=8.0, link_kills=1,
        ),
    )
    sample = spec.run_seed(0)
    assert sample.fault_events > 0
    # The network, the injector and the traffic source.
    assert len(simulated) == 3 and _alive(simulated) == []


def test_memory_system_keeps_its_network_running(no_cyclic_gc):
    net = Network(NetworkConfig(), Design.AFC, seed=1)
    system = MemorySystem(net, WORKLOADS["apache"], seed=2)
    net_ref = weakref.ref(net)
    del net
    system.run(300)
    assert net_ref() is not None
    assert system.transactions_completed > 0
    system_ref = weakref.ref(system)
    del system
    assert _alive([net_ref, system_ref]) == []
