"""``Network.subscribe``: every extension coexists, in every order.

One registration entry replaces the single-slot hooks, so the contract
pinned here is the one the old dialects broke when they met:

* any attach order and any detach order of {fault injector +
  protection, sanitizer, trace recorder, observability hub, probe}
  runs, changes no simulation outcome, publishes the fault counters
  and leaves the network with no subscriber;
* a detach removes only its own subscription;
* a vector-engine network is *pushed* to the scalar engine by
  ``subscribe`` itself (there is no per-cycle poll to have blind
  spots), with a recorded reason and bit-identical results.
"""

import itertools

import pytest

from repro import Design, Network, NetworkConfig
from repro.analysis.fingerprint import fingerprint
from repro.analysis.probes import TimeSeriesProbe
from repro.analysis.sanitizer import Sanitizer
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    ProtectionConfig,
)
from repro.network.flit import Packet, VirtualNetwork, reset_packet_ids
from repro.obs.hub import Observability, ObservabilityOptions
from repro.simulation import SITES
from repro.traffic.synthetic import uniform_random_traffic
from repro.traffic.trace import TraceRecorder

#: The fault mix of CI's fault-injection smoke step.
SMOKE_SPEC = FaultSpec(
    seed=1, link_flap_rate=4.0, bit_error_rate=2.0, credit_loss_rate=2.0
)
CYCLES = 500


def control_packet(net: Network, src: int, dst: int) -> Packet:
    return Packet(
        src=src,
        dst=dst,
        vnet=VirtualNetwork.CONTROL_REQ,
        num_flits=1,
        created_at=net.cycle,
    )


# -- the registry itself -------------------------------------------------------


def test_subscribers_run_in_subscription_order_at_every_site():
    net = Network(NetworkConfig(), Design.AFC, seed=0)
    assert not net.subscribed
    calls = []
    for tag in ("first", "second"):
        net.subscribe("cycle_start", lambda c, t=tag: calls.append((t, "s", c)))
        net.subscribe("cycle_end", lambda c, t=tag: calls.append((t, "e", c)))
    net.step()
    assert calls == [
        ("first", "s", 0), ("second", "s", 0),
        ("first", "e", 0), ("second", "e", 0),
    ]
    assert net.subscribed == ("cycle_start", "cycle_end")


def test_unsubscribe_removes_only_the_named_callback_and_is_idempotent():
    net = Network(NetworkConfig(), Design.AFC, seed=0)
    seen_a, seen_b = [], []
    net.subscribe("offer", seen_a.append)
    net.subscribe("offer", seen_b.append)
    net.unsubscribe("offer", seen_a.append)
    net.unsubscribe("offer", seen_a.append)  # not subscribed: ignored
    packet = control_packet(net, src=0, dst=4)
    net.interface(0).offer(packet)
    assert seen_a == [] and seen_b == [packet]
    net.unsubscribe("offer", seen_b.append)
    assert not net.subscribed
    assert all(ni.on_offer is None for ni in net.interfaces)


def test_unknown_site_is_rejected():
    net = Network(NetworkConfig(), Design.AFC, seed=0)
    with pytest.raises(KeyError):
        net.subscribe("pre_step", print)
    assert set(SITES) == {
        "cycle_start", "cycle_end", "offer", "complete", "guard", "flit"
    }


# -- trace recorder x protection layer, both orders ---------------------------


@pytest.mark.parametrize("recorder_first", [True, False])
def test_recorder_and_protection_coexist_and_detach_separately(recorder_first):
    net = Network(NetworkConfig(), Design.BACKPRESSURED, seed=3)
    if recorder_first:
        recorder = TraceRecorder(net)
    injector = FaultInjector(net, FaultSchedule.empty(), ProtectionConfig())
    if not recorder_first:
        recorder = TraceRecorder(net)
    source = uniform_random_traffic(net, 0.2, seed=9, source_queue_limit=100)
    source.run(100)
    assert len(recorder.trace) == source.offered_packets
    recorder.detach()
    # The protection ledger still sees every offer after the recorder
    # left (the parent's detach cleared the shared slot).
    before = injector.protection.outstanding
    net.interface(0).offer(control_packet(net, src=0, dst=8))
    assert injector.protection.outstanding == before + 1
    assert len(recorder.trace) == source.offered_packets
    injector.drain()
    assert injector.protection.outstanding == 0
    injector.detach()
    assert not net.subscribed


def test_lost_packets_are_retransmitted_after_an_earlier_recorder_detaches():
    net = Network(NetworkConfig(), Design.BACKPRESSURELESS, seed=3)
    recorder = TraceRecorder(net)
    schedule = SMOKE_SPEC.schedule(net.mesh, start=0, horizon=1_500)
    injector = FaultInjector(net, schedule, ProtectionConfig())
    recorder.detach()
    source = uniform_random_traffic(net, 0.25, seed=9, source_queue_limit=300)
    source.run(1_500)
    injector.drain()
    assert net.stats.flits_corrupted > 0
    assert net.stats.protection_retransmissions > 0
    assert net.stats.packets_completed == source.offered_packets
    assert injector.protection.duplicate_completions == 0


# -- sanitizer x injector x hub -----------------------------------------------


def test_sanitizer_before_injector_and_hub_still_publishes_fault_counters():
    net = Network(NetworkConfig(), Design.BACKPRESSURELESS, seed=3)
    sanitizer = Sanitizer(net).attach()
    schedule = SMOKE_SPEC.schedule(net.mesh, start=0, horizon=1_500)
    injector = FaultInjector(net, schedule, ProtectionConfig())
    observer = Observability(net, ObservabilityOptions(metrics=True)).attach()
    source = uniform_random_traffic(net, 0.25, seed=9, source_queue_limit=300)
    source.run(1_500)
    injector.drain()
    sanitizer.check_now()
    observer.detach()
    counters = observer.registry.to_dict()["counters"]
    stats = net.stats
    assert counters["noc_fault_events_total"] == stats.fault_events > 0
    assert counters["noc_flits_corrupted_total"] == stats.flits_corrupted > 0
    assert (
        counters["noc_corrupt_flits_discarded_total"]
        == stats.corrupt_flits_discarded
        > 0
    )
    assert (
        counters["noc_protection_retransmissions_total"]
        == stats.protection_retransmissions
        > 0
    )
    assert sanitizer.violations_found == 0


# -- every attach order x every detach order ----------------------------------

COMPONENTS = ("injector", "sanitizer", "recorder", "hub", "probe")
ORDERS = list(itertools.permutations(COMPONENTS))


def run_observed(design, schedule_for, attach_order=(), detach_order=()):
    """One run with the named extensions attached in ``attach_order``
    (the injector is always present: it changes what is simulated) and
    detached in ``detach_order``; returns the network and extensions."""
    reset_packet_ids()
    net = Network(NetworkConfig(), design, seed=7)
    built = {}

    def attach(name):
        if name == "injector":
            built[name] = FaultInjector(
                net, schedule_for(net), ProtectionConfig()
            )
        elif name == "sanitizer":
            built[name] = Sanitizer(net).attach()
        elif name == "recorder":
            built[name] = TraceRecorder(net)
        elif name == "hub":
            built[name] = Observability(
                net, ObservabilityOptions(trace=True, metrics=True)
            ).attach()
        else:
            probe = TimeSeriesProbe(net, every=100)
            probe.add("throughput", lambda n: n.stats.throughput)
            built[name] = probe.attach()

    for name in attach_order or ("injector",):
        attach(name)
    source = uniform_random_traffic(net, 0.25, seed=5, source_queue_limit=300)
    source.run(CYCLES)
    built["injector"].drain()
    if "sanitizer" in built:
        built["sanitizer"].check_now()
    for name in detach_order or ("injector",):
        built[name].detach()
    return net, source, built


def smoke_schedule(net):
    return SMOKE_SPEC.schedule(net.mesh, start=0, horizon=CYCLES)


SCENARIOS = {
    "afc-empty": (Design.AFC, lambda net: FaultSchedule.empty()),
    # Credit-loss and flaps legitimately break the credit ledgers the
    # sanitizer pins for the credit-tracking designs, so the faulted
    # scenario runs the deflection design.
    "backpressureless-smoke": (Design.BACKPRESSURELESS, smoke_schedule),
}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_every_attach_and_detach_order_is_equivalent(scenario):
    design, schedule_for = SCENARIOS[scenario]
    plain_net, plain_source, _ = run_observed(design, schedule_for)
    expected = fingerprint(plain_net, plain_source)
    faulted = scenario.endswith("smoke")
    if faulted:
        assert plain_net.stats.fault_events > 0
        assert plain_net.stats.flits_corrupted > 0
    # Pair attach order i with detach order -i: all 120 of each, and
    # every relative order of any two components in both phases.
    for attach_order, detach_order in zip(ORDERS, reversed(ORDERS)):
        label = f"attach={attach_order} detach={detach_order}"
        net, source, built = run_observed(
            design, schedule_for, attach_order, detach_order
        )
        assert fingerprint(net, source) == expected, label
        assert not net.subscribed, label
        assert built["sanitizer"].violations_found == 0, label
        assert built["sanitizer"].checks_run >= CYCLES, label
        assert len(built["recorder"].trace) == source.offered_packets, label
        assert built["hub"].tracer.recorded > 0, label
        assert len(built["probe"]) >= CYCLES // 100, label
        counters = built["hub"].registry.to_dict()["counters"]
        if faulted:
            stats = net.stats
            assert stats.fault_events == plain_net.stats.fault_events, label
            assert (
                stats.flits_corrupted == plain_net.stats.flits_corrupted
            ), label
            assert counters["noc_fault_events_total"] == stats.fault_events
            assert (
                counters["noc_flits_corrupted_total"] == stats.flits_corrupted
            ), label
        else:
            assert "noc_fault_events_total" not in counters, label


# -- vector engine: pushed out by subscribe, no blind spots --------------------

VECTOR_CONFIG = NetworkConfig(width=4, height=4)


def vector_run(engine, attach):
    reset_packet_ids()
    net = Network(VECTOR_CONFIG, Design.BACKPRESSURELESS, seed=11, engine=engine)
    source = uniform_random_traffic(net, 0.3, seed=5, source_queue_limit=300)
    source.run(300)
    if engine == "vector":
        assert net._vector_engine is not None  # really adopted
    attached = attach(net)
    source.run(300)
    net.drain(max_cycles=20_000)
    return net, source, attached


def test_offer_observer_for_one_node_mid_run_pushes_vector_engine_out():
    """The parent's per-cycle poll probed node 0 only; an observer of
    another node's offers replaced the engine's queue mirror unnoticed
    and the network never drained."""

    def attach(net):
        seen = []
        net.subscribe(
            "offer", lambda packet: packet.src == 5 and seen.append(packet)
        )
        return seen

    naive, naive_source, naive_seen = vector_run("naive", attach)
    net, source, seen = vector_run("vector", attach)
    assert fingerprint(net, source) == fingerprint(naive, naive_source)
    assert len(seen) == len(naive_seen) > 0
    assert net.engine == "active" and net._vector_engine is None
    assert net.vector_fallback_reason == "subscribers attached at offer"


def test_profiler_on_adopted_vector_network_falls_back_and_sees_routers():
    """Instance-attribute shadowing is invisible to any hook poll; the
    profiler's ``cycle_end`` subscription is what pushes the engine out."""

    def attach(net):
        return Observability(net, ObservabilityOptions(profile=True)).attach()

    naive, naive_source, _ = vector_run("naive", attach)
    net, source, observer = vector_run("vector", attach)
    observer.detach()
    assert fingerprint(net, source) == fingerprint(naive, naive_source)
    assert net.vector_fallback_reason == "subscribers attached at cycle_end"
    profile = observer.payload()["profile"]
    assert profile["hottest_router"] in range(len(net.routers))
    assert profile["cycles_profiled"] == net.cycle - 300
    assert not net.subscribed


def test_subscriber_before_first_step_is_reported_by_ineligibility():
    net = Network(VECTOR_CONFIG, Design.BACKPRESSURELESS, seed=1, engine="vector")
    recorder = TraceRecorder(net)
    net.step()
    assert net.engine == "active"
    assert net.vector_fallback_reason == "subscribers attached at offer"
    recorder.detach()
    # Nothing subscribed at the first step: adopted.
    net = Network(VECTOR_CONFIG, Design.BACKPRESSURELESS, seed=1, engine="vector")
    TraceRecorder(net).detach()
    net.step()
    assert net.engine == "vector" and net.vector_fallback_reason is None
