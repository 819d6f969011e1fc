"""Fault-injection subsystem: zero-overhead, exactly-once, recovery.

Four families of guarantees:

* **Zero-fault bit-identity** — with an empty schedule the injector's
  hooks (channel fault slots, NI guard/on_complete, the pre-step hook)
  observe but never mutate: a run with the injector installed is
  byte-for-byte identical, *every cycle*, to a run without it, for
  every supported design and both cycle engines.
* **Exactly-once delivery** — under transient faults (link flaps, bit
  errors, credit loss) every offered packet completes exactly once:
  retransmission dedup via epoch bumps, no duplicates, no losses, and
  the conservation ledger closes exactly.
* **Recovery mechanisms** — permanent kills trigger route-table patches
  that steer around the dead link; destroyed credits are resynthesised
  so backpressured routers never wedge; unreachable destinations orphan
  after the bounded retry budget instead of hanging the drain.
* **Harness determinism** — fault experiments are a pure function of
  (spec, seed): ``jobs=1`` and ``jobs=2`` produce identical results.
"""

import dataclasses

import pytest

from repro import Design, Network, NetworkConfig
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    ProtectionConfig,
)
from repro.harness.experiment import ExperimentRunner
from repro.network.flit import reset_packet_ids
from repro.traffic.synthetic import uniform_random_traffic

FAULT_DESIGNS = [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC]

SMALL = NetworkConfig(width=3, height=3)


def snapshot(net: Network) -> dict:
    """Every externally observable accumulator (cf. determinism tests)."""
    stats = {
        key: value
        for key, value in vars(net.stats).items()
        if key != "mode_stats"
    }
    return {
        "cycle": net.cycle,
        "stats": stats,
        "mode_stats": {
            node: vars(entry).copy()
            for node, entry in net.stats.mode_stats.items()
        },
        "energy": vars(net.energy.totals).copy(),
    }


def _faulted_run(
    design: Design,
    spec: FaultSpec,
    protection: ProtectionConfig = ProtectionConfig(),
    rate: float = 0.25,
    cycles: int = 2500,
    config: NetworkConfig = SMALL,
):
    reset_packet_ids()
    net = Network(config, design, seed=11)
    schedule = spec.schedule(net.mesh, start=0, horizon=cycles)
    injector = FaultInjector(net, schedule, protection)
    source = uniform_random_traffic(net, rate, seed=5, source_queue_limit=500)
    source.run(cycles)
    injector.drain(max_cycles=100_000)
    return net, injector


# -- zero-fault bit-identity ---------------------------------------------------
@pytest.mark.parametrize("engine", ["naive", "active"])
@pytest.mark.parametrize("design", FAULT_DESIGNS, ids=lambda d: d.value)
def test_empty_schedule_bit_identical(design, engine):
    """Instrumented and bare networks agree on every accumulator at
    every cycle, then again after the drain."""
    nets = []
    sources = []
    for instrumented in (False, True):
        reset_packet_ids()
        net = Network(NetworkConfig(), design, seed=11, engine=engine)
        if instrumented:
            FaultInjector(net, FaultSchedule.empty())
        nets.append(net)
        sources.append(
            uniform_random_traffic(net, 0.3, seed=5, source_queue_limit=300)
        )
    bare, faulted = nets
    for cycle in range(300):
        for source in sources:
            source.run(1)
        assert snapshot(faulted) == snapshot(bare), f"diverged at {cycle}"
    for net in nets:
        net.drain(max_cycles=20_000)
        net.check_flit_conservation()
    assert snapshot(faulted) == snapshot(bare)


def test_dropping_design_rejected():
    net = Network(SMALL, Design.BACKPRESSURELESS_DROPPING, seed=0)
    with pytest.raises(ValueError, match="dropping"):
        FaultInjector(net, FaultSchedule.empty())


# -- schedules -----------------------------------------------------------------
def test_schedule_generation_is_pure():
    mesh = Network(SMALL, Design.AFC, seed=0).mesh
    spec = FaultSpec(
        seed=3, link_flap_rate=5.0, bit_error_rate=3.0, credit_loss_rate=2.0
    )
    a = spec.schedule(mesh, start=100, horizon=4000, salt=7)
    b = spec.schedule(mesh, start=100, horizon=4000, salt=7)
    assert a.events == b.events
    assert len(a) > 0
    assert all(100 <= ev.cycle < 4100 for ev in a)
    other_salt = spec.schedule(mesh, start=100, horizon=4000, salt=8)
    assert a.events != other_salt.events


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(-1, FaultKind.BIT_ERROR, 0, 1)
    with pytest.raises(ValueError):
        FaultEvent(5, FaultKind.LINK_FLAP, 0, 1, duration=0)
    with pytest.raises(ValueError):
        FaultEvent(5, FaultKind.BIT_ERROR, 0, 1, count=0)
    with pytest.raises(ValueError):
        FaultEvent(5, FaultKind.LINK_KILL, 0)  # missing endpoint b


@pytest.mark.parametrize(
    "field, value",
    [
        # Each used to construct, get a job key, and fail only inside
        # the worker ("Sample larger than population or is negative",
        # a FaultEvent error) or in the JSON encoder (NaN).
        ("link_kills", -1),
        ("router_kills", -1),
        ("flap_duration", -5),
        ("flap_duration", 0),
        ("credit_loss_burst", -3),
        ("bit_error_rate", -2.0),
        ("link_flap_rate", -1.0),
        ("credit_loss_rate", float("inf")),
        ("bit_error_rate", float("nan")),
    ],
)
def test_fault_spec_rejects_illegal_values_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        FaultSpec(**{field: value})


def test_illegal_fault_spec_gets_no_job_key():
    from repro.service import JobSpec

    wire = JobSpec(kind="faulted").to_dict()
    wire["fault"] = {**wire["fault"], "link_kills": -1}
    with pytest.raises(ValueError, match="link_kills"):
        JobSpec.from_dict(wire)


def test_fault_spec_defaults_and_edges_accepted():
    assert FaultSpec() == FaultSpec(
        seed=0, link_flap_rate=0.0, flap_duration=30, bit_error_rate=0.0,
        credit_loss_rate=0.0, credit_loss_burst=4, link_kills=0,
        router_kills=0,
    )
    FaultSpec(flap_duration=1, credit_loss_burst=1)


def test_injector_rejects_unknown_link():
    net = Network(SMALL, Design.AFC, seed=0)
    injector = FaultInjector(
        net, FaultSchedule([FaultEvent(0, FaultKind.BIT_ERROR, 0, 8)])
    )
    with pytest.raises(ValueError, match="no link"):
        injector.on_cycle(0)


# -- exactly-once delivery under transient faults ------------------------------
@pytest.mark.parametrize("design", FAULT_DESIGNS, ids=lambda d: d.value)
def test_exactly_once_under_transient_faults(design):
    spec = FaultSpec(
        seed=1,
        link_flap_rate=8.0,
        flap_duration=40,
        bit_error_rate=4.0,
        credit_loss_rate=4.0,
    )
    # A retransmission launched mid-flap can re-cross the same down link
    # and burn another retry; a budget longer than any flap guarantees
    # transient faults alone never orphan.
    net, injector = _faulted_run(
        design, spec, ProtectionConfig(max_retries=32)
    )
    prot = injector.protection
    stats = net.stats
    # The scenario actually exercised the protection circuit.
    assert stats.fault_events > 0
    assert stats.flits_corrupted > 0
    assert prot.stats.protection_retransmissions > 0
    # Exactly-once: every offered packet completed once; transient
    # faults alone never exhaust the retry budget.
    assert prot.outstanding == 0
    assert prot.duplicate_completions == 0
    assert all(n == 1 for n in prot.completions.values())
    assert stats.packets_orphaned == 0
    assert stats.packets_completed == stats.packets_injected
    assert net.flits_unaccounted == 0


# -- permanent damage: reroute and orphaning -----------------------------------
def test_link_kill_patches_routes():
    net = Network(SMALL, Design.AFC, seed=11)
    # Kill the 0-1 link on the 3x3 mesh's bottom row.
    direction = next(d for a, d, b in net.mesh.links() if (a, b) == (0, 1))
    schedule = FaultSchedule([FaultEvent(100, FaultKind.LINK_KILL, 0, 1)])
    # Retries between the kill and the patch re-cross the dead link;
    # give them room so the post-patch route can succeed.
    protection = ProtectionConfig(max_retries=32)
    injector = FaultInjector(net, schedule, protection)
    source = uniform_random_traffic(net, 0.2, seed=5, source_queue_limit=500)
    source.run(1500)
    injector.drain(max_cycles=100_000)
    assert net.stats.reroutes == 1
    assert net.stats.avg_time_to_reroute == protection.reroute_delay
    assert (0, 1) in injector.dead_pairs and (1, 0) in injector.dead_pairs
    # Node 0 no longer routes toward node 1 over the dead link; node 1
    # stays reachable the long way around, so nothing is orphaned.
    router = net.routers[0]
    assert router._xy_row[1] is not direction
    assert direction not in router._prod_row[1]
    assert net.stats.packets_orphaned == 0
    assert net.stats.packets_completed == net.stats.packets_injected


def test_router_kill_orphans_unreachable_traffic():
    spec = FaultSpec(seed=2, router_kills=1)
    protection = ProtectionConfig(
        max_retries=1, ack_timeout=300, check_interval=16
    )
    net, injector = _faulted_run(
        Design.BACKPRESSURED, spec, protection, cycles=2000
    )
    prot = injector.protection
    stats = net.stats
    # Traffic into the dead region exhausts its retry budget and is
    # abandoned; everything else still completes exactly once.
    assert stats.reroutes >= 1
    assert stats.packets_orphaned > 0
    assert prot.orphaned_pids
    assert prot.outstanding == 0
    assert prot.duplicate_completions == 0
    assert all(n == 1 for n in prot.completions.values())
    assert stats.packets_completed == (
        stats.packets_injected - stats.packets_orphaned
    )
    assert stats.packets_completed > 0


def test_credit_loss_resynthesis_unwedges_backpressure():
    spec = FaultSpec(seed=4, credit_loss_rate=12.0, credit_loss_burst=4)
    net, injector = _faulted_run(Design.BACKPRESSURED, spec, rate=0.3)
    stats = net.stats
    # Without resynthesis the destroyed credits would permanently
    # shrink (eventually wedge) the affected VCs; the drain above would
    # then time out.  Delivery stays lossless.
    assert stats.credits_lost > 0
    assert stats.credit_resyncs > 0
    assert injector.protection.outstanding == 0
    assert stats.packets_orphaned == 0
    assert stats.packets_completed == stats.packets_injected


# -- harness determinism (seed threading across worker processes) --------------
def test_faulted_parallel_matches_serial():
    spec = FaultSpec(
        seed=9, link_flap_rate=6.0, bit_error_rate=3.0, credit_loss_rate=3.0
    )
    results = {}
    for jobs in (1, 2):
        runner = ExperimentRunner(
            warmup_cycles=200,
            measure_cycles=1200,
            seeds=2,
            jobs=jobs,
            base_seed=3,
        )
        results[jobs] = runner.run_faulted(Design.AFC, 0.25, spec)
    assert results[1] == results[2]
    assert results[1].fault_events > 0


def test_base_seed_changes_the_experiment():
    spec = FaultSpec(seed=9, link_flap_rate=6.0, bit_error_rate=3.0)
    outcomes = []
    for base_seed in (0, 17):
        runner = ExperimentRunner(
            warmup_cycles=200, measure_cycles=1200, seeds=1, base_seed=base_seed
        )
        outcomes.append(
            dataclasses.asdict(runner.run_faulted(Design.AFC, 0.25, spec))
        )
    assert outcomes[0] != outcomes[1]
