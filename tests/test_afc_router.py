"""Tests for the AFC router: dual datapaths, mode switches, gossip."""

from dataclasses import fields

import pytest

from repro import (
    Design,
    Direction,
    Mode,
    Network,
    NetworkConfig,
    Packet,
    VirtualNetwork,
)
from repro.analysis.fingerprint import differing, fingerprint
from repro.core.afc_router import AfcRouter
from repro.energy.model import EnergyBreakdown
from repro.network.config import ContentionThresholds, RouterClass
from repro.network.flit import reset_packet_ids
from repro.network.link import CreditMessage, ModeNotice, ModeNotification
from repro.traffic.synthetic import uniform_random_traffic

from conftest import (
    assert_occupancy_mirrors,
    event_counts,
    make_network,
    offer_random_burst,
    ports_used,
    rng_twin,
    single_packet_network,
)


def flit_to(dst, src=0, vnet=VirtualNetwork.CONTROL_REQ):
    real_src = src if src != dst else (dst + 1) % 9
    packet = Packet(
        src=real_src, dst=dst, vnet=vnet, num_flits=1, created_at=0
    )
    return next(packet.flits())


class TestInitialModes:
    def test_adaptive_starts_backpressureless(self):
        net = make_network(Design.AFC)
        assert all(r.mode is Mode.BACKPRESSURELESS for r in net.routers)
        assert all(r.buffers_power_gated for r in net.routers)

    def test_pinned_starts_backpressured(self):
        net = make_network(Design.AFC_ALWAYS_BACKPRESSURED)
        assert all(r.mode is Mode.BACKPRESSURED for r in net.routers)
        assert not any(r.buffers_power_gated for r in net.routers)

    def test_pinned_neighbors_track_from_start(self):
        net = make_network(Design.AFC_ALWAYS_BACKPRESSURED)
        router = net.router(4)
        assert all(nb.tracking for nb in router._neighbors.values())

    def test_rejects_non_afc_design(self):
        import random

        from repro import Mesh, NetworkConfig, StatsCollector

        with pytest.raises(ValueError):
            AfcRouter(
                0,
                NetworkConfig(),
                Mesh(3, 3),
                random.Random(0),
                StatsCollector(9),
                design=Design.BACKPRESSURED,
            )


class TestZeroLoadLatency:
    def test_matches_other_designs(self):
        """Table I: all three designs share the 2-stage pipeline."""
        latencies = {}
        for design in (
            Design.BACKPRESSURED,
            Design.BACKPRESSURELESS,
            Design.AFC,
            Design.AFC_ALWAYS_BACKPRESSURED,
        ):
            net, _ = single_packet_network(design, src=0, dst=8, num_flits=1)
            net.drain()
            latencies[design] = net.stats.avg_network_latency
        assert len(set(latencies.values())) == 1


class TestForwardSwitch:
    def test_high_load_triggers_switch(self):
        net = make_network(Design.AFC)
        traffic = uniform_random_traffic(net, rate=0.7, seed=5)
        traffic.run(1500)
        assert any(r.mode is Mode.BACKPRESSURED for r in net.routers)
        assert (
            sum(m.forward_switches for m in net.stats.mode_stats.values())
            > 0
        )

    def test_transition_window_timing(self):
        net = make_network(Design.AFC)
        router = net.router(4)
        router._begin_forward(cycle=net.cycle, gossip=False)
        # Pin the EWMA high so the idle network does not immediately
        # reverse-switch once backpressured operation begins.
        router._mode.ewma = 10.0
        window = router._mode.transition_window
        assert window == 2 * net.config.link_latency + 1
        for _ in range(window):
            assert router.mode is not Mode.BACKPRESSURED
            net.step()
            router._mode.ewma = 10.0  # record_load decays it each step
        net.step()
        assert router.mode is Mode.BACKPRESSURED

    def test_completed_switch_reverts_when_idle(self):
        """With no load, the forward switch completes and the router
        immediately takes the reverse switch (EWMA ~ 0, buffers empty)."""
        net = make_network(Design.AFC)
        router = net.router(4)
        router._begin_forward(cycle=net.cycle, gossip=False)
        for _ in range(router._mode.transition_window + 2):
            net.step()
        assert router.mode is Mode.BACKPRESSURELESS
        assert net.stats.mode(4).reverse_switches == 1

    def test_notice_reaches_neighbors_after_l(self):
        net = make_network(Design.AFC)
        router = net.router(4)
        start = net.cycle
        router._begin_forward(cycle=start, gossip=False)
        west_neighbor = net.router(3)
        state = west_neighbor._neighbors[Direction.EAST]  # toward node 4
        # The notice is deliverable at cycle L, i.e. it takes effect in
        # the deliver phase of the (L+1)-th step from here.
        for _ in range(net.config.link_latency):
            assert not state.tracking
            net.step()
        assert not state.tracking
        net.step()
        assert state.tracking

    def test_deflects_during_transition(self):
        net = make_network(Design.AFC)
        router = net.router(4)
        router._begin_forward(cycle=net.cycle, gossip=False)
        flit = flit_to(dst=0, src=5)
        router._accept_flit(flit, Direction.EAST, cycle=net.cycle)
        assert len(router._latched) == 1  # latched, not buffered
        assert router.buffered_flits() == 0


class TestReverseSwitch:
    def test_idle_network_reverts(self):
        net = make_network(Design.AFC)
        traffic = uniform_random_traffic(net, rate=0.7, seed=5)
        traffic.run(1500)
        assert any(r.mode is Mode.BACKPRESSURED for r in net.routers)
        net.drain(max_cycles=50_000)
        net.run(1200)  # EWMA must decay below the low threshold
        assert all(r.mode is Mode.BACKPRESSURELESS for r in net.routers)
        assert (
            sum(m.reverse_switches for m in net.stats.mode_stats.values())
            > 0
        )

    def test_stop_notice_resets_neighbor_credits(self):
        net = make_network(Design.AFC)
        router = net.router(4)
        west = net.router(3)
        state = west._neighbors[Direction.EAST]
        state.start_tracking((0, 0, 0))
        state.on_send(VirtualNetwork.DATA)
        west._accept_mode_notice(
            Direction.EAST,
            ModeNotification(kind=ModeNotice.STOP_CREDITS),
            cycle=0,
        )
        assert not state.tracking
        assert state.credits[VirtualNetwork.DATA] == 16

    def test_reverse_blocked_by_buffered_flits(self):
        net = make_network(Design.AFC)
        router = net.router(4)
        # Force into backpressured mode with an occupied buffer.
        router._mode.mode = Mode.BACKPRESSURED
        router._input_ports[Direction.EAST].insert(flit_to(dst=0, src=5))
        router._mode.ewma = 0.0
        router._adapt(net.cycle)
        assert router.mode is Mode.BACKPRESSURED  # cannot revert yet


class TestGossip:
    def test_low_neighbor_credits_force_switch(self):
        """Section III-D: the sledgehammer response."""
        net = make_network(Design.AFC)
        router = net.router(4)
        state = router._neighbors[Direction.EAST]
        state.start_tracking((0, 0, 0))
        # Drain the neighbour's free slots below X = 2L.
        while state.total_free >= net.config.gossip_threshold:
            for vnet in VirtualNetwork:
                if state.credits[vnet] > 0:
                    state.on_send(vnet)
                    break
        router._adapt(net.cycle)
        assert router.mode is Mode.TRANSITION
        assert net.stats.mode(4).gossip_switches == 1

    def test_ample_credits_do_not_trigger(self):
        net = make_network(Design.AFC)
        router = net.router(4)
        state = router._neighbors[Direction.EAST]
        state.start_tracking((0, 0, 0))
        router._adapt(net.cycle)
        assert router.mode is Mode.BACKPRESSURELESS

    def test_credit_masking_in_deflection_mode(self):
        """A backpressureless AFC router never sends to a tracked
        neighbour whose vnet credits are exhausted (the scalpel)."""
        net = make_network(Design.AFC)
        router = net.router(3)  # west edge: EAST goes to center
        state = router._neighbors[Direction.EAST]
        # Occupancy snapshot with the CONTROL_REQ slots full: credit
        # accounting starts with zero credits on that vnet.
        state.start_tracking(
            (state.capacity[VirtualNetwork.CONTROL_REQ], 0, 0)
        )
        flit = flit_to(dst=5, src=0)  # wants EAST
        router._accept_flit(flit, Direction.WEST, cycle=net.cycle)
        router.step(net.cycle)
        east_channel = router.out_channels[Direction.EAST]
        assert east_channel.flits_in_flight == 0  # went elsewhere
        assert flit.deflections == 1


class TestEmergencyBuffering:
    def _exhaust_all_ports(self, net, router):
        for direction, state in router._neighbors.items():
            # A fully-occupied snapshot: zero credits on every vnet.
            state.start_tracking(
                tuple(state.capacity[vnet] for vnet in VirtualNetwork)
            )
        return router

    def test_unplaceable_flit_is_buffered_not_lost(self):
        net = make_network(Design.AFC)
        router = self._exhaust_all_ports(net, net.router(0))
        flit = flit_to(dst=8, src=1)
        router._accept_flit(flit, Direction.EAST, cycle=net.cycle)
        router.step(net.cycle)
        assert router.buffered_flits() == 1
        assert router.mode is Mode.TRANSITION  # forced forward switch
        assert net.stats.mode(0).gossip_switches == 1

    def test_emergency_during_transition_sends_debit(self):
        net = make_network(Design.AFC)
        router = self._exhaust_all_ports(net, net.router(0))
        router._begin_forward(cycle=net.cycle, gossip=False)
        flit = flit_to(dst=8, src=1)
        router._accept_flit(flit, Direction.EAST, cycle=net.cycle)
        router.step(net.cycle)
        assert router.buffered_flits() == 1
        backflow = router.in_channels[Direction.EAST]._backflow
        debits = [
            item
            for _, item in backflow._items
            if isinstance(item, CreditMessage) and item.debit
        ]
        assert len(debits) == 1

    def test_emergency_flit_drains_in_backpressured_mode(self):
        net = make_network(Design.AFC)
        router = self._exhaust_all_ports(net, net.router(0))
        flit = flit_to(dst=8, src=1)
        router._accept_flit(flit, Direction.EAST, cycle=net.cycle)
        router.step(net.cycle)
        # Restore neighbour credit so the flit can leave once buffered
        # operation starts.
        for state in router._neighbors.values():
            state.stop_tracking()
        net.drain(max_cycles=1000)
        assert router.buffered_flits() == 0
        assert net.stats.flits_ejected == 1


class TestAlwaysBackpressured:
    def test_never_switches(self):
        net = make_network(Design.AFC_ALWAYS_BACKPRESSURED)
        offer_random_burst(net, 120)
        net.drain(max_cycles=20_000)
        modes = net.stats.mode_stats.values()
        assert all(m.forward_switches == 0 for m in modes)
        assert all(m.reverse_switches == 0 for m in modes)
        assert all(r.mode is Mode.BACKPRESSURED for r in net.routers)

    def test_no_deflections_ever(self):
        net = make_network(Design.AFC_ALWAYS_BACKPRESSURED)
        offer_random_burst(net, 120)
        net.drain(max_cycles=20_000)
        assert net.stats.deflections == 0

    def test_burst_conservation(self):
        net = make_network(Design.AFC_ALWAYS_BACKPRESSURED)
        offer_random_burst(net, 120)
        net.drain(max_cycles=20_000)
        net.check_flit_conservation()


class TestAdaptiveEndToEnd:
    def test_burst_conservation(self):
        net = make_network(Design.AFC)
        offer_random_burst(net, 150)
        net.drain(max_cycles=30_000)
        net.check_flit_conservation()
        assert net.stats.packets_completed == 150

    def test_credits_sent_on_backpressured_dequeue(self):
        net = make_network(Design.AFC_ALWAYS_BACKPRESSURED)
        offer_random_burst(net, 10)
        net.drain(max_cycles=10_000)
        net.run(net.config.link_latency + 1)  # let final credits land
        # all upstream credit mirrors restored to full
        for router in net.routers:
            for state in router._neighbors.values():
                for vnet in VirtualNetwork:
                    assert state.credits[vnet] == state.capacity[vnet]

    def test_power_gating_follows_mode_and_occupancy(self):
        net = make_network(Design.AFC)
        router = net.router(4)
        assert router.buffers_power_gated
        router._mode.mode = Mode.BACKPRESSURED
        assert not router.buffers_power_gated
        router._mode.mode = Mode.BACKPRESSURELESS
        router._input_ports[Direction.EAST].insert(flit_to(dst=0, src=5))
        assert not router.buffers_power_gated


class TestSingleFlitPath:
    """With at most one latched flit the deflection datapath skips the
    allocator: the general path's shuffles would see <= 1 element and
    draw nothing, so the RNG stream, the chosen port and the event
    counts must be the general path's.  A flit whose productive ports
    are all credit-masked is not the fast path's business."""

    def _router(self, node=4):
        net = make_network(Design.AFC)
        router = net.router(node)
        return net, router, router.energy, rng_twin(router.rng)

    def test_lone_flit_takes_first_productive_port_without_a_draw(self):
        net, router, meter, before = self._router()
        flit = flit_to(dst=8, src=3)  # productive: EAST, then SOUTH
        router._accept_flit(flit, Direction.WEST, cycle=0)
        router.step(cycle=0)
        assert ports_used(router) == [Direction.EAST]
        assert flit.deflections == 0
        assert router.rng.getstate() == before.getstate()
        assert event_counts(meter) == {
            "latches": 1, "arbitrations": 1, "crossings": 1, "links": 1
        }
        assert router._mode.window[-1] == 2  # one entry + one exit

    def test_lone_flit_at_destination_ejects_without_a_draw(self):
        net, router, meter, before = self._router()
        router._accept_flit(flit_to(dst=4, src=3), Direction.WEST, cycle=0)
        router.step(cycle=0)
        assert ports_used(router) == []
        assert net.interface(4).flits_ejected_total == 1
        assert router.rng.getstate() == before.getstate()
        assert event_counts(meter) == {"latches": 1, "crossings": 1}
        assert router._mode.window[-1] == 2

    def test_masked_first_choice_falls_to_the_next_productive_port(self):
        net, router, meter, before = self._router()
        east = router._neighbors[Direction.EAST]
        east.start_tracking((east.capacity[VirtualNetwork.CONTROL_REQ], 0, 0))
        flit = flit_to(dst=8, src=3)
        router._accept_flit(flit, Direction.WEST, cycle=0)
        router.step(cycle=0)
        assert ports_used(router) == [Direction.SOUTH]
        assert flit.deflections == 0
        assert router.rng.getstate() == before.getstate()

    def test_all_productive_ports_masked_takes_the_general_path(self):
        net, router, meter, before = self._router(node=3)  # west edge
        east = router._neighbors[Direction.EAST]
        east.start_tracking((east.capacity[VirtualNetwork.CONTROL_REQ], 0, 0))
        flit = flit_to(dst=5, src=0)  # EAST is its only productive port
        router._accept_flit(flit, Direction.WEST, cycle=0)
        router.step(cycle=0)
        # The general path: no shuffle draw for one flit, then one
        # ``choice`` among the free, allowed non-productive ports.
        deflected_to = before.choice(list(router._fallback_row[5]))
        assert ports_used(router) == [deflected_to]
        assert flit.deflections == 1
        assert router.rng.getstate() == before.getstate()
        assert router.mode is Mode.BACKPRESSURELESS  # nothing buffered

    def test_same_cycle_injection_takes_a_leftover_port(self):
        net, router, meter, before = self._router()
        router._accept_flit(flit_to(dst=5, src=3), Direction.WEST, cycle=0)
        net.interface(4).offer(
            Packet(
                src=4, dst=5, vnet=VirtualNetwork.CONTROL_REQ, num_flits=1,
                created_at=0,
            )
        )
        router.step(cycle=0)
        # Both want EAST; the resident flit has it, the injected one is
        # deflected with one draw and dispatched second.
        leftover = before.choice(
            [Direction.WEST, Direction.NORTH, Direction.SOUTH]
        )
        assert ports_used(router) == sorted([Direction.EAST, leftover])
        assert router.rng.getstate() == before.getstate()
        assert event_counts(meter) == {
            "latches": 1, "arbitrations": 2, "crossings": 2, "links": 2
        }
        assert router._mode.window[-1] == 4  # two entries + two exits

    def test_injection_alone_is_credit_masked(self):
        net, router, meter, before = self._router(node=3)
        east = router._neighbors[Direction.EAST]
        east.start_tracking((east.capacity[VirtualNetwork.CONTROL_REQ], 0, 0))
        net.interface(3).offer(
            Packet(
                src=3, dst=5, vnet=VirtualNetwork.CONTROL_REQ, num_flits=1,
                created_at=0,
            )
        )
        router.step(cycle=0)
        deflected_to = before.choice(
            [p for p in router._net_ports if p is not Direction.EAST]
        )
        assert ports_used(router) == [deflected_to]
        assert router.rng.getstate() == before.getstate()


class TestDeflectionIdentity:
    """Section III: AFC's backpressureless mode *is* the deflection
    router.  An AFC network that never switches (thresholds out of
    reach) must replay the pure router's run flit for flit and draw
    for draw, so nothing AFC contributes to the shared cycle — mask
    rows, credit debit, emergency buffering, load counts — can leak
    behaviour into it."""

    NEVER = {
        cls: ContentionThresholds(high=1e9, low=1.0) for cls in RouterClass
    }
    #: All that may differ: energy scales with AFC's wider flits (17 vs
    #: 13 control bits) and gated buffers, and only AFC keeps mode stats.
    MAY_DIFFER = {f.name for f in fields(EnergyBreakdown)} | {"mode_stats"}

    def _run(self, design, width, rate):
        reset_packet_ids()
        config = NetworkConfig(
            width=width, height=width, thresholds=self.NEVER
        )
        net = Network(config, design, seed=3)
        source = uniform_random_traffic(net, rate, seed=4)
        source.run(500)
        net.drain(max_cycles=100_000)
        return net, fingerprint(net, source)

    @pytest.mark.parametrize(
        "width, rate", [(3, 0.1), (4, 0.3), (8, 0.5)]
    )
    def test_never_switching_afc_replays_the_deflection_router(
        self, width, rate
    ):
        pure, expected = self._run(Design.BACKPRESSURELESS, width, rate)
        afc, row = self._run(Design.AFC, width, rate)
        assert all(r.mode is Mode.BACKPRESSURELESS for r in afc.routers)
        assert pure.stats.packets_completed > 0
        leaked = [
            column
            for column in differing(expected, row)
            if column not in self.MAY_DIFFER
        ]
        assert not leaked, f"AFC changed the deflection cycle's {leaked}"


class TestBufferedCountMirror:
    """``AfcRouter._bank`` (behind ``buffered_flits``, quiescence and
    power gating) must equal a recount of the ports wherever flits
    enter or leave the buffers."""

    def test_after_emergency_buffering(self):
        net = make_network(Design.AFC)
        router = net.router(0)
        for state in router._neighbors.values():
            state.start_tracking(
                tuple(state.capacity[vnet] for vnet in VirtualNetwork)
            )
        router._accept_flit(flit_to(dst=8, src=1), Direction.EAST, cycle=0)
        router.step(cycle=0)
        assert router.buffered_flits() == 1
        assert not router.buffers_power_gated
        assert not router.is_quiescent()
        assert_occupancy_mirrors(net)

    def test_every_cycle_across_forward_switches_mid_drain(self):
        net = make_network(Design.AFC)
        net.subscribe("cycle_end", lambda cycle: assert_occupancy_mirrors(net))
        offer_random_burst(net, 150)
        net.drain(max_cycles=30_000)
        modes = net.stats.mode_stats.values()
        assert sum(m.forward_switches for m in modes) > 0
        assert all(r.buffered_flits() == 0 for r in net.routers)

    def test_survives_credit_loss_and_resynthesis(self):
        from repro.faults import FaultInjector, FaultSpec

        net = make_network(Design.AFC_ALWAYS_BACKPRESSURED, seed=11)
        spec = FaultSpec(seed=4, credit_loss_rate=12.0, credit_loss_burst=4)
        injector = FaultInjector(
            net, spec.schedule(net.mesh, start=0, horizon=1500)
        )
        net.subscribe("cycle_end", lambda cycle: assert_occupancy_mirrors(net))
        uniform_random_traffic(
            net, 0.3, seed=5, source_queue_limit=500
        ).run(1500)
        injector.drain(max_cycles=100_000)
        assert net.stats.credits_lost > 0 and net.stats.credit_resyncs > 0


class TestLazyResidency:
    """Mode residency is charged at mode changes and sync points, not
    ticked per cycle.  After any ``sync_bookkeeping`` it must equal a
    per-cycle count: a cycle counts towards the mode the router ends it
    in, except that a forward switch's last transition cycle (whose end
    completes the switch) counts as transition."""

    LOW = {cls: ContentionThresholds(high=1.0, low=0.5) for cls in RouterClass}
    RESIDENCY = (
        "backpressureless_cycles",
        "transition_cycles",
        "backpressured_cycles",
    )

    def _run(self, engine):
        reset_packet_ids()
        net = Network(
            NetworkConfig(width=4, height=4, thresholds=self.LOW),
            Design.AFC,
            seed=5,
            engine=engine,
        )
        source = uniform_random_traffic(net, 0.2, seed=6)
        names = {
            Mode.BACKPRESSURELESS: "backpressureless_cycles",
            Mode.TRANSITION: "transition_cycles",
            Mode.BACKPRESSURED: "backpressured_cycles",
        }
        reference = {}
        entered = {}

        def cycle_start(cycle):
            entered.update((r.node, r.mode) for r in net.routers)

        def cycle_end(cycle):
            for r in net.routers:
                mode = r.mode
                if entered[r.node] is Mode.TRANSITION:
                    mode = Mode.TRANSITION
                counts = reference.setdefault(
                    r.node, dict.fromkeys(self.RESIDENCY, 0)
                )
                counts[names[mode]] += 1

        net.subscribe("cycle_start", cycle_start)
        net.subscribe("cycle_end", cycle_end)

        def charged():
            return {
                node: {name: getattr(entry, name) for name in self.RESIDENCY}
                for node, entry in net.stats.mode_stats.items()
            }

        # Warm up until a forward switch is in flight, then open the
        # measurement window inside its transition.
        while not any(r.mode is Mode.TRANSITION for r in net.routers):
            source.tick()
            net.step()
        net.begin_measurement()
        reference.clear()
        checks = 0
        for cycle in range(900):
            if cycle < 450:
                source.tick()  # then idle: EWMAs decay, routers reverse
            net.step()
            if cycle % 97 == 0:
                net.sync_bookkeeping()
                assert charged() == reference, f"cycle {net.cycle}"
                checks += 1
        net.sync_bookkeeping()
        assert charged() == reference
        modes = net.stats.mode_stats.values()
        assert sum(m.forward_switches for m in modes) > 0
        assert sum(m.reverse_switches for m in modes) > 0
        assert checks >= 9
        return fingerprint(net, source)

    def test_matches_a_per_cycle_count_on_both_engines(self):
        assert self._run("active") == self._run("naive")
