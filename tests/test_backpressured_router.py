"""Tests for the baseline credit-based VC router."""

import pytest

from repro import Design, Direction, Packet, VirtualNetwork
from repro.routers.backpressured import vc_ranges

from conftest import (
    assert_occupancy_mirrors,
    make_network,
    offer_random_burst,
    single_packet_network,
)


class TestVcRanges:
    def test_baseline_layout(self):
        ranges = vc_ranges((2, 2, 4))
        assert list(ranges[VirtualNetwork.CONTROL_REQ]) == [0, 1]
        assert list(ranges[VirtualNetwork.CONTROL_RESP]) == [2, 3]
        assert list(ranges[VirtualNetwork.DATA]) == [4, 5, 6, 7]

    def test_ranges_are_disjoint_and_cover(self):
        ranges = vc_ranges((8, 8, 16))
        seen = [i for r in ranges.values() for i in r]
        assert sorted(seen) == list(range(32))


class TestSharedPortTables:
    """Ports with one VC layout share their read-only tables (credit
    table, VC ranges, VC-allocation scan orders) and nothing else."""

    @staticmethod
    def _ports(router):
        router.finalize()
        return (
            list(router._input_ports.values()),
            list(router._out_state.values()),
        )

    def test_ports_and_routers_share_the_layout_tables(self):
        net = make_network(Design.BACKPRESSURED)
        inputs, outputs = self._ports(net.router(4))
        other_inputs, other_outputs = self._ports(net.router(0))
        for port in inputs[1:] + other_inputs:
            assert port.credits is inputs[0].credits
            assert port.ranges is inputs[0].ranges
        for state in outputs[1:] + other_outputs:
            assert state._alloc_scan is outputs[0]._alloc_scan

    def test_mutable_per_vc_state_is_never_shared(self):
        net = make_network(Design.BACKPRESSURED)
        inputs, outputs = self._ports(net.router(4))
        other_inputs, other_outputs = self._ports(net.router(0))
        buffers = [vc for port in inputs + other_inputs for vc in port.vcs]
        queues = [vc.queue for vc in buffers]
        mirrors = [s for out in outputs + other_outputs for s in out.vc_states]
        rr = [out._alloc_rr for out in outputs + other_outputs]
        for objects in (buffers, queues, mirrors, rr):
            assert len({id(obj) for obj in objects}) == len(objects)
        vc_lists = [port.vcs for port in inputs + other_inputs]
        assert len({id(vcs) for vcs in vc_lists}) == len(vc_lists)

    def test_layout_tables_match_the_layout(self):
        from repro.network.link import credit_message

        net = make_network(Design.BACKPRESSURED)
        inputs, outputs = self._ports(net.router(4))
        assert inputs[0].ranges == tuple(vc_ranges((2, 2, 4)).values())
        data = outputs[0]._alloc_scan[VirtualNetwork.DATA]
        assert data == ((4, 5, 6, 7), (5, 6, 7, 4), (6, 7, 4, 5), (7, 4, 5, 6))
        credits = inputs[0].credits
        assert len(credits) == len(VirtualNetwork)
        for vnet in VirtualNetwork:
            assert len(credits[vnet]) == 8
            for vc, pair in enumerate(credits[vnet]):
                assert pair[0] is credit_message(vnet, vc, False)
                assert pair[1] is credit_message(vnet, vc, True)


class TestZeroLoadLatency:
    def test_single_hop_packet(self):
        # 0 -> 1 is one hop: inject+SA at 0, arrive at 3, eject at 3.
        net, packet = single_packet_network(
            Design.BACKPRESSURED, src=0, dst=1, num_flits=1
        )
        net.drain()
        assert net.stats.avg_network_latency == 3

    def test_two_hop_packet(self):
        net, _ = single_packet_network(
            Design.BACKPRESSURED, src=0, dst=2, num_flits=1
        )
        net.drain()
        assert net.stats.avg_network_latency == 6

    def test_multi_flit_serialization(self):
        # 4 flits over one hop: 1 flit/cycle injection, last flit
        # injected at cycle 3, arrives at 6.
        net, _ = single_packet_network(
            Design.BACKPRESSURED, src=0, dst=1, num_flits=4
        )
        net.drain()
        assert net.stats.avg_network_latency == 6

    def test_follows_xy_hop_count(self):
        net, _ = single_packet_network(
            Design.BACKPRESSURED, src=0, dst=8, num_flits=1
        )
        net.drain()
        assert net.stats.avg_hops == 4  # |dx| + |dy| = 4, no misroutes
        assert net.stats.deflections == 0


class TestCredits:
    def test_dispatch_consumes_credit(self):
        net, _ = single_packet_network(
            Design.BACKPRESSURED, src=0, dst=2, num_flits=1
        )
        router = net.router(0)
        net.step()  # inject + SA + dispatch happen in cycle 0
        state = router._out_state[Direction.EAST]
        spent = [vc for vc in state.vc_states if vc.credits < 8]
        assert len(spent) == 1
        assert spent[0].credits == 7
        assert spent[0].busy  # head allocated, tail not yet through

    def test_credit_returns_after_downstream_dequeue(self):
        net, _ = single_packet_network(
            Design.BACKPRESSURED, src=0, dst=2, num_flits=1
        )
        router = net.router(0)
        net.drain()
        state = router._out_state[Direction.EAST]
        assert all(vc.credits == 8 for vc in state.vc_states)
        assert all(not vc.busy for vc in state.vc_states)

    def test_credit_overflow_detected(self):
        from repro.network.link import CreditMessage

        net = make_network(Design.BACKPRESSURED)
        router = net.router(0)
        router.finalize()
        with pytest.raises(RuntimeError, match="credit overflow"):
            router._accept_credit(
                Direction.EAST,
                CreditMessage(vnet=VirtualNetwork.CONTROL_REQ, vc=0),
                cycle=0,
            )


class TestBufferDiscipline:
    def _flit(self, num_flits=1, seq=0, dst=0):
        packet = Packet(
            src=1,
            dst=dst,
            vnet=VirtualNetwork.CONTROL_REQ,
            num_flits=num_flits,
            created_at=0,
        )
        flits = list(packet.flits())
        return flits[seq]

    def test_vc_overflow_raises(self):
        net = make_network(Design.BACKPRESSURED)
        router = net.router(0)
        router.finalize()
        packet = Packet(
            src=1, dst=0, vnet=VirtualNetwork.CONTROL_REQ, num_flits=9,
            created_at=0,
        )
        flits = list(packet.flits())
        for flit in flits[:8]:
            flit.vc = 0
            router._accept_flit(flit, Direction.EAST, cycle=0)
        flits[8].vc = 0
        with pytest.raises(RuntimeError, match="overflow"):
            router._accept_flit(flits[8], Direction.EAST, cycle=0)

    def test_double_allocation_raises(self):
        net = make_network(Design.BACKPRESSURED)
        router = net.router(0)
        router.finalize()
        a = self._flit()
        b = self._flit()
        a.vc = b.vc = 0
        router._accept_flit(a, Direction.EAST, cycle=0)
        with pytest.raises(RuntimeError, match="double-allocated"):
            router._accept_flit(b, Direction.EAST, cycle=0)

    def test_foreign_body_flit_raises(self):
        net = make_network(Design.BACKPRESSURED)
        router = net.router(0)
        router.finalize()
        head = self._flit(num_flits=2, seq=0)
        foreign_body = self._flit(num_flits=2, seq=1)  # different packet
        head.vc = foreign_body.vc = 0
        router._accept_flit(head, Direction.EAST, cycle=0)
        with pytest.raises(RuntimeError, match="owned by"):
            router._accept_flit(foreign_body, Direction.EAST, cycle=0)

    def test_missing_vc_assignment_raises(self):
        net = make_network(Design.BACKPRESSURED)
        router = net.router(0)
        router.finalize()
        flit = self._flit()  # vc stays -1
        with pytest.raises(RuntimeError, match="without a VC"):
            router._accept_flit(flit, Direction.EAST, cycle=0)


class TestEndToEnd:
    def test_burst_drains_with_conservation(self):
        net = make_network(Design.BACKPRESSURED)
        offer_random_burst(net, 150)
        net.drain(max_cycles=20_000)
        net.check_flit_conservation()
        assert net.stats.packets_completed == 150
        assert net.stats.deflections == 0  # never misroutes

    def test_buffers_empty_after_drain(self):
        net = make_network(Design.BACKPRESSURED)
        offer_random_burst(net, 60)
        net.drain()
        assert all(r.buffered_flits() == 0 for r in net.routers)

    def test_ideal_bypass_is_timing_identical(self):
        results = []
        for design in (
            Design.BACKPRESSURED,
            Design.BACKPRESSURED_IDEAL_BYPASS,
        ):
            net = make_network(design)
            offer_random_burst(net, 100)
            net.drain()
            results.append(
                (net.stats.avg_packet_latency, net.cycle)
            )
        assert results[0] == results[1]


class TestPortOccupancy:
    """Route/VC allocation and switch allocation walk each port's
    occupancy mask instead of all its VCs: the mask must mirror the
    queues, and the walk must visit occupied VCs in the order the
    all-VC scan did."""

    def _local_flit(self, vc):
        """A one-flit packet for node 0 itself, bound to input VC ``vc``."""
        packet = Packet(
            src=1, dst=0, vnet=VirtualNetwork.CONTROL_REQ, num_flits=1,
            created_at=0,
        )
        flit = next(packet.flits())
        flit.vc = vc
        return flit

    def test_mask_follows_the_queues(self):
        net = make_network(Design.BACKPRESSURED)
        router = net.router(0)
        port = router._input_ports[Direction.EAST]
        assert port.occupied == 0
        router._accept_flit(self._local_flit(3), Direction.EAST, cycle=0)
        assert port.occupied == 0b1000
        router._accept_flit(self._local_flit(0), Direction.EAST, cycle=0)
        assert port.occupied == 0b1001
        assert_occupancy_mirrors(net)
        router.step(cycle=0)  # one VC per input port per cycle
        router.step(cycle=1)
        assert port.occupied == 0
        assert router.buffered_flits() == 0
        assert_occupancy_mirrors(net)

    @pytest.mark.parametrize(
        "pointer, first, second",
        [(0, 1, 5), (1, 1, 5), (2, 5, 1), (5, 5, 1), (6, 1, 5), (7, 1, 5)],
    )
    def test_round_robin_order_over_occupied_vcs(self, pointer, first, second):
        net = make_network(Design.BACKPRESSURED)
        router = net.router(0)
        port = router._input_ports[Direction.EAST]
        for vc in (1, 5):
            router._accept_flit(self._local_flit(vc), Direction.EAST, cycle=0)
        port.sa_rr = pointer
        router.step(cycle=0)
        assert not port.vcs[first].queue and port.vcs[second].queue
        assert port.sa_rr == (first + 1) % len(port.vcs)
        router.step(cycle=1)
        assert port.occupied == 0

    def test_blocked_vc_is_passed_over(self):
        """An occupied VC whose downstream VC has no credit does not
        end the port's scan: the next occupied VC in round-robin order
        is nominated instead."""
        net = make_network(Design.BACKPRESSURED)
        router = net.router(1)  # top edge: EAST, WEST and SOUTH wired
        port = router._input_ports[Direction.WEST]
        onward = Packet(
            src=0, dst=2, vnet=VirtualNetwork.CONTROL_REQ, num_flits=1,
            created_at=0,
        )
        here = Packet(
            src=0, dst=1, vnet=VirtualNetwork.CONTROL_REQ, num_flits=1,
            created_at=0,
        )
        for vc, packet in enumerate((onward, here)):
            flit = next(packet.flits())
            flit.vc = vc
            router._accept_flit(flit, Direction.WEST, cycle=0)
        for state in router._out_state[Direction.EAST].vc_states:
            state.credits = 0
        router.step(cycle=0)
        assert port.occupied == 0b01  # VC 0 still waits for a credit
        assert net.interface(1).flits_ejected_total == 1
        assert port.sa_rr == 2

    def test_route_phase_runs_only_while_a_vc_awaits_allocation(self):
        net, _ = single_packet_network(
            Design.BACKPRESSURED, src=0, dst=2, num_flits=18,
            vnet=VirtualNetwork.DATA,
        )
        router = net.router(1)  # the packet's middle hop
        calls = []
        real = router._route_and_allocate_vcs
        router._route_and_allocate_vcs = lambda: calls.append(net.cycle) or real()
        net.subscribe("cycle_end", lambda cycle: assert_occupancy_mirrors(net))
        net.drain()
        assert net.stats.packets_completed == 1
        assert len(calls) == 1  # the head flit's cycle; 17 body cycles skip it

    def test_failed_vc_allocation_stays_pending(self):
        net, _ = single_packet_network(
            Design.BACKPRESSURED, src=0, dst=2, num_flits=1
        )
        router = net.router(0)
        states = router._out_state[Direction.EAST].vc_states
        for state in states:
            state.busy = True  # no downstream VC to allocate
        router.step(cycle=0)
        assert router._unallocated == 1 and router.buffered_flits() == 1
        states[0].busy = False
        router.step(cycle=1)
        assert router._unallocated == 0 and router.buffered_flits() == 0

    def test_credits_are_interned(self):
        from repro.network.link import credit_message

        net, _ = single_packet_network(
            Design.BACKPRESSURED, src=0, dst=2, num_flits=3
        )
        seen = []
        for _ in range(12):
            net.step()
            backflow = net.router(1).in_channels[Direction.WEST]._backflow
            seen.extend(item for _, item in backflow._items)
        credits = {id(c): c for c in seen}.values()
        assert {(c.vc, c.frees_vc) for c in credits} == {(0, False), (0, True)}
        for credit in credits:
            assert credit is credit_message(
                VirtualNetwork.CONTROL_REQ, credit.vc, credit.frees_vc
            )

    @pytest.mark.parametrize(
        "design",
        [Design.BACKPRESSURED, Design.BACKPRESSURED_BYPASS],
        ids=lambda d: d.value,
    )
    def test_mirrors_hold_every_cycle_under_load(self, design):
        net = make_network(design)
        net.subscribe("cycle_end", lambda cycle: assert_occupancy_mirrors(net))
        offer_random_burst(net, 150)
        net.drain(max_cycles=20_000)

    def test_mirrors_survive_credit_loss_and_resynthesis(self):
        from repro.faults import FaultInjector, FaultSpec
        from repro.traffic.synthetic import uniform_random_traffic

        net = make_network(Design.BACKPRESSURED, seed=11)
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
