"""Tests for the deflection (backpressureless) router."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Design, Direction, Mesh, Packet, VirtualNetwork
from repro.routers.backpressureless import allocate_deflection_ports

from conftest import (
    event_counts,
    make_network,
    offer_random_burst,
    ports_used,
    rng_twin,
    single_packet_network,
)


#: Port-mask rows ``[direction][vnet]`` with nothing masked.
OPEN = [[True] * len(VirtualNetwork)] * len(Direction)


def flits_to(dsts, src=0):
    out = []
    for dst in dsts:
        real_src = src if src != dst else (dst + 1) % 9
        packet = Packet(
            src=real_src,
            dst=dst,
            vnet=VirtualNetwork.CONTROL_REQ,
            num_flits=1,
            created_at=0,
        )
        out.append(next(packet.flits()))
    return out


class TestAllocateDeflectionPorts:
    MESH = Mesh(3, 3)

    def test_assigns_distinct_ports(self):
        flits = flits_to([5, 5, 5], src=3)  # node 4's neighbours vary
        assignment, unplaced = allocate_deflection_ports(
            self.MESH, 4, random.Random(0), flits,
            ok_rows=OPEN,
        )
        assert not unplaced
        assert len(assignment) == 3  # dict keys are ports: all distinct

    def test_uncontended_flit_gets_productive_port(self):
        flits = flits_to([5], src=3)  # at node 4, 5 is EAST
        assignment, _ = allocate_deflection_ports(
            self.MESH, 4, random.Random(0), flits,
            ok_rows=OPEN,
        )
        assert assignment == {Direction.EAST: flits[0]}
        assert flits[0].deflections == 0

    def test_contention_deflects_loser(self):
        flits = flits_to([5, 5], src=3)  # both want EAST at node 4
        assignment, _ = allocate_deflection_ports(
            self.MESH, 4, random.Random(0), flits,
            ok_rows=OPEN,
        )
        assert Direction.EAST in assignment
        deflected = sum(f.deflections for f in flits)
        assert deflected == 1

    def test_full_mask_leaves_flit_unplaced(self):
        flits = flits_to([5], src=3)
        assignment, unplaced = allocate_deflection_ports(
            self.MESH, 4, random.Random(0), flits,
            ok_rows=[[False] * len(VirtualNetwork)] * len(Direction),
        )
        assert assignment == {}
        assert unplaced == flits

    def test_never_unplaced_without_mask(self):
        for seed in range(20):
            rng = random.Random(seed)
            dsts = [rng.randrange(9) for _ in range(4)]
            dsts = [d if d != 4 else 5 for d in dsts]
            flits = flits_to(dsts, src=0)
            _, unplaced = allocate_deflection_ports(
                self.MESH, 4, rng, flits,
                ok_rows=OPEN,
            )
            assert not unplaced

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_flits=st.integers(0, 4),
        node=st.integers(0, 8),
    )
    def test_invariants_hold_for_any_input(self, seed, n_flits, node):
        mesh = Mesh(3, 3)
        rng = random.Random(seed)
        ports = mesh.network_ports(node)
        n = min(n_flits, len(ports))
        dsts = []
        while len(dsts) < n:
            d = rng.randrange(9)
            if d != node:
                dsts.append(d)
        flits = flits_to(dsts, src=node if node != 0 else 1)
        assignment, unplaced = allocate_deflection_ports(
            mesh, node, rng, flits,
            ok_rows=OPEN,
        )
        assert not unplaced
        assert len(assignment) == n
        assert sorted(id(f) for f in assignment.values()) == sorted(
            id(f) for f in flits
        )
        assert all(p in ports for p in assignment)


class TestZeroLoadLatency:
    """Table I: same 2-stage pipeline as the backpressured router."""

    def test_matches_backpressured_per_hop_latency(self):
        for dst, expected in ((1, 3), (2, 6), (8, 12)):
            net, _ = single_packet_network(
                Design.BACKPRESSURELESS, src=0, dst=dst, num_flits=1
            )
            net.drain()
            assert net.stats.avg_network_latency == expected

    def test_no_deflections_at_zero_load(self):
        net, _ = single_packet_network(
            Design.BACKPRESSURELESS, src=0, dst=8, num_flits=18,
            vnet=VirtualNetwork.DATA,
        )
        net.drain()
        assert net.stats.deflections == 0
        assert net.stats.avg_hops == 4


class TestDeflectionBehavior:
    def test_burst_drains_with_conservation(self):
        net = make_network(Design.BACKPRESSURELESS)
        offer_random_burst(net, 150)
        net.drain(max_cycles=30_000)
        net.check_flit_conservation()
        assert net.stats.packets_completed == 150

    def test_contention_causes_deflections(self):
        net = make_network(Design.BACKPRESSURELESS)
        offer_random_burst(net, 150)
        net.drain(max_cycles=30_000)
        assert net.stats.deflections > 0

    def test_no_buffers_reported(self):
        net = make_network(Design.BACKPRESSURELESS)
        router = net.router(0)
        assert router.buffered_flits() == 0
        assert router.buffer_capacity_flits == 0
        assert router.buffers_power_gated

    def test_injection_gated_when_all_ports_taken(self):
        net = make_network(Design.BACKPRESSURELESS)
        router = net.router(4)  # center: 4 network ports
        # Four network flits latched, none destined here.
        for flit in flits_to([0, 2, 6, 8], src=3):
            router._accept_flit(flit, Direction.EAST, cycle=0)
        ni = net.interface(4)
        ni.offer(
            Packet(
                src=4, dst=0, vnet=VirtualNetwork.CONTROL_REQ, num_flits=1,
                created_at=0,
            )
        )
        router.step(cycle=0)
        assert ni.source_queue_flits == 1  # injection was refused

    def test_injection_proceeds_with_free_port(self):
        net = make_network(Design.BACKPRESSURELESS)
        router = net.router(4)
        for flit in flits_to([0, 2], src=3):
            router._accept_flit(flit, Direction.EAST, cycle=0)
        ni = net.interface(4)
        ni.offer(
            Packet(
                src=4, dst=0, vnet=VirtualNetwork.CONTROL_REQ, num_flits=1,
                created_at=0,
            )
        )
        router.step(cycle=0)
        assert ni.source_queue_flits == 0

    def test_destination_flit_deflects_when_ejection_busy(self):
        net = make_network(Design.BACKPRESSURELESS)
        router = net.router(4)
        # More flits destined here than eject_bandwidth.
        arrivals = flits_to([4, 4, 4], src=3)
        for flit in arrivals:
            router._accept_flit(flit, Direction.EAST, cycle=0)
        router.step(cycle=0)
        ejected = net.interface(4).flits_ejected_total
        assert ejected == net.config.eject_bandwidth
        deflected = sum(f.deflections for f in arrivals)
        assert deflected == len(arrivals) - ejected

    def test_too_many_residents_raises(self):
        net = make_network(Design.BACKPRESSURELESS)
        router = net.router(0)  # corner: 2 ports
        for flit in flits_to([5, 5, 5], src=1):
            router._accept_flit(flit, Direction.EAST, cycle=0)
        with pytest.raises(RuntimeError, match="invariant"):
            router.step(cycle=0)


class TestSingleFlitPath:
    """With at most one resident flit the randomized router skips the
    allocator.  The general path would shuffle lists of <= 1 element
    (no draw) and hand the flit its first productive port, so the
    outcome, the RNG stream and the event counts must all be those of
    the general path — which the priority variant, whose sort of <= 1
    element is equally a no-op, still takes for the same input."""

    def _step_with(self, design, dsts, inject_to=None):
        net = make_network(design)
        router = net.router(4)  # centre: EAST/WEST/NORTH/SOUTH
        meter = router.energy
        before = rng_twin(router.rng)
        for flit in flits_to(dsts, src=3):
            router._accept_flit(flit, Direction.WEST, cycle=0)
        if inject_to is not None:
            net.interface(4).offer(
                Packet(
                    src=4, dst=inject_to, vnet=VirtualNetwork.CONTROL_REQ,
                    num_flits=1, created_at=0,
                )
            )
        router.step(cycle=0)
        return net, router, meter, before

    def test_lone_flit_takes_first_productive_port_without_a_draw(self):
        net, router, meter, before = self._step_with(
            Design.BACKPRESSURELESS, [8]  # productive: EAST, then SOUTH
        )
        assert ports_used(router) == [Direction.EAST]
        assert net.stats.deflections == 0
        assert router.rng.getstate() == before.getstate()
        assert event_counts(meter) == {
            "latches": 1, "arbitrations": 1, "crossings": 1, "links": 1
        }

    def test_lone_flit_at_destination_ejects_without_a_draw(self):
        net, router, meter, before = self._step_with(
            Design.BACKPRESSURELESS, [4]
        )
        assert ports_used(router) == []
        assert net.interface(4).flits_ejected_total == 1
        assert net.stats.dispatched_flit_hops == 1
        assert router.rng.getstate() == before.getstate()
        assert event_counts(meter) == {"latches": 1, "crossings": 1}

    def test_same_cycle_injection_takes_a_leftover_port(self):
        # Resident and injected flit both want EAST (their only
        # productive port): the injected one is deflected onto a random
        # free port, one draw, and dispatched second.
        net, router, meter, before = self._step_with(
            Design.BACKPRESSURELESS, [5], inject_to=5
        )
        leftover = before.choice(
            [Direction.WEST, Direction.NORTH, Direction.SOUTH]
        )
        assert ports_used(router) == sorted([Direction.EAST, leftover])
        assert router.rng.getstate() == before.getstate()
        assert event_counts(meter) == {
            "latches": 1, "arbitrations": 2, "crossings": 2, "links": 2
        }
        assert net.interface(4).source_queue_flits == 0

    @pytest.mark.parametrize(
        "dsts, inject_to",
        [([8], None), ([4], None), ([5], 5), ([8], 5), ([4], 0), ([], 2)],
    )
    def test_matches_the_general_path(self, dsts, inject_to):
        fast = self._step_with(Design.BACKPRESSURELESS, dsts, inject_to)
        general = self._step_with(
            Design.BACKPRESSURELESS_PRIORITY, dsts, inject_to
        )
        assert ports_used(fast[1]) == ports_used(general[1])
        assert fast[1].rng.getstate() == general[1].rng.getstate()
        assert fast[2].counts() == general[2].counts()
        assert (
            fast[0].stats.dispatched_flit_hops
            == general[0].stats.dispatched_flit_hops
        )

    def test_priority_variant_never_takes_the_shortcut(self, monkeypatch):
        from repro.routers import backpressureless

        calls = []
        real = backpressureless.allocate_deflection_ports

        def counting(*args, **kwargs):
            calls.append(kwargs.get("sort_key"))
            return real(*args, **kwargs)

        monkeypatch.setattr(
            backpressureless, "allocate_deflection_ports", counting
        )
        self._step_with(Design.BACKPRESSURELESS, [8])
        assert calls == []
        self._step_with(Design.BACKPRESSURELESS_PRIORITY, [8])
        assert calls == [backpressureless.age_key]

    def test_two_flits_take_the_general_path(self):
        net, router, meter, before = self._step_with(
            Design.BACKPRESSURELESS, [5, 5]  # contend for EAST
        )
        order = [0, 1]
        before.shuffle(order)  # the service-order draw
        loser_port = before.choice(
            [Direction.WEST, Direction.NORTH, Direction.SOUTH]
        )
        assert ports_used(router) == sorted([Direction.EAST, loser_port])
        assert router.rng.getstate() == before.getstate()
