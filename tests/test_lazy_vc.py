"""Unit tests for lazy VC allocation structures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Packet, VirtualNetwork
from repro.core.lazy_vc import BufferBank, LazyInputPort, NeighborCreditState


def flit(vnet=VirtualNetwork.DATA):
    packet = Packet(
        src=0, dst=1, vnet=vnet, num_flits=1, created_at=0
    )
    return next(packet.flits())


LAYOUT = (8, 8, 16)


class TestLazyInputPort:
    def test_capacities(self):
        port = LazyInputPort(LAYOUT)
        assert port.capacity[VirtualNetwork.CONTROL_REQ] == 8
        assert port.capacity[VirtualNetwork.CONTROL_RESP] == 8
        assert port.capacity[VirtualNetwork.DATA] == 16

    def test_insert_and_counts(self):
        port = LazyInputPort(LAYOUT)
        port.insert(flit(VirtualNetwork.DATA))
        port.insert(flit(VirtualNetwork.CONTROL_REQ))
        assert port.occupied(VirtualNetwork.DATA) == 1
        assert port.free_slots(VirtualNetwork.DATA) == 15
        assert port.total_flits == 2
        assert not port.empty
        assert port.occupied_tuple() == (1, 0, 1)

    def test_overflow_raises(self):
        port = LazyInputPort((1, 1, 1))
        port.insert(flit(VirtualNetwork.DATA))
        with pytest.raises(RuntimeError, match="overflow"):
            port.insert(flit(VirtualNetwork.DATA))

    def test_remove_frees_slot(self):
        port = LazyInputPort(LAYOUT)
        f = flit()
        port.insert(f)
        port.remove(f)
        assert port.empty
        assert port.free_slots(VirtualNetwork.DATA) == 16

    def test_flits_oldest_first_within_vnet(self):
        port = LazyInputPort(LAYOUT)
        a, b = flit(), flit()
        port.insert(a)
        port.insert(b)
        assert port.flits_of(VirtualNetwork.DATA) == [a, b]

    def test_flits_covers_all_vnets(self):
        port = LazyInputPort(LAYOUT)
        a = flit(VirtualNetwork.CONTROL_REQ)
        b = flit(VirtualNetwork.DATA)
        port.insert(a)
        port.insert(b)
        assert set(port.flits()) == {a, b}

    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(list(VirtualNetwork)), min_size=1, max_size=30
        )
    )
    def test_occupancy_never_exceeds_capacity(self, ops):
        port = LazyInputPort((2, 2, 4))
        inserted = []
        for vnet in ops:
            if port.free_slots(vnet) > 0:
                f = flit(vnet)
                port.insert(f)
                inserted.append(f)
            else:
                with pytest.raises(RuntimeError):
                    port.insert(flit(vnet))
        for vnet in VirtualNetwork:
            assert 0 <= port.occupied(vnet) <= port.capacity[vnet]
        assert port.total_flits == len(inserted)


class TestBufferBank:
    """The router-wide count moves with every port's own count."""

    def test_ports_of_one_router_share_the_bank(self):
        bank = BufferBank()
        east, west = LazyInputPort(LAYOUT, bank), LazyInputPort(LAYOUT, bank)
        a, b, c = flit(), flit(VirtualNetwork.CONTROL_REQ), flit()
        east.insert(a)
        east.insert(b)
        west.insert(c)
        assert bank.flits == 3 == east.total_flits + west.total_flits
        east.remove(a)
        west.remove(c)
        assert bank.flits == 1 == east.total_flits + west.total_flits

    def test_standalone_port_counts_into_its_own_bank(self):
        first, second = LazyInputPort(LAYOUT), LazyInputPort(LAYOUT)
        first.insert(flit())
        assert first._bank.flits == 1 and second._bank.flits == 0

    def test_overflow_leaves_the_bank_untouched(self):
        bank = BufferBank()
        port = LazyInputPort((1, 1, 1), bank)
        port.insert(flit())
        with pytest.raises(RuntimeError, match="overflow"):
            port.insert(flit())
        assert bank.flits == 1 == port.total_flits

    @given(st.lists(st.booleans(), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_bank_equals_recount_under_any_sequence(self, ops):
        bank = BufferBank()
        ports = [LazyInputPort(LAYOUT, bank) for _ in range(3)]
        held = []
        for i, insert in enumerate(ops):
            port = ports[i % 3]
            if insert and port.free_slots(VirtualNetwork.DATA):
                f = flit()
                port.insert(f)
                held.append((port, f))
            elif held:
                port, f = held.pop(0)
                port.remove(f)
            assert bank.flits == sum(len(p.flits()) for p in ports)


class TestNeighborCreditState:
    def test_untracked_always_can_send(self):
        state = NeighborCreditState(LAYOUT)
        assert not state.tracking
        for vnet in VirtualNetwork:
            assert state.can_send(vnet)

    def test_untracked_send_costs_nothing(self):
        state = NeighborCreditState(LAYOUT)
        state.on_send(VirtualNetwork.DATA)
        assert state.credits[VirtualNetwork.DATA] == 16

    def test_start_tracking_uses_occupancy_snapshot(self):
        state = NeighborCreditState(LAYOUT)
        state.start_tracking((2, 0, 5))
        assert state.credits[VirtualNetwork.CONTROL_REQ] == 6
        assert state.credits[VirtualNetwork.CONTROL_RESP] == 8
        assert state.credits[VirtualNetwork.DATA] == 11

    def test_snapshot_over_capacity_raises(self):
        state = NeighborCreditState(LAYOUT)
        with pytest.raises(RuntimeError):
            state.start_tracking((9, 0, 0))

    def test_tracked_send_decrements(self):
        state = NeighborCreditState((1, 1, 1))
        state.start_tracking((0, 0, 0))
        assert state.can_send(VirtualNetwork.DATA)
        state.on_send(VirtualNetwork.DATA)
        assert not state.can_send(VirtualNetwork.DATA)
        with pytest.raises(RuntimeError, match="without credit"):
            state.on_send(VirtualNetwork.DATA)

    def test_credit_restores(self):
        state = NeighborCreditState(LAYOUT)
        state.start_tracking((0, 0, 0))
        state.on_send(VirtualNetwork.DATA)
        state.on_credit(VirtualNetwork.DATA)
        assert state.credits[VirtualNetwork.DATA] == 16

    def test_credit_clamped_at_capacity(self):
        """Stale credits (for emergency-buffered flits the upstream never
        counted) must not push counters past capacity."""
        state = NeighborCreditState(LAYOUT)
        state.start_tracking((0, 0, 0))
        state.on_credit(VirtualNetwork.DATA)
        assert state.credits[VirtualNetwork.DATA] == 16

    def test_debit_decrements_with_floor(self):
        state = NeighborCreditState((1, 1, 1))
        state.start_tracking((0, 0, 0))
        state.on_credit(VirtualNetwork.DATA, debit=True)
        assert state.credits[VirtualNetwork.DATA] == 0
        state.on_credit(VirtualNetwork.DATA, debit=True)
        assert state.credits[VirtualNetwork.DATA] == 0  # floored

    def test_settling_reserve_holds_credits_back_then_releases_them(self):
        """For ``reserve`` cycles after a START a vnet is sendable only
        while ``credits > reserve``; the reserve is a function of the
        absolute cycle, so a router that slept catches up in one call."""
        state = NeighborCreditState((5, 5, 5))
        state.start_tracking((1, 0, 0), cycle=10, reserve=4)
        assert state.ok == [False, True, True]  # 4 > 4 is false, 5 > 4
        state.on_send(VirtualNetwork.DATA)
        assert not state.can_send(VirtualNetwork.DATA)  # 4 left, 4 reserved
        assert not state.settle(11)  # reserve 3
        assert state.ok == [True, True, True]
        state.on_credit(VirtualNetwork.CONTROL_REQ, debit=True)
        assert not state.can_send(VirtualNetwork.CONTROL_REQ)  # 3 > 3
        assert state.settle(20) and state.reserve == 0  # slept past 14
        assert state.ok == [True, True, True]
        state.start_tracking((0, 0, 0), cycle=30, reserve=4)
        state.stop_tracking()
        assert state.reserve == 0 and state.settle(31)

    def test_credits_ignored_when_not_tracking(self):
        state = NeighborCreditState(LAYOUT)
        state.on_credit(VirtualNetwork.DATA, debit=True)
        assert state.credits[VirtualNetwork.DATA] == 16

    def test_stop_tracking_resets_to_full(self):
        """Section III-C: neighbours 'set the buffer occupancy of the
        switched router to empty'."""
        state = NeighborCreditState(LAYOUT)
        state.start_tracking((0, 0, 0))
        state.on_send(VirtualNetwork.DATA)
        state.stop_tracking()
        assert not state.tracking
        assert state.credits[VirtualNetwork.DATA] == 16

    def test_total_free_is_gossip_metric(self):
        state = NeighborCreditState(LAYOUT)
        state.start_tracking((0, 0, 0))
        assert state.total_free == 32
        for _ in range(30):
            # drain across vnets
            for vnet in VirtualNetwork:
                if state.credits[vnet] > 0:
                    state.on_send(vnet)
                    break
        assert state.total_free == 2
