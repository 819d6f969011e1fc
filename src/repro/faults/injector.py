"""Clock-driven fault injection with optional protection.

The injector subscribes to a built :class:`Network`'s ``cycle_start``
site, owns the per-channel ``fault`` states, and (when protection is
enabled) the ``offer``/``guard``/``complete`` subscriptions of
:class:`~repro.faults.protection.ProtectionLayer` — and then replays a
:class:`~repro.faults.schedule.FaultSchedule` against the simulation
clock.  It coexists with any other subscriber in any attach order.

Fault semantics (see docs/RESILIENCE.md for the rationale):

* a down or bit-error'd link *corrupts* flits (marks them so the
  destination checksum fails) instead of dropping them.  Flits keep
  moving, so flit conservation, credit protocols, and the deflection
  in-degree/out-degree invariant all hold for every design — exactly
  like real links, where energy arrives even when information does not;
* credit messages on a down link *are* destroyed (the targeted
  backpressure fragility), as are explicit CREDIT_LOSS events;
* the mode-notification control line is assumed protected (one bit,
  trivially ECC'd) and is never faulted — dropping a STOP_CREDITS
  would desynchronise AFC's distributed mode state machine in a way no
  per-flit mechanism could repair, so we model it the way hardware
  would build it;
* permanent kills patch every router's route rows around the dead
  topology after ``reroute_delay`` cycles (protection enabled only);
* for credit-tracking designs, a periodic *credit-timeout resynthesis*
  recomputes each upstream credit counter from ground truth (downstream
  occupancy plus in-flight flits and credits) — the oracle equivalent
  of a hardware credit-resync handshake — and releases VC-busy latches
  whose tail credit was destroyed.

With an empty schedule and no faults ever applied, a run is
bit-identical to one without the injector: the hooks observe but never
mutate (tests/test_faults.py pins this for both cycle engines).

The dropping design is unsupported: its routers destroy flit objects
mid-network, which would leak entries in the corrupt-flit table.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.mode_controller import Mode
from ..network.config import Design
from ..network.flit import Flit, VNETS
from ..network.link import Channel, CreditMessage, ModeNotification
from .protection import ProtectionConfig, ProtectionLayer, publish_fault
from .reroute import damaged_route_rows
from .schedule import FaultEvent, FaultKind, FaultSchedule

_FOREVER = 1 << 60


def _mark_corrupt(net, corrupt_ids: Optional[Set[int]], flit: Flit) -> bool:
    """Mark ``flit`` as checksum-failing; False if already marked.
    ``corrupt_ids`` is the id table the protection guard reads, None
    when nothing reads it (an unprotected run)."""
    if corrupt_ids is not None:
        fid = id(flit)
        if fid in corrupt_ids:
            return False
        corrupt_ids.add(fid)
    net.stats.record_flit_corrupted()
    publish_fault(net, "noc_flits_corrupted_total")
    return True


def _lose_credit(net) -> None:
    net.stats.record_credit_lost()
    publish_fault(net, "noc_credits_lost_total")


class ChannelFault:
    """Per-channel fault state, consulted by ``Channel.send_*``.

    Held by its channel, so it keeps no reference to the injector:
    ``corrupt(flit)`` and ``credit_lost()`` are the injector's
    bookkeeping bound over plain state and a weak proxy of the
    network."""

    __slots__ = (
        "corrupt",
        "credit_lost",
        "down_until",
        "corrupt_next",
        "drop_credits_next",
    )

    def __init__(
        self,
        corrupt: Callable[[Flit], bool],
        credit_lost: Callable[[], None],
    ) -> None:
        self.corrupt = corrupt
        self.credit_lost = credit_lost
        #: Exclusive end of the current downtime (0 = link is up).
        self.down_until = 0
        #: Pending BIT_ERROR budget: corrupt this many future sends.
        self.corrupt_next = 0
        #: Pending CREDIT_LOSS budget: drop this many future credits.
        self.drop_credits_next = 0

    def on_send_flit(self, flit: Flit, cycle: int) -> None:
        if cycle < self.down_until:
            self.corrupt(flit)
        elif self.corrupt_next > 0:
            self.corrupt_next -= 1
            self.corrupt(flit)

    def on_send_credit(self, credit: CreditMessage, cycle: int) -> bool:
        """True destroys the credit message."""
        if cycle < self.down_until:
            self.credit_lost()
            return True
        if self.drop_credits_next > 0:
            self.drop_credits_next -= 1
            self.credit_lost()
            return True
        return False


class FaultInjector:
    """Applies a fault schedule to a network; owns the protection layer.

    Create the injector immediately after the :class:`Network`, before
    offering any traffic (the protection ledger must see every packet).
    ``protection=None`` runs the faults *unprotected*: corrupted flits
    are delivered as garbage, no retransmission, no resync, no reroute —
    the contrast case for the resilience benchmark.

    The network keeps the injector alive (its ``cycle_start``
    subscription and the channels' fault states hold it); the injector
    holds the network only weakly, so it never outlives it and a
    finished faulted run is freed by reference counting, detached or
    not.
    """

    def __init__(
        self,
        net,
        schedule: FaultSchedule,
        protection: Optional[ProtectionConfig] = ProtectionConfig(),
    ) -> None:
        if net.design is Design.BACKPRESSURELESS_DROPPING:
            raise ValueError(
                "fault injection does not support the dropping design "
                "(flit objects are destroyed mid-network)"
            )
        self.net = weakref.proxy(net)
        self.stats = net.stats
        self.schedule = schedule
        self._events: Tuple[FaultEvent, ...] = schedule.events
        self._next_event = 0
        self._channel_map: Dict[Tuple[int, int], Channel] = {
            (ch.upstream, ch.downstream): ch for ch in net.channels
        }
        self._faults: Dict[Channel, ChannelFault] = {}
        #: id(flit) -> "checksum will fail"; shared with the guard,
        #: which removes entries at ejection (maintained only when
        #: protection is enabled — nothing reads it otherwise).
        self._corrupt_ids: Set[int] = set()
        #: Directed dead links (both directions of a killed pair).
        self.dead_pairs: Set[Tuple[int, int]] = set()
        self.dead_nodes: Set[int] = set()
        self._patch_heap: List[Tuple[int, int, int]] = []
        self._patch_seq = itertools.count()
        self._patched_dead: frozenset = frozenset()
        self._resync_armed = False
        self.config = protection
        self._corrupt = partial(
            _mark_corrupt,
            self.net,
            self._corrupt_ids if protection is not None else None,
        )
        self._credit_lost = partial(_lose_credit, self.net)
        self.protection: Optional[ProtectionLayer] = None
        if protection is not None:
            self.protection = ProtectionLayer(net, protection, self._corrupt_ids)
        net.subscribe("cycle_start", self.on_cycle)

    def detach(self) -> None:
        """Stop driving the schedule and remove the protection layer's
        subscriptions (channel fault states already applied stay)."""
        self.net.unsubscribe("cycle_start", self.on_cycle)
        if self.protection is not None:
            self.protection.detach()

    # -- per-cycle driver ---------------------------------------------------
    def on_cycle(self, cycle: int) -> None:
        events = self._events
        i = self._next_event
        n = len(events)
        if i < n and events[i].cycle <= cycle:
            while i < n and events[i].cycle <= cycle:
                self._apply_event(events[i], cycle)
                i += 1
            self._next_event = i
        heap = self._patch_heap
        while heap and heap[0][0] <= cycle:
            _, _, delay = heapq.heappop(heap)
            self._apply_patch(delay)
        prot = self.protection
        if prot is not None:
            prot.tick(cycle)
            interval = self.config.credit_resync_interval
            if self._resync_armed and interval and cycle % interval == 0:
                self._resync_credits()

    # -- event application ---------------------------------------------------
    def _apply_event(self, ev: FaultEvent, cycle: int) -> None:
        self.stats.record_fault_event()
        publish_fault(self.net, "noc_fault_events_total")
        kind = ev.kind
        if kind is FaultKind.LINK_FLAP:
            self._down_pair(ev.a, ev.b, cycle + ev.duration)
        elif kind is FaultKind.LINK_KILL:
            self._kill_pair(ev.a, ev.b, cycle)
        elif kind is FaultKind.ROUTER_KILL:
            self.dead_nodes.add(ev.a)
            for node, _d, nbr in self.net.mesh.links():
                if node == ev.a and (node, nbr) not in self.dead_pairs:
                    self._kill_pair(node, nbr, cycle)
        elif kind is FaultKind.BIT_ERROR:
            fault = self._fault_for(self._channel(ev.a, ev.b))
            marked = self._corrupt_in_flight(self._channel(ev.a, ev.b), ev.count)
            if marked < ev.count:
                fault.corrupt_next += ev.count - marked
        else:  # CREDIT_LOSS
            self._resync_armed = True
            channel = self._channel(ev.a, ev.b)
            fault = self._fault_for(channel)
            dropped = self._drop_credits_in_flight(channel, ev.count)
            if dropped < ev.count:
                fault.drop_credits_next += ev.count - dropped

    def _channel(self, a: int, b: int) -> Channel:
        try:
            return self._channel_map[(a, b)]
        except KeyError:
            raise ValueError(f"no link {a} -> {b} in this mesh") from None

    def _fault_for(self, channel: Channel) -> ChannelFault:
        fault = self._faults.get(channel)
        if fault is None:
            fault = ChannelFault(self._corrupt, self._credit_lost)
            self._faults[channel] = fault
            channel.fault = fault
        return fault

    def _down_pair(self, a: int, b: int, until: int) -> None:
        # Both directions of the physical link go down together, so a
        # router's in-degree and out-degree stay matched (the deflection
        # placement guarantee depends on it).
        self._resync_armed = True
        for u, v in ((a, b), (b, a)):
            channel = self._channel(u, v)
            fault = self._fault_for(channel)
            if until > fault.down_until:
                fault.down_until = until
            self._corrupt_in_flight(channel, None)
            self._drop_credits_in_flight(channel, None)

    def _kill_pair(self, a: int, b: int, cycle: int) -> None:
        self._down_pair(a, b, _FOREVER)
        self.dead_pairs.add((a, b))
        self.dead_pairs.add((b, a))
        if self.config is not None:
            delay = self.config.reroute_delay
            heapq.heappush(
                self._patch_heap, (cycle + delay, next(self._patch_seq), delay)
            )

    # -- corruption / credit loss -------------------------------------------
    def _corrupt_in_flight(self, channel: Channel, limit: Optional[int]) -> int:
        marked = 0
        for _ready, flit in channel._flits._items:
            if limit is not None and marked >= limit:
                break
            if self._corrupt(flit):
                marked += 1
        return marked

    def _drop_credits_in_flight(
        self, channel: Channel, limit: Optional[int]
    ) -> int:
        items = channel._backflow._items
        if not items:
            return 0
        dropped = 0
        kept = []
        for pair in items:
            if (limit is None or dropped < limit) and type(
                pair[1]
            ) is CreditMessage:
                dropped += 1
                continue
            kept.append(pair)
        if dropped:
            # Mutate in place: the downstream router's frozen drain
            # snapshot aliases this list.
            items.clear()
            items.extend(kept)
            for _ in range(dropped):
                self._credit_lost()
        return dropped

    # -- route patching -------------------------------------------------------
    def _apply_patch(self, delay: int) -> None:
        dead = frozenset(self.dead_pairs)
        if dead == self._patched_dead:
            return  # an earlier patch already covered this kill
        self._patched_dead = dead
        rows = damaged_route_rows(self.net.mesh, dead)
        for node, router in enumerate(self.net.routers):
            xy_row, prod_row, fallback_row = rows[node]
            router._xy_row = xy_row
            router._prod_row = prod_row
            router._fallback_row = fallback_row
        self.stats.record_reroute(delay)

    # -- credit-timeout resynthesis -------------------------------------------
    def _resync_credits(self) -> None:
        design = self.net.design
        if design.is_backpressured_baseline:
            self._resync_baseline()
        elif design.is_afc_family:
            self._resync_afc()

    def _resync_baseline(self) -> None:
        """Recompute per-VC credits and busy latches from ground truth.

        Invariant per downstream VC: ``credits + queue_len + in-flight
        flits + in-flight credits == depth``.  A destroyed credit
        breaks it by one forever; resynthesis restores it.  The busy
        latch is released only when no packet owns the downstream VC,
        no flit or tail credit is in flight for it, and no upstream
        input VC holds an allocation to it."""
        routers = self.net.routers
        for channel in self.net.channels:
            up = routers[channel.upstream]
            down = routers[channel.downstream]
            out_state = up._out_state[channel.direction]
            in_port = down._input_ports[channel.direction.opposite]
            vc_states = out_state.vc_states
            nvc = len(vc_states)
            inflight_f = [0] * nvc
            for _ready, flit in channel._flits._items:
                inflight_f[flit.vc] += 1
            inflight_c = [0] * nvc
            frees = [False] * nvc
            for _ready, msg in channel._backflow._items:
                if type(msg) is CreditMessage and msg.vc >= 0:
                    inflight_c[msg.vc] += 1
                    if msg.frees_vc:
                        frees[msg.vc] = True
            alloc = [False] * nvc
            for port in up._iport_list:
                for vc in port.vcs:
                    if vc.out_port is channel.direction and vc.out_vc is not None:
                        alloc[vc.out_vc] = True
            depth = up._depth
            repaired = 0
            for idx in range(nvc):
                state = vc_states[idx]
                true_credits = (
                    depth
                    - len(in_port.vcs[idx].queue)
                    - inflight_f[idx]
                    - inflight_c[idx]
                )
                if state.credits != true_credits:
                    state.credits = true_credits
                    repaired += 1
                if (
                    state.busy
                    and in_port.vcs[idx].owner_pid is None
                    and not inflight_f[idx]
                    and not frees[idx]
                    and not alloc[idx]
                ):
                    state.busy = False
                    repaired += 1
            if repaired:
                self.stats.record_credit_resync(repaired)

    def _resync_afc(self) -> None:
        """Recompute AFC's per-vnet neighbour credits from ground truth.

        Only well-defined while the downstream is settled in
        backpressured mode with no mode notification in flight — the
        transition windows reconcile occupancy via their own
        snapshot/debit protocol and are left alone."""
        routers = self.net.routers
        nvnets = len(VNETS)
        for channel in self.net.channels:
            up = routers[channel.upstream]
            down = routers[channel.downstream]
            state = up._neighbors[channel.direction]
            if not state.tracking:
                continue
            if down.mode is not Mode.BACKPRESSURED:
                continue
            backflow = channel._backflow._items
            if any(type(msg) is ModeNotification for _ready, msg in backflow):
                continue
            in_port = down._input_ports[channel.direction.opposite]
            inflight_f = [0] * nvnets
            for _ready, flit in channel._flits._items:
                inflight_f[flit.vnet] += 1
            inflight_c = [0] * nvnets
            for _ready, msg in backflow:
                if type(msg) is CreditMessage:
                    inflight_c[msg.vnet] += -1 if msg.debit else 1
            repaired = 0
            for vnet in VNETS:
                capacity = state.capacity[vnet]
                true_credits = (
                    capacity
                    - in_port.occupied(vnet)
                    - inflight_f[vnet]
                    - inflight_c[vnet]
                )
                if true_credits < 0:
                    true_credits = 0
                elif true_credits > capacity:
                    true_credits = capacity
                if state.credits[vnet] != true_credits:
                    state._total_free += true_credits - state.credits[vnet]
                    state.credits[vnet] = true_credits
                    state.ok[vnet] = true_credits > state.reserve
                    repaired += 1
            if repaired:
                self.stats.record_credit_resync(repaired)

    # -- draining --------------------------------------------------------------
    def _outstanding(self) -> int:
        extra = self.protection.outstanding if self.protection is not None else 0
        return self.net.flits_unaccounted + extra

    def drain(self, max_cycles: int = 200_000) -> int:
        """Run until every non-orphaned packet is delivered.

        Like :meth:`Network.drain`, but also waits for the protection
        ledger: a packet pending a NACK'd or timed-out retransmission
        is still owed to the client.  Returns the extra cycles taken;
        raises on failure to converge (a resilience bug indicator)."""
        net = self.net
        start = net.cycle
        while self._outstanding() > 0:
            if net.cycle - start >= max_cycles:
                raise RuntimeError(
                    f"faulted network failed to drain within {max_cycles} "
                    f"cycles; {net.flits_unaccounted} flits outstanding, "
                    f"{self.protection.outstanding if self.protection else 0} "
                    "packets in the protection ledger"
                )
            net.step()
        net.sync_bookkeeping()
        return net.cycle - start
