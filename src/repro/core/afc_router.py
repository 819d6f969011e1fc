"""The AFC router (Section III).

One router, two datapaths:

* **backpressureless mode** — the deflection router itself: the cycle
  of :class:`~repro.routers.backpressureless.DeflectionRouter`
  (randomized deflection routing, latches only, buffers power-gated)
  runs unchanged, except that output ports toward neighbours known to
  be in backpressured mode are masked per virtual network by credit
  availability, and a gossip-induced forward switch fires when such a
  neighbour runs low on free buffers.
* **backpressured mode** — an input-buffered router with *lazy VC
  allocation* (:mod:`repro.core.lazy_vc`): one-flit VCs, per-vnet
  credits, flit-by-flit routing, no VC-allocation pipeline stage.

Mode switching follows :mod:`repro.core.mode_controller`.  The corner
cases of mixed-mode neighbours (Section III-D) are handled as follows:

* backpressured → backpressureless traffic needs no safeguard (a
  deflecting router accepts everything);
* backpressureless → backpressured traffic is credit-masked; the
  lightweight "scalpel" is to keep deflecting while the neighbour has
  buffer space, the "sledgehammer" is the gossip-induced switch when
  fewer than X = 2L free slots remain;
* if masking ever leaves a latched flit with *no* usable output port
  (possible only when a single vnet's credits run dry before the gossip
  switch completes), the flit is emergency-buffered into this router's
  own input buffer and a forward switch begins immediately.  If the
  switch notification already went out, an occupancy *debit* message
  reconciles the upstream credit counter — which holds back a reserve
  for exactly these writes until the last debit can have arrived
  (:class:`~repro.core.lazy_vc.NeighborCreditState`); the buffered flit
  drains normally once backpressured operation starts.  This is the
  simulator's realisation of the paper's correctness guarantee that no
  flit is ever dropped or stranded.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..network.config import Design, NetworkConfig
from ..network.energy_hooks import EnergyMeter
from ..network.flit import Flit, VirtualNetwork, VNETS
from ..network.link import (
    CreditMessage,
    ModeNotice,
    ModeNotification,
    credit_message,
)
from ..network.stats import StatsCollector
from ..network.topology import LOCAL, Direction, Mesh
from ..routers.backpressureless import DeflectionRouter
from .lazy_vc import BufferBank, LazyInputPort, NeighborCreditState
from .mode_controller import (
    BACKPRESSURED,
    BACKPRESSURELESS,
    TRANSITION,
    Mode,
    ModeController,
)
from .thresholds import thresholds_for

#: Switch allocation's round-robin over virtual networks, as data:
#: ``_VNET_ORDER[sa_rr]`` is the vnet visiting order from pointer
#: ``sa_rr``, and ``_VNET_NEXT[vnet]`` the pointer after serving ``vnet``.
_VNET_ORDER = tuple(
    tuple((start + i) % len(VNETS) for i in range(len(VNETS)))
    for start in range(len(VNETS))
)
_VNET_NEXT = tuple((vnet + 1) % len(VNETS) for vnet in range(len(VNETS)))


class AfcRouter(DeflectionRouter):
    """Adaptive flow-control router (and its always-backpressured twin)."""

    STAGES = {
        "step": DeflectionRouter.STAGES["step"]
        + ("_backpressured_step", "_adapt"),
        "_backpressured_step": ("_backpressured_inject",),
    }

    def __init__(
        self,
        node: int,
        config: NetworkConfig,
        mesh: Mesh,
        rng: random.Random,
        stats: StatsCollector,
        energy: Optional[EnergyMeter] = None,
        design: Design = Design.AFC,
    ) -> None:
        super().__init__(node, config, mesh, rng, stats, energy)
        if not design.is_afc_family:
            raise ValueError(f"{design} is not an AFC design")
        self.design = design
        self._vcs = config.vcs_for(design)  # rejects unservable layouts
        adaptive = design is Design.AFC
        self._mode = ModeController(
            thresholds=thresholds_for(config, self.router_class),
            link_latency=config.link_latency,
            load_window=config.load_window,
            ewma_alpha=config.ewma_alpha,
            adaptive=adaptive,
            initial_mode=(
                BACKPRESSURELESS if adaptive else BACKPRESSURED
            ),
        )
        #: Gated exactly while deflecting and empty, so only the
        #: adaptive router's gating can flip (at :meth:`_begin_forward`
        #: and :meth:`_begin_reverse`, which report it); the twin's
        #: stays off.
        self.gating_can_flip = adaptive
        self._input_ports: Dict[Direction, LazyInputPort] = {}
        #: Flits buffered across all input ports; every port moves it
        #: together with its own count (see :class:`BufferBank`).
        self._bank = BufferBank()
        #: Interned per-vnet credit and occupancy-debit messages.
        self._credit_msgs = tuple(credit_message(vnet) for vnet in VNETS)
        self._debit_msgs = tuple(
            credit_message(vnet, debit=True) for vnet in VNETS
        )
        self._neighbors: Dict[Direction, NeighborCreditState] = {}
        self._neighbor_list: tuple = ()
        #: How many neighbours track credits, shared with their
        #: :class:`NeighborCreditState` objects (which keep it): while
        #: it is zero no port is masked, so there is no credit to debit,
        #: no gossip to check and no emergency write to prepare for.
        self._tracked = [0]
        #: Neighbours still holding back credits after a START notice
        #: (see :class:`NeighborCreditState`); empty almost always.
        self._settling: List[NeighborCreditState] = []
        #: Input port each latched flit arrived on, for the rare
        #: emergency write (the latch itself holds plain flits); kept
        #: only while a neighbour tracks credits, the one case a port can
        #: be masked.  Backflow is delivered before flits, so the count
        #: an arrival sees is the one its step allocates under.
        self._arrival_port: Dict[Flit, Direction] = {}
        #: Flits written to the buffers this cycle (backpressured
        #: arrivals and injections, emergency writes): exactly the
        #: cycle's buffer writes, counted on the meter by :meth:`step`.
        #: The contention metric counts a flit "traversing through the
        #: router" once on entry and once on exit, so steady-state
        #: intensity is twice the switch throughput; a deflected flit's
        #: entry is counted with its exit (see :meth:`step`).  With this
        #: definition the paper's threshold values hold unchanged.
        self._entries_this_cycle = 0
        self._finalized = False
        #: Hot-path views built by :meth:`finalize`: the frozen
        #: input-port items and the persistent switch-allocation request
        #: lists (first-request insertion order preserved via
        #: ``_bp_order``, exactly like the ``setdefault`` dict they
        #: replace).  A request is ``(in_dir, flit, the flit's vnet
        #: list, its input port)``, so a grant removes the flit without
        #: looking either up.
        self._iport_items: Tuple[Tuple[Direction, LazyInputPort], ...] = ()
        self._bp_requests: Dict[Direction, List[tuple]] = {}
        self._bp_order: List[Direction] = []
        #: Per-output-direction views of the neighbours' live ``ok``
        #: masks (NeighborCreditState.ok), indexed ``[direction][vnet]``.
        #: The inner lists are the neighbours' own, mutated in place, so
        #: this table never goes stale.  ``None`` for unwired directions
        #: and LOCAL (ejection is never credit-masked).
        self._ok_rows: List[Optional[List[bool]]] = [None] * len(Direction)
        #: ``(in_dir, port, per-vnet flit lists)`` triples for the
        #: switch-allocation scan; the flit lists are the ports' own
        #: ``_by_vnet`` values in VNETS order (stable list objects).
        self._iport_scan: tuple = ()

    # -- wiring -------------------------------------------------------------
    def finalize(self) -> None:
        if self._finalized:
            return
        for direction in list(self.in_channels) + [LOCAL]:
            self._input_ports[direction] = LazyInputPort(
                self._vcs, self._bank
            )
        for direction in self.out_channels:
            state = NeighborCreditState(self._vcs, self._tracked)
            if self.design is Design.AFC_ALWAYS_BACKPRESSURED:
                # The whole network is pinned backpressured; credit
                # accounting is on from cycle zero.
                state.start_tracking((0, 0, 0))
            self._neighbors[direction] = state
        self._cache_tables()
        #: Frozen iteration snapshots for the hot paths; the dicts stay
        #: the source of truth for keyed lookups.
        self._neighbor_list = tuple(self._neighbors.values())
        self._iport_items = tuple(self._input_ports.items())
        self._bp_requests = {direction: [] for direction in self._neighbors}
        self._bp_requests[LOCAL] = []
        for direction, state in self._neighbors.items():
            self._ok_rows[direction] = state.ok
        self._iport_scan = tuple(
            (in_dir, port, tuple(port._by_vnet[vnet] for vnet in VNETS))
            for in_dir, port in self._input_ports.items()
        )
        self._finalized = True

    @property
    def mode(self) -> Mode:
        return self._mode.mode

    @property
    def ewma_load(self) -> float:
        return self._mode.ewma

    # -- receive paths -------------------------------------------------------
    # A forward switch completes at the end of its last transition step
    # (see :meth:`step`), so a flit delivered at the first backpressured
    # cycle is classified under the new mode.
    def _accept_flit(self, flit: Flit, in_port: Direction, cycle: int) -> None:
        buffered = self._mode.mode is BACKPRESSURED
        if buffered:
            self._entries_this_cycle += 1
            self._input_ports[in_port].insert(flit)
        else:
            self._latched.append(flit)
            if self._tracked[0]:
                self._arrival_port[flit] = in_port
        if self.obs is not None:
            for sink in self.obs:
                sink.on_arrive(self.node, flit, in_port, buffered, cycle)

    def _accept_credit(
        self, out_port: Direction, credit: CreditMessage, cycle: int
    ) -> None:
        self._neighbors[out_port].on_credit(credit.vnet, credit.debit)

    def _accept_mode_notice(
        self, out_port: Direction, notice: ModeNotification, cycle: int
    ) -> None:
        state = self._neighbors[out_port]
        if notice.kind is ModeNotice.START_CREDITS:
            # The neighbour deflects for 2L more cycles at most; one
            # emergency write per such cycle may be unknown here.
            state.start_tracking(
                notice.occupied, cycle, 2 * self.config.link_latency
            )
            self._settling.append(state)
        else:
            state.stop_tracking()

    # -- per-cycle operation -------------------------------------------------
    def step(self, cycle: int) -> None:
        if not self._finalized:
            self.finalize()
        if self._settling:
            self._settling = [
                nb for nb in self._settling if not nb.settle(cycle)
            ]
        controller = self._mode
        if controller.mode is BACKPRESSURED:
            load = self._backpressured_step(cycle)
        else:
            # Backpressureless mode is the deflection router's cycle
            # (Section III).  A flit that leaves it entered this very
            # cycle — latches hold nothing over — so each exit stands
            # for its entry too; only emergency-buffered flits enter
            # without leaving (counted by _unplaced).
            load = 2 * DeflectionRouter.step(self, cycle)
            if self._arrival_port:
                self._arrival_port.clear()
        entries = self._entries_this_cycle
        if entries:
            self.energy.writes += entries
            self._entries_this_cycle = 0
            load += entries
        # ModeController.record_load(load), inline: the same float
        # operations in the same order.
        ring = controller._ring
        pos = controller._pos
        total = controller._load + load - ring[pos]
        ring[pos] = load
        pos += 1
        controller._pos = 0 if pos == len(ring) else pos
        fill = controller._fill
        if fill < len(ring):
            controller._fill = fill = fill + 1
        controller._load = total
        controller.ewma = ewma = (
            controller._alpha * controller.ewma
            + controller._beta * (total / fill)
        )
        # _adapt can act only on a high EWMA, on gossip (which needs a
        # tracked neighbour) or, when backpressured, by reversing.
        if controller.adaptive and (
            ewma > controller.high
            or self._tracked[0]
            or controller.mode is BACKPRESSURED
        ):
            self._adapt(cycle)
        if controller.mode is TRANSITION and controller.forward_due(cycle + 1):
            self._complete_forward(cycle)

    # -- activity reporting (active-set cycle engine) --------------------------
    def is_quiescent(self) -> bool:
        # A transition in flight acts at a future cycle, so it keeps the
        # router stepping.  A still-draining load window is fine —
        # idle_catch_up replays it exactly — unless replaying it would
        # cross the forward threshold (idle_forward_safe).  Gossip
        # pressure cannot become pending here: _adapt ran at the end of
        # the last step, and any later neighbour state change arrives
        # via backflow, which the engine refuses to sleep through.
        controller = self._mode
        ni = self.ni
        return (
            controller.mode is not TRANSITION
            and not self._bank.flits
            and not self._latched
            and (ni is None or not ni._queued)
            and (
                # An empty window under the threshold only decays.
                (not controller._load and controller.ewma <= controller.high)
                or controller.idle_forward_safe()
            )
        )

    def catch_up(self, cycles: int) -> None:
        self._mode.idle_catch_up(cycles)

    def self_wake_in(self) -> Optional[int]:
        if self._mode.mode is not BACKPRESSURED:
            return None
        return self._mode.idle_cycles_until_reverse()

    def sync_bookkeeping(self, through: int) -> None:
        controller = self._mode
        if controller.charged_from <= through:
            controller.charge_residency(self.stats.mode(self.node), through)

    # -- adaptation policy -------------------------------------------------------
    def _adapt(self, cycle: int) -> None:
        """Mode-switch decisions of an adaptive router (the
        always-backpressured twin never calls this)."""
        controller = self._mode
        mode = controller.mode
        if mode is BACKPRESSURELESS:
            # Gossip (Section III-D): a tracked, i.e. backpressured,
            # neighbour's free buffers fell below the threshold X.
            threshold = self.config.gossip_threshold
            for nb in self._neighbor_list:
                if nb.tracking and nb._total_free < threshold:
                    self._begin_forward(cycle, gossip=True)
                    return
            if controller.ewma > controller.thresholds.high:
                self._begin_forward(cycle, gossip=False)
        elif mode is BACKPRESSURED:
            # Buffers first: under load they are rarely empty, and
            # ``wants_reverse`` is pure, so it is asked only when it can
            # say yes.
            if not self._bank.flits and controller.wants_reverse(True):
                self._begin_reverse(cycle)

    def _begin_forward(self, cycle: int, gossip: bool) -> None:
        entry = self.stats.mode(self.node)
        self._mode.charge_residency(entry, cycle - 1)
        self._mode.begin_forward(cycle)
        if self.on_gating_flip is not None:
            self.on_gating_flip()
        entry.forward_switches += 1
        if gossip:
            entry.gossip_switches += 1
        if self.obs is not None:
            for sink in self.obs:
                sink.on_mode_switch(self.node, True, gossip, cycle)
        for direction, channel in self.in_channels.items():
            channel.send_mode_notice(
                ModeNotification(
                    kind=ModeNotice.START_CREDITS,
                    occupied=self._input_ports[direction].occupied_tuple(),
                ),
                cycle,
            )
            self.energy.credit(self.node)

    def _complete_forward(self, cycle: int) -> None:
        """End of the transition window's last step: backpressured
        operation starts with the next cycle (its deliver already
        buffers arrivals)."""
        self._mode.charge_residency(self.stats.mode(self.node), cycle)
        self._mode.maybe_complete_forward(cycle + 1)

    def _begin_reverse(self, cycle: int) -> None:
        entry = self.stats.mode(self.node)
        self._mode.charge_residency(entry, cycle - 1)
        self._mode.begin_reverse()
        if self.on_gating_flip is not None:
            self.on_gating_flip()
        entry.reverse_switches += 1
        if self.obs is not None:
            for sink in self.obs:
                sink.on_mode_switch(self.node, False, False, cycle)
        for channel in self.in_channels.values():
            channel.send_mode_notice(
                ModeNotification(kind=ModeNotice.STOP_CREDITS), cycle
            )
            self.energy.credit(self.node)

    # -- backpressureless datapath --------------------------------------------------
    def _unplaced(self, flits: List[Flit], cycle: int) -> None:
        """Emergency buffering (Section III-D): credit masking left
        ``flits`` without a usable output port."""
        already_switching = self._mode.mode is TRANSITION
        self._entries_this_cycle += len(flits)
        for flit in flits:
            in_port = self._arrival_port[flit]
            self._input_ports[in_port].insert(flit)
            if self.obs is not None:
                for sink in self.obs:
                    sink.on_buffer(self.node, flit, in_port, cycle)
            if already_switching:
                # The forward-switch notification (and its occupancy
                # snapshot) already went out: reconcile the upstream
                # credit counter with a debit.
                self.in_channels[in_port].send_credit(
                    self._debit_msgs[flit.vnet], cycle
                )
                self.energy.credit(self.node)
        if not already_switching:
            # Snapshot in the START notification includes the flits
            # buffered above, so no debits are needed.
            self._begin_forward(cycle, gossip=True)

    # -- backpressured (lazy VC) datapath ----------------------------------------------
    def _backpressured_step(self, cycle: int) -> int:
        ni = self.ni
        if ni is not None and ni._queued:
            self._backpressured_inject(cycle)
        elif not self._bank.flits:
            return 0  # idle: nothing to inject, route, or arbitrate
        # Switch allocation.  Each input port nominates one buffered
        # flit whose output is usable this cycle: because every flit has
        # its own one-flit VC, *any* buffered flit may be served —
        # scanning all of them is exactly the HOL-blocking-avoidance
        # lazy VC allocation buys (Section III-E).  Virtual networks are
        # visited round-robin (so control packets are not starved behind
        # cache-line transfers), oldest flit first within a vnet.  The
        # credit mask is read from the neighbours' live ``ok`` tables
        # (pure within the allocation phase: ``on_send`` only fires at
        # grant time below).
        requests = self._bp_requests
        order = self._bp_order
        ok_rows = self._ok_rows
        xy_row = self._xy_row
        local = LOCAL
        vnet_order = _VNET_ORDER
        vnet_next = _VNET_NEXT
        for in_dir, port, vnet_lists in self._iport_scan:
            if not port._count:
                continue
            for vnet in vnet_order[port.sa_rr]:
                flits = vnet_lists[vnet]
                if not flits:
                    continue
                for flit in flits:
                    out_port = xy_row[flit.dst]
                    if out_port is local or ok_rows[out_port][vnet]:
                        break
                else:
                    continue  # every flit of this vnet is masked
                port.sa_rr = vnet_next[vnet]
                reqs = requests[out_port]
                if not reqs:
                    order.append(out_port)
                reqs.append((in_dir, flit, flits, port))
                break
        if not order:
            return 0
        bank = self._bank
        neighbors = self._neighbors
        in_channels = self.in_channels
        credit_msgs = self._credit_msgs
        eject_bandwidth = self.config.eject_bandwidth
        requested = dispatched = ejected = credits = 0
        for out_port in order:
            reqs = requests[out_port]
            requested += len(reqs)
            capacity = eject_bandwidth if out_port is local else 1
            winners = (
                reqs
                if len(reqs) <= capacity
                else self._grant(out_port, reqs, capacity)
            )
            for in_dir, flit, flits, port in winners:
                # LazyInputPort.remove, inline: one call fewer per flit.
                flits.remove(flit)
                port._count -= 1
                bank.flits -= 1
                if out_port is local:
                    self._eject(flit, cycle)
                else:
                    neighbors[out_port].on_send(flit.vnet)
                    self._dispatch(flit, out_port, cycle)
                if in_dir is not local:
                    in_channels[in_dir].send_credit(
                        credit_msgs[flit.vnet], cycle
                    )
                    credits += 1
            dispatched += len(winners)
            if out_port is local:
                ejected = len(winners)
            reqs.clear()
        order.clear()
        self.stats.record_switch_traversal(dispatched)
        energy = self.energy
        energy.arbitrations += requested
        energy.reads += dispatched
        energy.crossings += dispatched
        energy.links += dispatched - ejected
        energy.credits += credits
        return dispatched

    def _backpressured_inject(self, cycle: int) -> None:
        ni = self.ni
        local = self._input_ports[LOCAL]
        vnets = VNETS
        n = len(vnets)
        inject_rr = self._inject_rr
        queues = ni._queues
        by_vnet = local._by_vnet
        capacity = local.capacity
        for offset in range(n):
            vnet = vnets[(inject_rr + offset) % n]
            if not queues[vnet]:
                continue
            if len(by_vnet[vnet]) >= capacity[vnet]:
                continue
            flit = ni.pop(vnet, cycle)
            local.insert(flit)
            self._entries_this_cycle += 1
            self._inject_rr = (inject_rr + offset + 1) % n
            return

    # -- introspection --------------------------------------------------------
    def buffered_flits(self) -> int:
        return self._bank.flits

    def resident_flits(self) -> int:
        return self._bank.flits + len(self._latched)

    @property
    def buffers_power_gated(self) -> bool:
        """Coarse-grained power gating: the whole buffer bank is gated
        whenever the router deflects and holds no buffered flits."""
        return (
            self._mode.mode is BACKPRESSURELESS
            and not self._bank.flits
        )
