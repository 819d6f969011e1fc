"""Baseline credit-based virtual-channel (backpressured) router.

This is the paper's baseline (Section II): an input-queued router with
per-packet virtual-channel flow control, dimension-ordered routing, and
the charitable assumption of a 2-stage pipeline with 0-cycle VC
allocation (Table I).  Concretely, in a single simulated cycle a flit
can be routed, allocated a downstream VC, win switch arbitration, and
start its switch+link traversal — so at zero load its per-hop latency
equals the deflection router's, making high-load flow-control effects
the only difference between designs.

Flow-control rules implemented here (Section III-E's R1/R2 in their
traditional, restrictive form):

* a VC is allocated to a packet by its head flit and is not reusable
  until the packet's tail flit has *left* the downstream buffer (R1);
* VC allocation is coordinated at the upstream router, which is the sole
  feeder of the downstream input port in a mesh, so no two packets can
  be assigned the same VC (R2);
* flits of a packet never interleave with other packets inside a VC, so
  body flits need no routing information of their own.

Credits are tracked per VC.  The upstream router decrements a VC's
credit when dispatching into it and regains it when the downstream
router dequeues the flit (credit backflow, L-cycle latency).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..network.config import Design, NetworkConfig
from ..network.energy_hooks import EnergyMeter
from ..network.flit import Flit, VirtualNetwork, VNETS
from ..network.link import CreditMessage, credit_message
from ..network.router_base import BaseRouter
from ..network.stats import StatsCollector
from ..network.topology import LOCAL, Direction, Mesh


def vc_ranges(vcs: Sequence[int]) -> Dict[VirtualNetwork, range]:
    """Global VC index range per virtual network for a port layout.

    The baseline layout (2, 2, 4) maps to ``{CONTROL_REQ: 0..1,
    CONTROL_RESP: 2..3, DATA: 4..7}``.
    """
    ranges: Dict[VirtualNetwork, range] = {}
    start = 0
    for vnet, count in zip(VNETS, vcs):
        ranges[vnet] = range(start, start + count)
        start += count
    return ranges


class _PortLayout(NamedTuple):
    """The read-only tables every port with one VC layout shares, each
    indexed by virtual network."""

    #: ``ranges[vnet]`` is ``vc_ranges(vcs)[vnet]``.
    ranges: Tuple[range, ...]
    #: ``alloc_scan[vnet][start]`` is the global-VC index sequence the
    #: round-robin VC allocation scan visits from pointer ``start`` —
    #: precomputed so the per-allocation loop is modulo-free.
    alloc_scan: Tuple[Tuple[Tuple[int, ...], ...], ...]
    #: ``credits[vnet][vc][is_tail]``: the interned credit an input
    #: port returns upstream when a flit leaves VC ``vc``.
    credits: Tuple[Tuple[Tuple[CreditMessage, CreditMessage], ...], ...]


@lru_cache(maxsize=None)
def _port_layout(vcs: Tuple[int, ...]) -> _PortLayout:
    """The shared :class:`_PortLayout` of the per-vnet VC layout ``vcs``.

    Built once per layout and shared by every port of every router
    using it; per-VC state (buffers, downstream mirrors, round-robin
    pointers) stays per port.
    """
    ranges = tuple(vc_ranges(vcs).values())
    return _PortLayout(
        ranges=ranges,
        alloc_scan=tuple(
            tuple(
                tuple(rng[(start + i) % len(rng)] for i in range(len(rng)))
                for start in range(len(rng))
            )
            for rng in ranges
        ),
        credits=tuple(
            tuple(
                (credit_message(vnet, vc, False), credit_message(vnet, vc, True))
                for vc in range(sum(vcs))
            )
            for vnet in VNETS
        ),
    )


@dataclass(slots=True)
class VirtualChannelBuffer:
    """One VC of an input port: a FIFO plus per-packet allocation state.

    The FIFO holds at most ``depth`` flits, so it is a plain list drained
    with ``pop(0)`` (an empty deque costs over ten times an empty list).
    """

    vnet: VirtualNetwork
    depth: int
    queue: List[Flit] = field(default_factory=list)
    #: Packet currently owning this VC (set by its head flit's arrival,
    #: cleared when its tail flit departs).
    owner_pid: Optional[int] = None
    #: Output port of the owning packet (computed once, by the head).
    out_port: Optional[Direction] = None
    #: Downstream VC allocated to the owning packet.
    out_vc: Optional[int] = None

    @property
    def free_for_allocation(self) -> bool:
        return self.owner_pid is None

    def reset_packet_state(self) -> None:
        self.owner_pid = None
        self.out_port = None
        self.out_vc = None


@dataclass(slots=True)
class _DownstreamVC:
    """Upstream-side mirror of one downstream input VC."""

    credits: int
    busy: bool = False


class _OutputPortState:
    """Credit and allocation state for one network output port."""

    __slots__ = ("vc_states", "_alloc_rr", "_alloc_scan")

    def __init__(self, vcs: Sequence[int], depth: int) -> None:
        self.vc_states = [
            _DownstreamVC(credits=depth) for _ in range(sum(vcs))
        ]
        self._alloc_rr: Dict[VirtualNetwork, int] = {
            vnet: 0 for vnet in VNETS
        }
        self._alloc_scan = _port_layout(tuple(vcs)).alloc_scan

    def allocate_vc(self, vnet: VirtualNetwork) -> Optional[int]:
        """Claim a free downstream VC in ``vnet`` (round-robin scan)."""
        start = self._alloc_rr[vnet]
        row = self._alloc_scan[vnet][start]
        n = len(row)
        vc_states = self.vc_states
        for i in range(n):
            state = vc_states[row[i]]
            if not state.busy:
                state.busy = True
                self._alloc_rr[vnet] = (start + i + 1) % n
                return row[i]
        return None


class _InputPort:
    """All VCs of one input port, plus its SA round-robin pointer."""

    __slots__ = ("vcs", "ranges", "sa_rr", "occupied", "credits")

    def __init__(self, vcs: Sequence[int], depth: int) -> None:
        self.vcs: List[VirtualChannelBuffer] = []
        for vnet, count in zip(VNETS, vcs):
            self.vcs.extend(
                VirtualChannelBuffer(vnet=vnet, depth=depth)
                for _ in range(count)
            )
        layout = _port_layout(tuple(vcs))
        self.ranges = layout.ranges
        self.sa_rr = 0
        #: Bit ``i`` is set exactly while ``vcs[i].queue`` is non-empty.
        #: Route/VC allocation and switch allocation walk the set bits,
        #: so an empty port costs one test and a port holding one flit
        #: one VC visit, whatever the VC count.
        self.occupied = 0
        self.credits = layout.credits

    def occupancy(self) -> int:
        return sum(len(vc.queue) for vc in self.vcs)


class BackpressuredRouter(BaseRouter):
    """The baseline per-packet VC router (and its ideal-bypass twin)."""

    STAGES = {
        "step": ("_inject", "_route_and_allocate_vcs", "_switch_allocation"),
    }

    def __init__(
        self,
        node: int,
        config: NetworkConfig,
        mesh: Mesh,
        rng: random.Random,
        stats: StatsCollector,
        energy: Optional[EnergyMeter] = None,
        design: Design = Design.BACKPRESSURED,
    ) -> None:
        super().__init__(node, config, mesh, rng, stats, energy)
        if not design.is_backpressured_baseline:
            raise ValueError(f"{design} is not a baseline design")
        self.design = design
        self._vcs = config.baseline_vcs
        self._depth = config.baseline_vc_depth
        self._input_ports: Dict[Direction, _InputPort] = {}
        self._out_state: Dict[Direction, _OutputPortState] = {}
        #: Local-injection streaming state: the local-port VC currently
        #: receiving each vnet's in-progress packet.
        self._stream_vc: Dict[VirtualNetwork, Optional[int]] = {
            vnet: None for vnet in VNETS
        }
        self._inject_rr = 0
        self._finalized = False
        #: Running buffered-flit count (occupancy is polled every cycle
        #: by the activity scheduler and invariant checks).
        self._buffered = 0
        #: Occupied VCs whose packet still waits for a route or a
        #: downstream VC (a head flit adds one, routing it to the local
        #: port or allocating its VC removes it): while zero — every
        #: cycle of a packet's body — route/VC allocation is skipped.
        self._unallocated = 0
        #: Realistic buffer bypass (Wang et al. [1]): a flit that
        #: arrives at an empty VC and leaves in the same cycle skips
        #: both the buffer write and read energies.  Timing is
        #: untouched.  Flits in this set arrived at an empty VC this
        #: cycle and have not (yet) paid for a buffer write.
        self._realistic_bypass = design is Design.BACKPRESSURED_BYPASS
        self._bypass_pending: set = set()
        #: Flattened hot-path views, built by :meth:`finalize`.
        self._iport_items: Tuple[Tuple[Direction, _InputPort], ...] = ()
        self._iport_list: Tuple[_InputPort, ...] = ()
        #: Persistent switch-allocation request lists (one per possible
        #: output port, reused every cycle) and the insertion-order list
        #: of ports with requests this cycle.  Grant processing follows
        #: first-request order, exactly like the ``setdefault`` dict it
        #: replaces: it fixes the order in which observers see dispatch
        #: and eject events.
        self._sa_requests: Dict[Direction, List[Tuple[Direction, int]]] = {}
        self._sa_order: List[Direction] = []

    # -- wiring -----------------------------------------------------------
    def finalize(self) -> None:
        """Build port structures once all channels are attached."""
        if self._finalized:
            return
        for direction in list(self.in_channels) + [LOCAL]:
            self._input_ports[direction] = _InputPort(self._vcs, self._depth)
        for direction in self.out_channels:
            self._out_state[direction] = _OutputPortState(
                self._vcs, self._depth
            )
        self._cache_tables()
        self._iport_items = tuple(self._input_ports.items())
        self._iport_list = tuple(self._input_ports.values())
        self._sa_requests = {
            direction: [] for direction in self._out_state
        }
        self._sa_requests[LOCAL] = []
        self._finalized = True

    # -- receive paths -------------------------------------------------------
    def _accept_flit(self, flit: Flit, in_port: Direction, cycle: int) -> None:
        port = self._input_ports[in_port]
        if not 0 <= flit.vc < len(port.vcs):
            raise RuntimeError(
                f"flit arrived at node {self.node} without a VC assignment"
            )
        vc = port.vcs[flit.vc]
        queue = vc.queue
        if len(queue) >= vc.depth:
            raise RuntimeError(
                f"VC overflow at node {self.node} port {in_port.name} "
                f"vc {flit.vc}: credit protocol violated"
            )
        if flit.is_head:
            if vc.owner_pid is not None:
                raise RuntimeError(
                    f"VC {flit.vc} at node {self.node} double-allocated: "
                    f"owner {vc.owner_pid}, new packet {flit.pid}"
                )
            vc.owner_pid = flit.pid
            self._unallocated += 1
        elif vc.owner_pid != flit.pid:
            raise RuntimeError(
                f"body flit of packet {flit.pid} entered VC owned by "
                f"{vc.owner_pid} at node {self.node}"
            )
        was_empty = not queue
        queue.append(flit)
        self._buffered += 1
        if was_empty:
            port.occupied |= 1 << flit.vc
        if self._realistic_bypass and was_empty:
            self._bypass_pending.add(flit)
        else:
            self.energy.writes += 1
        if self.obs is not None:
            for sink in self.obs:
                sink.on_arrive(self.node, flit, in_port, True, cycle)

    def _accept_credit(
        self, out_port: Direction, credit: CreditMessage, cycle: int
    ) -> None:
        state = self._out_state[out_port].vc_states[credit.vc]
        if state.credits >= self._depth:
            raise RuntimeError(
                f"credit overflow at node {self.node} port {out_port.name}"
            )
        state.credits += 1
        if credit.frees_vc:
            state.busy = False

    # -- per-cycle operation -------------------------------------------------
    def step(self, cycle: int) -> None:
        if not self._finalized:
            self.finalize()
        ni = self.ni
        if ni is not None and ni._queued:
            self._inject(cycle)
        elif self._buffered == 0:
            return  # idle: nothing to inject, route, or arbitrate
        if self._unallocated:
            self._route_and_allocate_vcs()
        self._switch_allocation(cycle)
        if self._bypass_pending:
            # Bypass candidates that failed to cut through this cycle
            # really are buffered: pay the deferred write.
            self.energy.writes += len(self._bypass_pending)
            self._bypass_pending.clear()

    # Injection: stream flits from the NI into the local input port,
    # one flit per cycle, one packet per VC at a time (per-packet VC
    # discipline applies to the injection port like any other).
    def _inject(self, cycle: int) -> None:
        ni = self.ni
        local = self._input_ports[LOCAL]
        vnets = VNETS
        queues = ni._queues
        for offset in range(len(vnets)):
            vnet = vnets[(self._inject_rr + offset) % len(vnets)]
            if not queues[vnet]:
                continue
            vc_idx = self._stream_vc[vnet]
            if vc_idx is None:
                vc_idx = self._find_free_local_vc(vnet)
                if vc_idx is None:
                    continue  # all local VCs of this vnet are owned
                self._stream_vc[vnet] = vc_idx
            vc = local.vcs[vc_idx]
            if len(vc.queue) >= vc.depth:
                continue  # VC full; retry next cycle
            flit = ni.pop(vnet, cycle)
            flit.vc = vc_idx
            if flit.is_head:
                vc.owner_pid = flit.pid
                self._unallocated += 1
            was_empty = not vc.queue
            vc.queue.append(flit)
            self._buffered += 1
            if was_empty:
                local.occupied |= 1 << vc_idx
            if self._realistic_bypass and was_empty:
                self._bypass_pending.add(flit)
            else:
                self.energy.writes += 1
            if flit.is_tail:
                self._stream_vc[vnet] = None
            self._inject_rr = (self._inject_rr + offset + 1) % len(vnets)
            return  # one flit per cycle (config.inject_bandwidth == 1)

    def _find_free_local_vc(self, vnet: VirtualNetwork) -> Optional[int]:
        local = self._input_ports[LOCAL]
        for idx in local.ranges[vnet]:
            if local.vcs[idx].free_for_allocation:
                return idx
        return None

    # Routing (lookahead-equivalent) + 0-cycle VC allocation, over the
    # occupied VCs of each port in VC-index order.
    def _route_and_allocate_vcs(self) -> None:
        xy_row = self._xy_row
        out_state = self._out_state
        local = LOCAL
        allocations = 0
        for port in self._iport_list:
            occupied = port.occupied
            vcs = port.vcs
            while occupied:
                low = occupied & -occupied
                occupied ^= low
                vc = vcs[low.bit_length() - 1]
                out_port = vc.out_port
                if out_port is None:
                    head = vc.queue[0]
                    assert head.is_head, "body flit reached an unrouted VC"
                    out_port = vc.out_port = xy_row[head.dst]
                    if out_port is local:
                        self._unallocated -= 1  # ejection needs no VC
                if out_port is local or vc.out_vc is not None:
                    continue
                allocated = out_state[out_port].allocate_vc(vc.queue[0].vnet)
                if allocated is not None:
                    vc.out_vc = allocated
                    self._unallocated -= 1
                    allocations += 1
        self.energy.arbitrations += allocations

    # Separable (input-first) switch allocation, one iteration.  Each
    # input port nominates the first VC (in round-robin order from its
    # SA pointer) holding a routed head-of-line flit whose output is
    # usable this cycle; the per-output grant stage then picks winners.
    def _switch_allocation(self, cycle: int) -> None:
        requests = self._sa_requests
        order = self._sa_order
        out_state = self._out_state
        local = LOCAL
        for in_dir, port in self._iport_items:
            occupied = port.occupied
            if not occupied:
                continue
            vcs = port.vcs
            n = len(vcs)
            sa_rr = port.sa_rr
            # Rotate the occupancy mask so that bit 0 is the VC under
            # the round-robin pointer: ascending bit order is then the
            # round-robin visiting order over the occupied VCs.  (One
            # occupied VC is visited first wherever the pointer is.)
            if occupied & (occupied - 1):
                rotated = (occupied >> sa_rr) | (
                    (occupied & ((1 << sa_rr) - 1)) << (n - sa_rr)
                )
            else:
                rotated = occupied
                sa_rr = 0
            chosen = -1
            out_port = local
            while rotated:
                low = rotated & -rotated
                rotated ^= low
                idx = low.bit_length() - 1 + sa_rr
                if idx >= n:
                    idx -= n
                vc = vcs[idx]
                out_port = vc.out_port
                if out_port is None:
                    continue
                if out_port is local:
                    chosen = idx
                    break
                out_vc = vc.out_vc
                if out_vc is None:
                    continue
                if out_state[out_port].vc_states[out_vc].credits > 0:
                    chosen = idx
                    break
            if chosen < 0:
                continue
            port.sa_rr = chosen + 1 if chosen + 1 < n else 0
            reqs = requests[out_port]
            if not reqs:
                order.append(out_port)
            reqs.append((in_dir, chosen))
        if not order:
            return
        eject_bandwidth = self.config.eject_bandwidth
        traverse = self._traverse
        requested = traversals = ejected = 0
        for out_port in order:
            reqs = requests[out_port]
            requested += len(reqs)
            capacity = eject_bandwidth if out_port is local else 1
            winners = (
                reqs
                if len(reqs) <= capacity
                else self._grant(out_port, reqs, capacity)
            )
            for in_dir, vc_idx in winners:
                traverse(in_dir, vc_idx, out_port, cycle)
            traversals += len(winners)
            if out_port is local:
                ejected = len(winners)
            reqs.clear()
        order.clear()
        self.stats.record_switch_traversal(traversals)
        energy = self.energy
        energy.arbitrations += requested
        energy.crossings += traversals
        energy.links += traversals - ejected

    def _traverse(
        self,
        in_dir: Direction,
        vc_idx: int,
        out_port: Direction,
        cycle: int,
    ) -> None:
        port = self._input_ports[in_dir]
        vc = port.vcs[vc_idx]
        flit = vc.queue.pop(0)
        self._buffered -= 1
        if not vc.queue:
            port.occupied ^= 1 << vc_idx
        if self._realistic_bypass and flit in self._bypass_pending:
            self._bypass_pending.discard(flit)  # cut-through: no write/read
        else:
            self.energy.reads += 1
        if out_port is LOCAL:
            flit.vc = -1
            self._eject(flit, cycle)
        else:
            out_vc = vc.out_vc
            assert out_vc is not None
            state = self._out_state[out_port].vc_states[out_vc]
            assert state.credits > 0, "SA granted without credit"
            state.credits -= 1
            flit.vc = out_vc
            self._dispatch(flit, out_port, cycle)
        if in_dir is not LOCAL:
            self.in_channels[in_dir].send_credit(
                port.credits[flit.vnet][vc_idx][flit.is_tail], cycle
            )
            self.energy.credits += 1
        if flit.is_tail:
            vc.reset_packet_state()

    # -- introspection --------------------------------------------------------
    def buffered_flits(self) -> int:
        return self._buffered

    def vc_occupancies(self) -> Dict[Direction, List[int]]:
        """Per-port, per-VC queue depths (debug/inspection helper)."""
        return {
            direction: [len(vc.queue) for vc in port.vcs]
            for direction, port in self._input_ports.items()
        }
