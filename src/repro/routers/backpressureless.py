"""Backpressureless (deflection / hot-potato) router.

The paper's preferred backpressureless variant (Section II): flit-by-flit
deflection routing in the style of BLESS, with Chaos-style *randomized*
port allocation instead of hardware age priorities — livelock freedom is
probabilistic, which Section II argues is a strong guarantee.

Operation per cycle:

1. every flit that arrived this cycle sits in a pipeline latch (there
   are no input buffers);
2. up to ``eject_bandwidth`` latched flits at their destination leave
   through the ejection port;
3. the remaining flits are served in a random permutation; each takes a
   free *productive* port if one exists (DOR-preferred), otherwise a
   free non-productive port — a deflection;
4. a new flit is injected only if a network output port is still free
   after all network flits have been placed (footnote 3 of the paper);
5. all placed flits traverse the switch and their links.

The deflection invariant — at most as many resident flits as network
ports — holds structurally: a router can receive at most one flit per
input link per cycle, and it dispatches every one of them in the same
cycle.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..network.config import Design, NetworkConfig
from ..network.energy_hooks import EnergyMeter
from ..network.flit import Flit, VirtualNetwork, VNETS
from ..network.router_base import BaseRouter
from ..network.routing import routing_tables
from ..network.stats import StatsCollector
from ..network.topology import Direction, Mesh


def age_key(flit: Flit) -> Tuple[int, int, int]:
    """Oldest-first ordering for age-priority deflection: injection
    time, then packet id, then sequence number (a total order, as
    hardware age priorities require)."""
    injected = flit.injected_at if flit.injected_at is not None else 0
    return (injected, flit.pid, flit.seq)


#: Port-mask rows, indexed ``[direction][vnet]``, of a router none of
#: whose neighbours is ever backpressured: every vnet may take every
#: port.  One table shared by all such routers.
_UNMASKED: Sequence[Sequence[bool]] = ((True,) * len(VNETS),) * len(Direction)


def allocate_deflection_ports(
    mesh: Mesh,
    node: int,
    rng: random.Random,
    flits: List[Flit],
    ok_rows: Sequence[Optional[Sequence[bool]]],
    sort_key: Optional[Callable[[Flit], object]] = None,
    prod_row: Optional[Sequence[Tuple[Direction, ...]]] = None,
    fallback_row: Optional[Sequence[Tuple[Direction, ...]]] = None,
) -> Tuple[Dict[Direction, Flit], List[Flit]]:
    """Deflection port allocation over the node's network ports.

    Serves ``flits`` in a random permutation (Chaos-style, the paper's
    preferred priority-free variant) or, when ``sort_key`` is given, in
    that deterministic order (e.g. :func:`age_key` for BLESS-style
    oldest-first priorities).  Each flit takes, in order of preference,
    a free allowed productive port (DOR port first), then a free
    allowed non-productive port (chosen at random — a deflection).
    Returns the port assignment and the flits that could not be placed
    at all.

    ``ok_rows[port][vnet]`` is the port mask (read, never written: pure
    within one call).  With every entry true (the pure deflection
    router) and no more flits than the node has network ports, the
    unplaced list is provably empty — masking ports (AFC's credit
    tracking toward backpressured neighbours) is the only way a flit
    can be left over.

    ``prod_row`` / ``fallback_row`` are this node's rows of
    ``routing_tables(mesh).productive`` / ``.fallback`` (the productive
    ports and, in wiring order, the remaining ones, per destination);
    routers pass their cached rows to skip the lookup on the hot path.
    """
    order = list(flits)
    if sort_key is None:
        rng.shuffle(order)
    else:
        order.sort(key=sort_key)
    if prod_row is None:
        prod_row = routing_tables(mesh).productive[node]
    if fallback_row is None:
        fallback_row = routing_tables(mesh).fallback[node]
    assignment: Dict[Direction, Flit] = {}
    unplaced: List[Flit] = []
    for flit in order:
        vnet = flit.vnet
        chosen: Optional[Direction] = None
        for port in prod_row[flit.dst]:
            if port not in assignment and ok_rows[port][vnet]:
                chosen = port
                break
        if chosen is None:
            free = [
                p
                for p in fallback_row[flit.dst]
                if p not in assignment and ok_rows[p][vnet]
            ]
            if free:
                chosen = rng.choice(free)
                flit.deflections += 1
        if chosen is None:
            unplaced.append(flit)
        else:
            # Direction-keyed dict: iteration order is insertion
            # order, fully determined by the seeded stream.
            assignment[chosen] = flit
    return assignment, unplaced


class DeflectionRouter(BaseRouter):
    """The latch stage and the one scalar deflection cycle.

    :class:`BackpressurelessRouter` is this class under its design
    name.  The AFC router *is* this router while in backpressureless
    mode (Section III) and runs :meth:`step` unchanged, contributing
    data: its neighbours' live credit rows as :attr:`_ok_rows`, their
    credit states as :attr:`_neighbors` with the count of those tracking
    credits as :attr:`_tracked`, and emergency buffering as
    :meth:`_unplaced`.  The dropping router keeps the latch stage and
    replaces the cycle.  Neither is an instance of the pure design's
    class, so whatever names :class:`BackpressurelessRouter` (exact-type
    tests, class-level instrumentation) means that design alone.
    """

    #: Service order for port allocation and ejection; ``None`` means a
    #: random permutation each cycle.
    _sort_key = None
    #: Port mask ``[direction][vnet]``, read when a port is chosen.
    _ok_rows = _UNMASKED
    #: Per-output credit state debited (``on_send``) for every flit
    #: dispatched while :attr:`_tracked` is non-zero.
    _neighbors: Optional[dict] = None
    #: One-element count of the neighbours that keep credits.
    _tracked: Sequence[int] = (0,)
    STAGES = {"step": ("_eject_arrivals", "_inject")}

    def __init__(
        self,
        node: int,
        config: NetworkConfig,
        mesh: Mesh,
        rng: random.Random,
        stats: StatsCollector,
        energy: Optional[EnergyMeter] = None,
    ) -> None:
        super().__init__(node, config, mesh, rng, stats, energy)
        self._latched: List[Flit] = []
        self._inject_rr = 0

    def finalize(self) -> None:
        self._cache_tables()

    # -- receive path -------------------------------------------------------
    def _accept_flit(self, flit: Flit, in_port: Direction, cycle: int) -> None:
        self._latched.append(flit)
        if self.obs is not None:
            for sink in self.obs:
                sink.on_arrive(self.node, flit, in_port, False, cycle)

    # -- per-cycle operation ----------------------------------------------------
    def step(self, cycle: int) -> int:
        """One deflection cycle; returns the number of flits that left
        the router (ejected or dispatched)."""
        if self._net_ports is None:
            self._cache_tables()
        resident = self._latched
        ni = self.ni
        if not resident and (ni is None or not ni._queued):
            return 0  # idle: the full path below would do exactly nothing
        self._latched = []
        if len(resident) > len(self._net_ports):
            raise RuntimeError(
                f"deflection invariant violated at node {self.node}: "
                f"{len(resident)} flits, {len(self._net_ports)} ports"
            )
        ok_rows = self._ok_rows
        left = 0
        # At most one resident flit and no service order to honour: the
        # ejection and allocation shuffles of the general path would
        # each see <= 1 element and draw nothing, so the flit ejects, or
        # takes its first unmasked productive port, with the RNG
        # untouched.  Anything else (every productive port masked
        # included) leaves ``assignment`` unset and takes the general
        # path, from the same state.
        assignment: Optional[Dict[Direction, Flit]] = None
        if self._sort_key is None:
            if not resident:
                assignment = {}
            elif len(resident) == 1:
                flit = resident[0]
                if flit.dst == self.node:
                    self._eject(flit, cycle)
                    left = 1
                    assignment = {}
                else:
                    vnet = flit.vnet
                    for port in self._prod_row[flit.dst]:
                        if ok_rows[port][vnet]:
                            assignment = {port: flit}
                            break
        if assignment is None:
            remaining = self._eject_arrivals(resident, cycle)
            left = len(resident) - len(remaining)
            assignment, unplaced = allocate_deflection_ports(
                self.mesh,
                self.node,
                self.rng,
                remaining,
                ok_rows,
                sort_key=self._sort_key,
                prod_row=self._prod_row,
                fallback_row=self._fallback_row,
            )
            if unplaced:
                self._unplaced(unplaced, cycle)
        if ni is not None and ni._queued:
            self._inject(assignment, cycle)
        # Credits are debited only here, at dispatch, so the mask was
        # pure throughout the allocation and injection above.
        neighbors = self._neighbors if self._tracked[0] else None
        for out_port, flit in assignment.items():
            if neighbors is not None:
                neighbors[out_port].on_send(flit.vnet)
            self._dispatch(flit, out_port, cycle)
        dispatched = len(assignment)
        left += dispatched
        if left:
            self.stats.record_switch_traversal(left)
        energy = self.energy
        energy.latches += len(resident)
        energy.arbitrations += dispatched
        energy.links += dispatched
        energy.crossings += left
        return left

    def _eject_arrivals(self, resident: List[Flit], cycle: int) -> List[Flit]:
        """Eject up to ``eject_bandwidth`` flits at their destination.

        Randomized choice among candidates (no priorities); losers stay
        resident and will deflect.
        """
        candidates = [f for f in resident if f.dst == self.node]
        if not candidates:
            return resident
        if self._sort_key is None:
            self.rng.shuffle(candidates)
        else:
            candidates.sort(key=self._sort_key)
        ejected = set()
        for flit in candidates[: self.config.eject_bandwidth]:
            self._eject(flit, cycle)
            ejected.add(id(flit))
        return [f for f in resident if id(f) not in ejected]

    def _unplaced(self, flits: List[Flit], cycle: int) -> None:
        """Flits the port mask left without an output this cycle."""
        raise RuntimeError(
            f"deflection router failed to place {len(flits)} "
            f"flits at node {self.node}"
        )

    def _inject(
        self, assignment: Dict[Direction, Flit], cycle: int
    ) -> None:
        """Inject one flit into a port the resident flits left free:
        the first free, unmasked productive port of the first eligible
        vnet's head flit, else a random free unmasked port (a
        deflection).  Caller checked that the NI has flits queued."""
        net_ports = self._net_ports
        if len(assignment) >= len(net_ports):
            return  # every output port is taken
        ni = self.ni
        queues = ni._queues
        ok_rows = self._ok_rows
        vnets = VNETS
        for offset in range(len(vnets)):
            vnet = vnets[(self._inject_rr + offset) % len(vnets)]
            queue = queues[vnet]
            if not queue:
                continue
            chosen: Optional[Direction] = None
            for port in self._prod_row[queue[0].dst]:
                if port not in assignment and ok_rows[port][vnet]:
                    chosen = port
                    break
            if chosen is not None:
                flit = ni.pop(vnet, cycle)
            else:
                free = [
                    p
                    for p in net_ports
                    if p not in assignment and ok_rows[p][vnet]
                ]
                if not free:
                    continue  # this vnet is masked on every free port
                flit = ni.pop(vnet, cycle)
                chosen = self.rng.choice(free)
                flit.deflections += 1
            assignment[chosen] = flit
            self._inject_rr = (self._inject_rr + offset + 1) % len(vnets)
            return

    # -- introspection --------------------------------------------------------
    def resident_flits(self) -> int:
        return len(self._latched)

    @property
    def buffers_power_gated(self) -> bool:
        return True  # there are no buffers at all


class BackpressurelessRouter(DeflectionRouter):
    """Pure deflection router (no buffers, no credits).

    Port allocation is randomized (``_sort_key = None``); the
    :class:`PriorityDeflectionRouter` subclass overrides it with
    oldest-first age priorities.
    """

    design = Design.BACKPRESSURELESS


class PriorityDeflectionRouter(BackpressurelessRouter):
    """Deflection routing with hardware age priorities (BLESS-style).

    The oldest flit at each router is served first (and is therefore
    never misrouted while a productive port exists), which makes
    livelock freedom *deterministic*.  The paper argues this guarantee
    is unnecessary — randomization plus probabilistically vanishing
    misroute chains suffice — and costs both a slower allocator and an
    age field on every flit (reflected in this design's wider
    control bits, see :data:`repro.network.config.CONTROL_BITS`).
    Implemented so the argument can be evaluated quantitatively:
    see ``benchmarks/bench_backpressureless_variants.py``.
    """

    design = Design.BACKPRESSURELESS_PRIORITY
    _sort_key = staticmethod(age_key)
