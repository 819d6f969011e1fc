"""Abstract router shared by all three designs.

A router owns one input channel and one output channel per existing
network direction, plus a local injection source and ejection sink (the
node's :class:`~repro.network.interface.NetworkInterface`).  The network
drives every router twice per cycle:

1. :meth:`deliver` — pop arrived flits from the input channels into the
   router's input stage, and process backflow (credits, mode notices)
   from the output channels.
2. :meth:`step` — inject, arbitrate, and dispatch flits onto output
   channels / the ejection port.

Routers never touch each other directly; all interaction flows through
:class:`~repro.network.link.Channel` delay lines, so the per-cycle
iteration order over routers cannot affect results.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from .config import Design, NetworkConfig
from .energy_hooks import EnergyMeter, NullEnergyMeter
from .flit import Flit
from .link import Channel, CreditMessage, ModeNotification
from .routing import routing_tables
from .stats import StatsCollector
from .topology import Direction, Mesh

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .interface import NetworkInterface


class BaseRouter(ABC):
    """Common wiring, delivery loop and bookkeeping for all routers."""

    design: Design
    #: True for routers whose :attr:`buffers_power_gated` can change
    #: during a run; such a router calls :attr:`on_gating_flip` (when
    #: set) whenever it may have flipped.
    gating_can_flip = False
    #: Zero-argument hook the static-energy cache installs on routers
    #: whose gating can flip; it captures only plain state, so the
    #: router holds no reference to the cache or the meter's owner.
    on_gating_flip: Optional[Callable[[], object]] = None
    #: Sub-stage methods ``repro.obs.profiler`` times besides
    #: ``deliver`` and ``step``: stage -> the stages nested directly
    #: inside it (each under one parent; their time comes off the
    #: parent's self time).  Declared by the class that owns the methods.
    STAGES: Dict[str, Tuple[str, ...]] = {}

    def __init__(
        self,
        node: int,
        config: NetworkConfig,
        mesh: Mesh,
        rng: random.Random,
        stats: StatsCollector,
        energy: Optional[EnergyMeter] = None,
    ) -> None:
        self.node = node
        self.config = config
        self.mesh = mesh
        self.rng = rng
        self.stats = stats
        self.energy = energy if energy is not None else NullEnergyMeter()
        #: Input channels keyed by the local input-port direction (the
        #: side of this router the neighbour's flits arrive on).
        self.in_channels: Dict[Direction, Channel] = {}
        #: Output channels keyed by output-port direction.
        self.out_channels: Dict[Direction, Channel] = {}
        self.ni: Optional["NetworkInterface"] = None
        #: Subscriber tuple of the ``flit`` site (flit-lifecycle sinks),
        #: written only by ``Network.subscribe``.  ``None`` while empty,
        #: so the dispatch and ejection paths pay one ``is None`` check
        #: each.
        self.obs: Optional[tuple] = None
        self.router_class = mesh.router_class(node)
        #: Hot-path lookups, populated by :meth:`_cache_tables` once the
        #: channels are wired (``None`` until then).
        self._net_ports: Optional[List[Direction]] = None
        self._xy_row: Tuple[Direction, ...] = ()
        self._prod_row: Tuple[Tuple[Direction, ...], ...] = ()
        self._fallback_row: Tuple[Tuple[Direction, ...], ...] = ()
        #: ``(direction, items)`` drain views straight into the delay
        #: lines' FIFO lists (stable for a channel's lifetime: they are
        #: mutated in place, never rebound),
        #: so the per-cycle emptiness probe costs one index instead of
        #: an attribute chase per channel.
        self._in_drain: Optional[tuple] = None
        self._out_drain: Optional[tuple] = None
        #: Round-robin grant pointer per output port (LOCAL: ejection),
        #: indexed by direction; see :meth:`_grant`.
        self._grant_rr = [0] * len(Direction)

    # -- wiring -------------------------------------------------------------
    def attach_input(self, direction: Direction, channel: Channel) -> None:
        if direction in self.in_channels:
            raise ValueError(f"input port {direction.name} already wired")
        self.in_channels[direction] = channel

    def attach_output(self, direction: Direction, channel: Channel) -> None:
        if direction in self.out_channels:
            raise ValueError(f"output port {direction.name} already wired")
        self.out_channels[direction] = channel

    def attach_interface(self, ni: "NetworkInterface") -> None:
        self.ni = ni

    @property
    def network_ports(self) -> List[Direction]:
        if self._net_ports is not None:
            return self._net_ports
        return list(self.out_channels.keys())

    def _cache_tables(self) -> None:
        """Freeze the wired port list and grab this node's routing-table
        rows so per-flit routing is a plain tuple index."""
        self._net_ports = list(self.out_channels.keys())
        self._in_drain = tuple(
            (direction, channel._flits._items)
            for direction, channel in self.in_channels.items()
        )
        self._out_drain = tuple(
            (direction, channel._backflow._items)
            for direction, channel in self.out_channels.items()
        )
        tables = routing_tables(self.mesh)
        self._xy_row = tables.xy[self.node]
        self._prod_row = tables.productive[self.node]
        self._fallback_row = tables.fallback[self.node]

    # -- per-cycle protocol ---------------------------------------------------
    def deliver(self, cycle: int) -> None:
        """Pull arrivals and backflow out of the channels.

        Empty pipes (the common case at low load) are skipped without a
        call; the emptiness peek reaches into the delay lines directly
        because this runs once per channel per cycle.
        """
        in_drain = self._in_drain
        out_drain = self._out_drain
        if in_drain is None or out_drain is None:  # not finalized yet
            in_drain = tuple(
                (d, ch._flits._items) for d, ch in self.in_channels.items()
            )
            out_drain = tuple(
                (d, ch._backflow._items)
                for d, ch in self.out_channels.items()
            )
        # Backflow first: it touches only credit and mode-notice state,
        # which no arrival reads, so an arrival sees the neighbours'
        # tracking exactly as this cycle's step will.
        for direction, items in out_drain:
            if items and items[0][0] <= cycle:
                while items and items[0][0] <= cycle:
                    message = items.pop(0)[1]
                    if type(message) is CreditMessage:
                        self._accept_credit(direction, message, cycle)
                    else:
                        self._accept_mode_notice(direction, message, cycle)
        accept_flit = self._accept_flit
        for direction, items in in_drain:
            if items and items[0][0] <= cycle:
                while items and items[0][0] <= cycle:
                    accept_flit(items.pop(0)[1], direction, cycle)

    @abstractmethod
    def step(self, cycle: int) -> None:
        """Inject, arbitrate and dispatch for one cycle."""

    # -- design-specific receive paths -----------------------------------------
    @abstractmethod
    def _accept_flit(self, flit: Flit, in_port: Direction, cycle: int) -> None:
        """A flit arrived on ``in_port``."""

    def _accept_credit(
        self, out_port: Direction, credit: CreditMessage, cycle: int
    ) -> None:
        """Credit backflow from the neighbour we send to on ``out_port``.

        Pure backpressureless routers ignore credits entirely.
        """

    def _accept_mode_notice(
        self, out_port: Direction, notice: ModeNotification, cycle: int
    ) -> None:
        """Mode notification from the neighbour on ``out_port``.

        Only meaningful in AFC networks; others ignore it.
        """

    # -- activity reporting (active-set cycle engine) ----------------------------
    def is_quiescent(self) -> bool:
        """True when stepping this router would be a pure no-op apart
        from per-cycle bookkeeping that :meth:`catch_up` can replay.

        The engine additionally requires every attached channel pipe to
        be empty before putting a router to sleep; subclasses with extra
        per-cycle state (e.g. AFC's mode controller) must override.
        """
        ni = self.ni
        return self.resident_flits() == 0 and (ni is None or not ni._queued)

    def catch_up(self, cycles: int) -> None:
        """Replay ``cycles`` skipped idle cycles of bookkeeping.

        Default routers carry no per-cycle idle state, so this is a
        no-op; AFC routers replay their EWMA decay here.
        """

    def self_wake_in(self) -> Optional[int]:
        """Idle cycles after which this router will act spontaneously
        (e.g. an adaptive AFC router's EWMA decaying below the reverse
        threshold), or ``None`` when idling forever is a no-op."""
        return None

    def sync_bookkeeping(self, through: int) -> None:
        """Apply bookkeeping kept lazily through cycle ``through`` (AFC:
        mode residency); called by ``Network.sync_bookkeeping``."""

    # -- shared helpers ----------------------------------------------------------
    # Neither helper counts energy: the step that calls them counts
    # its switch and link traversals once (see repro.network.energy_hooks).
    def _eject(self, flit: Flit, cycle: int) -> None:
        """Hand a flit at its destination to the local interface."""
        assert self.ni is not None, "router has no network interface"
        if self.obs is not None:
            for sink in self.obs:
                sink.on_eject(self.node, flit, cycle)
        self.ni.eject(flit, cycle)

    def _dispatch(self, flit: Flit, out_port: Direction, cycle: int) -> None:
        """Send a flit on a network output port."""
        if self.obs is not None:
            for sink in self.obs:
                sink.on_dispatch(self.node, flit, out_port, cycle)
        self.out_channels[out_port].send_flit(flit, cycle)

    def _grant(self, out_port: Direction, reqs: list, capacity: int) -> list:
        """Round-robin choice of ``capacity`` winners among the (more
        numerous) ``(in_dir, ...)`` switch requests for ``out_port``."""
        start = self._grant_rr[out_port]
        self._grant_rr[out_port] = start + capacity
        # Plain tuple sort: each input port requests at most once per
        # output, so the (distinct) directions decide the order and the
        # second elements are never compared — same order as
        # key=r[0].value.
        ordered = sorted(reqs)
        return [ordered[(start + i) % len(ordered)] for i in range(capacity)]

    # -- introspection (used by energy accounting and invariant checks) -----------
    def buffered_flits(self) -> int:
        """Flits currently held in this router's input buffers."""
        return 0

    def resident_flits(self) -> int:
        """All flits inside the router (buffers plus pipeline latches);
        used by flit-conservation invariant checks."""
        return self.buffered_flits()

    @property
    def buffers_power_gated(self) -> bool:
        """True when the input buffers are power-gated this cycle."""
        return False

    @property
    def buffer_capacity_flits(self) -> int:
        """Total input-buffer capacity across all ports, in flits."""
        return self.config.buffer_flits_per_port(self.design) * (
            len(self.in_channels) + 1  # +1 for the local injection port
        )
