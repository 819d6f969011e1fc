"""Per-node network interface (NI).

The NI sits between a client (a traffic generator or the memory-system
substrate) and its router.  On the send side it holds per-virtual-network
source queues of flits awaiting injection — source queueing time counts
toward packet latency, so injection backpressure is visible in results.
On the receive side it owns the MSHR-style reassembly buffer and hands
each completed packet to its client in one of two modes:

* **callback mode** — ``on_packet`` is set: the packet is passed to it
  and the NI keeps nothing.  A client that never reads completions
  (:class:`~repro.traffic.synthetic.OpenLoopSource`) installs the shared
  no-op :func:`discard_completed`, so a packet is freed with its last
  flit and a long open-loop run holds only what is in flight;
* **poll mode** — ``on_packet`` is ``None``: the packet is appended to
  :attr:`NetworkInterface.completed` until the client collects it with
  :meth:`NetworkInterface.drain_completed`.  The queue grows by one
  entry per delivered packet until drained.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from .flit import VNETS, Flit, Packet, VirtualNetwork
from .reassembly import CompletedPacket, ReassemblyBuffer
from .stats import StatsCollector


def discard_completed(done: CompletedPacket) -> None:
    """The ``on_packet`` of a client that reads no completions."""


class NetworkInterface:
    """Injection queues + reassembly for one node."""

    __slots__ = (
        "node",
        "stats",
        "on_packet",
        "on_offer",
        "on_activity",
        "guard",
        "on_complete",
        "obs",
        "_queues",
        "_queued",
        "reassembly",
        "completed",
        "flits_ejected_total",
        "flits_offered_total",
    )

    def __init__(
        self,
        node: int,
        stats: StatsCollector,
        on_packet: Optional[Callable[[CompletedPacket], None]] = None,
    ) -> None:
        self.node = node
        self.stats = stats
        self.on_packet = on_packet
        #: Event-site slots (``on_offer``, ``guard``, ``on_complete``,
        #: ``obs``): each holds the site's subscriber tuple, ``None``
        #: while empty.  Written only by ``Network.subscribe`` /
        #: ``unsubscribe`` (see ``repro.simulation.SITES`` for the call
        #: signatures); ``None`` keeps each site at one ``is None`` test.
        self.on_offer: Optional[tuple] = None
        self.guard: Optional[tuple] = None
        self.on_complete: Optional[tuple] = None
        self.obs: Optional[tuple] = None
        #: Engine-internal (not an extension point): tells the cycle
        #: engine this node's source queue changed — the active-set
        #: wake, or the vector engine's queue mirror; None under the
        #: naive loop.
        self.on_activity: Optional[Callable[[], None]] = None
        self._queues: Dict[VirtualNetwork, Deque[Flit]] = {
            vnet: deque() for vnet in VNETS
        }
        #: Running total of queued flits across vnets (``has_pending``
        #: is polled several times per cycle per router, so it must not
        #: re-scan the queues).
        self._queued = 0
        self.reassembly = ReassemblyBuffer(node)
        #: Completed packets not yet collected by a polling client
        #: (poll mode only; see the module docstring).
        self.completed: List[CompletedPacket] = []
        #: Absolute counters (never reset by measurement windows; the
        #: flit-conservation invariant is checked against these).
        self.flits_ejected_total = 0
        self.flits_offered_total = 0

    # -- send side ------------------------------------------------------------
    def offer(self, packet: Packet) -> None:
        """Queue a packet for injection (client-facing entry point)."""
        if packet.src != self.node:
            raise ValueError(
                f"packet with src {packet.src} offered at node {self.node}"
            )
        self.stats.record_injection(packet)
        self.flits_offered_total += packet.num_flits
        if self.on_offer is not None:
            for callback in self.on_offer:
                callback(packet)
        self._queues[packet.vnet].extend(packet.flits())
        self._queued += packet.num_flits
        if self.on_activity is not None:
            self.on_activity()

    def peek(self, vnet: VirtualNetwork) -> Optional[Flit]:
        """Next flit awaiting injection on ``vnet`` (without removing)."""
        queue = self._queues[vnet]
        return queue[0] if queue else None

    def pop(self, vnet: VirtualNetwork, cycle: int) -> Flit:
        """Remove and return the next flit; stamps its injection cycle."""
        flit = self._queues[vnet].popleft()
        self._queued -= 1
        flit.injected_at = cycle
        if self.obs is not None:
            for sink in self.obs:
                sink.on_inject(self.node, flit, cycle)
        return flit

    def offer_retransmission(self, packet: Packet, purge: bool = True) -> int:
        """Re-queue a dropped packet in full (retransmission paths).

        The packet's epoch was bumped when it was dropped; fresh flits
        carry the new epoch so the destination discards any stale
        leftovers of the earlier attempt.  With ``purge`` (dropping
        flow control), stale flits of this packet still waiting in the
        source queue are removed (the source does not waste injection
        bandwidth on a superseded attempt); the number purged is
        returned so the network can account for them in its
        conservation ledger.  The protection layer of ``repro.faults``
        passes ``purge=False``: the backpressured router streams a
        packet's flits into a local VC one per cycle, and removing
        queued flits mid-stream would decapitate a partially injected
        packet — stale flits instead drain in order and are discarded
        at the destination.  Retransmissions count toward the
        conservation totals (new flit objects enter the network) but
        not toward the injection-rate statistics, which measure offered
        *useful* load."""
        queue = self._queues[packet.vnet]
        purged = 0
        if purge:
            kept = [f for f in queue if f.pid != packet.pid]
            purged = len(queue) - len(kept)
            queue.clear()
            queue.extend(kept)
        self.flits_offered_total += packet.num_flits
        queue.extend(packet.flits())
        self._queued += packet.num_flits - purged
        if self.on_activity is not None:
            self.on_activity()
        return purged

    def pending_vnets(self) -> List[VirtualNetwork]:
        """Virtual networks that currently have flits queued."""
        return [vnet for vnet, q in self._queues.items() if q]

    @property
    def source_queue_flits(self) -> int:
        return self._queued

    @property
    def has_pending(self) -> bool:
        return self._queued > 0

    # -- receive side -------------------------------------------------------------
    def eject(self, flit: Flit, cycle: int) -> None:
        """Accept a flit from the router's ejection port.

        Stale flits (superseded retransmission epochs, dropping flow
        control only) count toward the conservation ledger but not
        toward goodput statistics.
        """
        self.flits_ejected_total += 1
        if self.guard is not None:
            for accept in self.guard:
                if not accept(self, flit, cycle):
                    return
        if flit.epoch >= flit.packet.epoch:
            self.stats.record_flit_ejected(self.node)
        done = self.reassembly.accept(flit, cycle)
        if done is None:
            return
        if self.on_complete is not None:
            for callback in self.on_complete:
                callback(done)
        self.stats.record_packet_complete(
            done.packet,
            done.completed_at,
            done.first_injected_at,
            done.hops,
            done.deflections,
        )
        if self.obs is not None:
            for sink in self.obs:
                sink.on_complete(self.node, done, cycle)
        if self.on_packet is not None:
            self.on_packet(done)
        else:
            self.completed.append(done)

    def drain_completed(self) -> List[CompletedPacket]:
        """Collect packets completed since the last call (polling mode)."""
        out = list(self.completed)
        self.completed.clear()
        return out
