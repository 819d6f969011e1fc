"""End-to-end protection: checksum, NACK/retransmission, timeouts.

The protection protocol mirrors real NoC link-level/end-to-end ECC
schemes at the abstraction level of this simulator:

* every flit carries a checksum; the simulator models *detectability*
  rather than payload bits, so the injector marks corrupted flits in a
  side table and the guard at the destination NI checks membership;
* a corrupted flit is discarded at the ejection port (it still counts
  toward the conservation ledger) and triggers a NACK to the source:
  the packet's epoch is bumped — instantly staling every other copy of
  its flits, the dedup mechanism shared with the dropping design — and
  the whole packet is re-offered after ``nack_latency`` cycles;
* an acknowledgement timeout covers losses the destination never sees
  (a packet wedged behind a dead region): any packet outstanding longer
  than ``ack_timeout`` cycles since its last (re)send is retransmitted;
* retries are bounded: after ``max_retries`` retransmissions the packet
  is *orphaned* — its epoch is bumped one final time without re-offer,
  so leftover flits drain as stale and the ledger entry is dropped.

Exactly-once delivery is structural: completion requires a full set of
current-epoch flits, an epoch bump precedes every retransmission, and
the reassembly buffer rejects duplicate sequence numbers within an
epoch — so a packet can complete at most once per epoch and the ledger
entry is removed on the first completion.

With a fault-free run the layer is pure bookkeeping (a dict insert per
offered packet, a dict pop per completion, a periodic scan that finds
nothing due) and changes no simulation state — the zero-fault
bit-identity property in tests/test_faults.py pins this.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..network.flit import Flit, Packet
from ..network.interface import NetworkInterface
from ..network.reassembly import CompletedPacket


@dataclass(frozen=True, slots=True)
class ProtectionConfig:
    """Knobs of the protection protocol (picklable for the harness)."""

    #: Full-packet retransmissions allowed before orphaning.
    max_retries: int = 4
    #: Cycles from a NACK to the re-offer at the source (models the
    #: reverse-path latency of the NACK message).
    nack_latency: int = 8
    #: Cycles without completion after a (re)send before the source
    #: retransmits on its own.
    ack_timeout: int = 2000
    #: Period of the timeout scan and the heap service.
    check_interval: int = 64
    #: Period of credit-timeout resynthesis (injector-side; 0 disables).
    credit_resync_interval: int = 64
    #: Cycles from a permanent kill to the route-table patch (models
    #: fault detection plus table reconfiguration).
    reroute_delay: int = 32

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.nack_latency < 1:
            raise ValueError("nack_latency must be >= 1")
        if self.ack_timeout < 1:
            raise ValueError("ack_timeout must be >= 1")
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if self.credit_resync_interval < 0:
            raise ValueError("credit_resync_interval must be >= 0")
        if self.reroute_delay < 0:
            raise ValueError("reroute_delay must be >= 0")


def publish_fault(net, counter: str) -> None:
    """Count one fault/protection event on every attached flit-lifecycle
    sink (``repro.obs.Observability`` turns it into a metrics counter).
    Sinks are looked up per event, so publication does not depend on
    whether the sink or the fault source attached first."""
    for sink in net.subscribers("flit"):
        sink.on_fault(counter)


class _Outstanding:
    """Ledger entry for one offered-but-not-completed packet."""

    __slots__ = ("packet", "offered_at", "last_send", "retries")

    def __init__(self, packet: Packet, cycle: int) -> None:
        self.packet = packet
        self.offered_at = cycle
        self.last_send = cycle
        self.retries = 0


class ProtectionLayer:
    """Checksum guard + NACK/retransmission for every NI of a network.

    Install via :class:`repro.faults.FaultInjector`; the layer
    subscribes to the network's ``offer``, ``guard`` and ``complete``
    sites next to whoever else is there (traffic tracing, say).
    Packets offered *before* installation are invisible to the ledger,
    so the injector must be created before any traffic is offered.
    The network's subscriptions keep the layer alive; the layer holds
    the network weakly, so a finished run is freed by reference
    counting.
    """

    def __init__(self, net, config: ProtectionConfig, corrupt_ids: Set[int]) -> None:
        self.net = weakref.proxy(net)
        self.config = config
        self.stats = net.stats
        #: id(flit) table shared with the injector — membership means
        #: "checksum will fail".  Ids are removed here, at the guard,
        #: before the flit object can be garbage-collected, so id reuse
        #: cannot alias a healthy flit.
        self._corrupt_ids = corrupt_ids
        self._ledger: Dict[int, _Outstanding] = {}
        self._heap: List[Tuple[int, int, Packet]] = []
        self._seq = itertools.count()
        #: pids with a retransmission scheduled but not yet re-offered.
        self._scheduled: Set[int] = set()
        #: pid -> completion count (exactly-once evidence for tests).
        self.completions: Dict[int, int] = {}
        #: pids abandoned after exhausting the retry budget.
        self.orphaned_pids: Set[int] = set()
        self._due_buffer: List[_Outstanding] = []
        net.subscribe("offer", self._on_offer)
        net.subscribe("guard", self.accept_flit)
        net.subscribe("complete", self._on_complete)

    def detach(self) -> None:
        self.net.unsubscribe("offer", self._on_offer)
        self.net.unsubscribe("guard", self.accept_flit)
        self.net.unsubscribe("complete", self._on_complete)

    # -- NI subscriptions --------------------------------------------------
    def _on_offer(self, packet: Packet) -> None:
        self._ledger[packet.pid] = _Outstanding(packet, self.net.cycle)

    def _on_complete(self, done: CompletedPacket) -> None:
        pid = done.packet.pid
        self.completions[pid] = self.completions.get(pid, 0) + 1
        self._ledger.pop(pid, None)
        # A retransmission can never be pending here: scheduling one
        # bumped the epoch, and completion needs current-epoch flits
        # which only the re-offer creates.
        self._scheduled.discard(pid)

    def accept_flit(self, ni: NetworkInterface, flit: Flit, cycle: int) -> bool:
        """Checksum check at the ejection port (``guard`` site).

        Returns False to discard the flit.  Corrupt current-epoch flits
        NACK their packet; corrupt stale flits are silently discarded —
        a retransmission for their epoch is already under way (or the
        packet was orphaned)."""
        corrupt = self._corrupt_ids
        if not corrupt:
            return True
        fid = id(flit)
        if fid not in corrupt:
            return True
        corrupt.discard(fid)
        self.stats.record_corrupt_flit_discarded()
        publish_fault(self.net, "noc_corrupt_flits_discarded_total")
        if flit.epoch >= flit.packet.epoch:
            self._nack(flit.packet, cycle)
        return False

    # -- protocol ----------------------------------------------------------
    def _nack(self, packet: Packet, cycle: int) -> None:
        entry = self._ledger.get(packet.pid)
        if entry is None or packet.pid in self._scheduled:
            return
        if entry.retries >= self.config.max_retries:
            self._orphan(entry)
            return
        packet.epoch += 1
        entry.retries += 1
        self._scheduled.add(packet.pid)
        heapq.heappush(
            self._heap,
            (cycle + self.config.nack_latency, next(self._seq), packet),
        )

    def _orphan(self, entry: _Outstanding) -> None:
        packet = entry.packet
        # Final epoch bump with no re-offer: every remaining flit of the
        # packet (queued or in flight) drains as stale.
        packet.epoch += 1
        self._ledger.pop(packet.pid, None)
        self.orphaned_pids.add(packet.pid)
        self.stats.record_packet_orphaned(packet.num_flits)
        publish_fault(self.net, "noc_packets_orphaned_total")

    def tick(self, cycle: int) -> None:
        """Per-cycle service (called from the injector's ``on_cycle``)."""
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            _, _, packet = heapq.heappop(heap)
            if packet.pid not in self._scheduled:
                continue  # completed or orphaned since scheduling
            self._scheduled.discard(packet.pid)
            entry = self._ledger.get(packet.pid)
            if entry is None:
                continue
            # purge=False: stale queued flits must stream out in order
            # (the backpressured local port injects packets flit-by-flit
            # into a VC; removing queued flits mid-stream would corrupt
            # the per-packet VC discipline).  They arrive stale and are
            # discarded at the destination.
            self.net.interfaces[packet.src].offer_retransmission(
                packet, purge=False
            )
            entry.last_send = cycle
            self.stats.record_protection_retransmission()
            publish_fault(self.net, "noc_protection_retransmissions_total")
        if cycle % self.config.check_interval == 0 and self._ledger:
            deadline = cycle - self.config.ack_timeout
            due = self._due_buffer
            for entry in self._ledger.values():
                if (
                    entry.last_send <= deadline
                    and entry.packet.pid not in self._scheduled
                ):
                    due.append(entry)
            if due:
                for entry in due:
                    self._nack(entry.packet, cycle)
                due.clear()

    # -- introspection ------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Packets offered but neither completed nor orphaned."""
        return len(self._ledger)

    @property
    def duplicate_completions(self) -> int:
        return sum(n - 1 for n in self.completions.values() if n > 1)
