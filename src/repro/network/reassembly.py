"""Receive-side reassembly of flit-by-flit routed packets.

Deflection routing (and AFC's lazy-VC backpressured mode) delivers the
flits of a packet out of order and intermingled with other packets'
flits.  Section II of the paper argues this needs no extra hardware
beyond the MSHR receive buffers that backpressured networks already
require; here we model that buffering as a per-node
:class:`ReassemblyBuffer` keyed by packet id.

The buffer also tracks the bookkeeping the statistics need: the cycle
the first flit of the packet entered the network and the accumulated
hop/deflection counts over all flits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Set

from .flit import Flit, Packet


@dataclass(slots=True)
class _PendingPacket:
    packet: Packet
    epoch: int
    received: Set[int]
    hops: int
    deflections: int
    first_injected_at: Optional[int]


class CompletedPacket(NamedTuple):
    """A fully reassembled packet plus its measured transport costs."""

    packet: Packet
    completed_at: int
    first_injected_at: int
    hops: int
    deflections: int

    @property
    def latency(self) -> int:
        return self.completed_at - self.packet.created_at


class ReassemblyBuffer:
    """Per-node MSHR-style reassembly of arriving flits."""

    __slots__ = ("node", "_pending", "high_water", "stale_flits_discarded")

    def __init__(self, node: int) -> None:
        self.node = node
        self._pending: Dict[int, _PendingPacket] = {}
        #: Maximum number of simultaneously pending packets observed;
        #: useful for sizing receive-side buffering in experiments.
        self.high_water = 0
        #: Flits discarded because their packet was dropped and will be
        #: retransmitted in full (dropping flow control only).
        self.stale_flits_discarded = 0

    def accept(self, flit: Flit, cycle: int) -> Optional[CompletedPacket]:
        """Record an ejected flit; return the packet if now complete.

        Flits from a superseded retransmission epoch (the packet was
        dropped somewhere and will be resent in full) are discarded;
        any partial state they contributed is likewise abandoned when
        the first current-epoch flit arrives.
        """
        if flit.dst != self.node:
            raise ValueError(
                f"flit destined to {flit.dst} ejected at node {self.node}"
            )
        packet = flit.packet
        epoch = flit.epoch
        if epoch < packet.epoch:
            self.stale_flits_discarded += 1
            return None
        pending = self._pending
        pid = flit.pid
        entry = pending.get(pid)
        if entry is None or entry.epoch < epoch:
            if entry is not None:
                # Abandon the superseded partial reassembly.
                self.stale_flits_discarded += len(entry.received)
                del pending[pid]
            entry = _PendingPacket(packet, epoch, set(), 0, 0, None)
            pending[pid] = entry
            if len(pending) > self.high_water:
                self.high_water = len(pending)
        received = entry.received
        seq = flit.seq
        if seq in received:
            raise ValueError(f"duplicate flit seq {seq} for packet {pid}")
        received.add(seq)
        entry.hops += flit.hops
        entry.deflections += flit.deflections
        injected = flit.injected_at
        first = entry.first_injected_at
        if injected is not None and (first is None or injected < first):
            entry.first_injected_at = first = injected
        if len(received) != packet.num_flits:
            return None
        del pending[pid]
        return CompletedPacket(
            packet,
            cycle,
            first if first is not None else packet.created_at,
            entry.hops,
            entry.deflections,
        )

    @property
    def pending_packets(self) -> int:
        return len(self._pending)

    @property
    def pending_flits(self) -> int:
        """Flits still outstanding across all pending packets."""
        return sum(
            p.packet.num_flits - len(p.received) for p in self._pending.values()
        )
