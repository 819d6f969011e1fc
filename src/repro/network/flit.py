"""Flits, packets and virtual networks.

The unit of flow control in every router modelled here is the *flit*.
A :class:`Packet` is the unit of transfer requested by a client (a cache
controller, a synthetic traffic source, ...); it is expanded into a
sequence of flits at injection time.

Following the paper (Section III-A), every flit carries enough control
information to be routed *independently* of its siblings: the packet id,
its sequence number within the packet, the destination node, and the
virtual network it travels on.  This is what makes flit-by-flit routing
(deflection routing, and AFC's lazy-VC backpressured mode) possible.
Backpressured-only networks would not need all of these fields on every
flit, which is why their flits are narrower (41 vs 45 vs 49 bits, see
:mod:`repro.network.config`).

Data layout: flits and packets are ``__slots__`` classes, and the
identity fields a router consults on every hop (``pid``, ``src``,
``dst``, ``vnet``, ``is_head``, ``is_tail``) are *denormalized* onto the
flit at creation — plain attribute reads, no ``flit.packet.*`` property
chain.  They mirror the owning packet and are immutable in spirit; see
docs/PERFORMANCE.md ("Saturation fast path") for the rules.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from enum import IntEnum


class VirtualNetwork(IntEnum):
    """The three virtual networks of the simulated CMP (Table II).

    Two *control* networks (coherence requests and short responses /
    acknowledgements travel on separate networks to avoid protocol
    deadlock) and one *data* network carrying cache-line payloads.
    """

    CONTROL_REQ = 0
    CONTROL_RESP = 1
    DATA = 2

    @property
    def is_control(self) -> bool:
        return self is not VirtualNetwork.DATA


#: Number of virtual networks; buffer layouts are indexed by vnet.
NUM_VNETS = len(VirtualNetwork)

#: The virtual networks in index order, materialized once — building
#: ``list(VirtualNetwork)`` is surprisingly costly on injection paths
#: that run every cycle.
VNETS = tuple(VirtualNetwork)

_packet_ids = itertools.count()


def reset_packet_ids() -> None:
    """Restart the global packet-id counter (used by tests for determinism)."""
    global _packet_ids
    _packet_ids = itertools.count()


class Packet:
    """A multi-flit message between two network clients.

    Parameters
    ----------
    src, dst:
        Node ids of the producer and consumer.
    vnet:
        Virtual network the packet travels on.
    num_flits:
        Packet length in flits (control packets are short, data packets
        carry a cache line).
    created_at:
        Cycle at which the client handed the packet to the network
        interface (queueing at the interface counts toward latency).
    kind:
        Free-form tag used by the memory-system substrate to interpret
        the packet (e.g. ``"GETS"``, ``"DATA"``); the network itself
        never looks at it.
    meta:
        Client-private annotations (e.g. the memory-system substrate's
        transaction id and requestor); opaque to the network.
    epoch:
        Retransmission epoch (dropping flow control only): incremented
        each time the packet is dropped and must be resent in full;
        flits stamped with an older epoch are stale and are discarded at
        the destination's reassembly buffer.
    """

    __slots__ = (
        "src",
        "dst",
        "vnet",
        "num_flits",
        "created_at",
        "kind",
        "meta",
        "epoch",
        "pid",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        vnet: VirtualNetwork,
        num_flits: int,
        created_at: int,
        kind: str = "payload",
        meta: Optional[dict] = None,
        epoch: int = 0,
        pid: Optional[int] = None,
    ) -> None:
        if num_flits < 1:
            raise ValueError(f"packet must have >= 1 flit, got {num_flits}")
        if src == dst:
            raise ValueError("packet source and destination must differ")
        self.src = src
        self.dst = dst
        self.vnet = vnet
        self.num_flits = num_flits
        self.created_at = created_at
        self.kind = kind
        self.meta = meta
        self.epoch = epoch
        self.pid = next(_packet_ids) if pid is None else pid

    def flits(self) -> Iterator["Flit"]:
        """Expand the packet into its flit sequence (stamped with the
        packet's current retransmission epoch).  The flits are built up
        front, so a caller can ``extend`` a queue without resuming a
        generator per flit."""
        epoch = self.epoch
        return iter(
            [Flit(self, seq, epoch=epoch) for seq in range(self.num_flits)]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(pid={self.pid}, {self.src}->{self.dst}, "
            f"vnet={self.vnet.name}, num_flits={self.num_flits}, "
            f"kind={self.kind!r})"
        )


class Flit:
    """A single flow-control unit.

    Routing state (``injected_at``, ``hops``, ``deflections``) is mutated
    by routers as the flit travels.  The identity fields (``pid``,
    ``src``, ``dst``, ``vnet``, ``is_head``, ``is_tail``) are copied
    from the owning packet at creation so the per-hop hot path reads
    plain slot attributes; they are never reassigned.  Flits compare by
    identity: two flits are the same flit only if they are the same
    object, which also keeps them hashable for set membership.
    """

    __slots__ = (
        "packet",
        "seq",
        "injected_at",
        "hops",
        "deflections",
        "vc",
        "epoch",
        "pid",
        "src",
        "dst",
        "vnet",
        "is_head",
        "is_tail",
    )

    def __init__(
        self,
        packet: Packet,
        seq: int,
        injected_at: Optional[int] = None,
        hops: int = 0,
        deflections: int = 0,
        vc: int = -1,
        epoch: int = 0,
    ) -> None:
        self.packet = packet
        self.seq = seq
        #: Cycle the flit entered the network proper (left the
        #: injection queue).
        self.injected_at = injected_at
        #: Network hops traversed so far (link traversals).
        self.hops = hops
        #: Number of non-productive (deflected) hops; only
        #: deflection-mode routers ever increment this.
        self.deflections = deflections
        #: Virtual channel assigned for the current hop.  The baseline
        #: router sets this at dispatch (the downstream buffer is chosen
        #: upstream); AFC's lazy scheme leaves it at -1 and binds the VC
        #: on arrival.
        self.vc = vc
        #: Retransmission epoch this flit belongs to (see Packet.epoch).
        self.epoch = epoch
        # -- denormalized identity (hot-path reads) -----------------------
        self.pid = packet.pid
        self.src = packet.src
        self.dst = packet.dst
        self.vnet = packet.vnet
        self.is_head = seq == 0
        self.is_tail = seq == packet.num_flits - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flit(pid={self.pid}, seq={self.seq}/{self.packet.num_flits - 1}, "
            f"{self.src}->{self.dst}, vnet={self.vnet.name})"
        )


def make_packet(
    src: int,
    dst: int,
    vnet: VirtualNetwork,
    num_flits: int,
    created_at: int,
    kind: str = "payload",
) -> Packet:
    """Convenience constructor mirroring :class:`Packet`'s signature."""
    return Packet(
        src=src,
        dst=dst,
        vnet=vnet,
        num_flits=num_flits,
        created_at=created_at,
        kind=kind,
    )
