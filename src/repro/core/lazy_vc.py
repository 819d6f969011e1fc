"""Lazy VC allocation structures (AFC mechanism 3).

Section III-E: because AFC routes flit-by-flit even in backpressured
mode, the per-packet VC rules (R1/R2) of traditional flow control are
unnecessary.  AFC views the K-flit input buffer as K one-flit VCs,
tracks credits per *virtual network* rather than per VC, and binds each
arriving flit to whichever free slot receives it — a legal allocation by
construction, discovered with a simple daisy chain and therefore off the
critical path.  Two consequences:

* VC allocation disappears as a pipeline stage (the upstream router
  dispatches with only the virtual-network identifier);
* no two flits ever share a VC, so duplicate-allocation HOL blocking is
  impossible, and switch allocation may serve the port's flits in *any*
  order.

:class:`LazyInputPort` models the downstream side (the slotted buffer);
:class:`NeighborCreditState` models the upstream side (per-vnet credit
counters, plus AFC's start/stop credit-tracking control line).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..network.flit import Flit, VirtualNetwork


class BufferBank:
    """Flits buffered across all input ports of one router.

    Every :class:`LazyInputPort` of a router shares one bank and moves
    ``flits`` together with its own count, so the router reads its total
    occupancy (quiescence, power gating, the reverse-switch guard — all
    polled every awake cycle) without visiting its ports.
    """

    __slots__ = ("flits",)

    def __init__(self) -> None:
        self.flits = 0


class LazyInputPort:
    """A bank of one-flit VCs, partitioned by virtual network.

    Flits are kept in arrival order (oldest first) within each virtual
    network.  The switch allocator round-robins across virtual networks
    (mirroring the baseline's round-robin across VCs, so short control
    packets are not starved behind long data transfers) and serves
    oldest-first within one — though *any* service order would be
    correct, which is the point of lazy allocation.
    """

    __slots__ = ("capacity", "_by_vnet", "_count", "_bank", "sa_rr")

    def __init__(
        self, vcs: Sequence[int], bank: Optional[BufferBank] = None
    ) -> None:
        #: Router-wide occupancy this port contributes to (its own when
        #: the port stands alone).
        self._bank = bank if bank is not None else BufferBank()
        self.capacity: Dict[VirtualNetwork, int] = {
            vnet: count for vnet, count in zip(VirtualNetwork, vcs)
        }
        self._by_vnet: Dict[VirtualNetwork, List[Flit]] = {
            vnet: [] for vnet in VirtualNetwork
        }
        #: Running total across vnets (occupancy is polled every cycle
        #: by energy gating and the activity scheduler).
        self._count = 0
        #: Switch-allocation round-robin pointer over virtual networks.
        self.sa_rr = 0

    # -- capacity --------------------------------------------------------------
    def free_slots(self, vnet: VirtualNetwork) -> int:
        return self.capacity[vnet] - len(self._by_vnet[vnet])

    def occupied(self, vnet: VirtualNetwork) -> int:
        return len(self._by_vnet[vnet])

    def occupied_tuple(self) -> Tuple[int, int, int]:
        """Per-vnet occupancy, in VirtualNetwork order (for START
        notifications)."""
        counts = tuple(len(self._by_vnet[vnet]) for vnet in VirtualNetwork)
        return counts  # type: ignore[return-value]

    @property
    def total_flits(self) -> int:
        return self._count

    @property
    def empty(self) -> bool:
        return self._count == 0

    # -- flit movement ------------------------------------------------------------
    def insert(self, flit: Flit) -> None:
        """Lazily allocate a free slot (VC) of the flit's vnet to it."""
        vnet = flit.vnet
        flits = self._by_vnet[vnet]
        if len(flits) >= self.capacity[vnet]:
            raise RuntimeError(
                f"lazy buffer overflow on vnet {vnet.name}: "
                "per-vnet credit protocol violated"
            )
        flits.append(flit)
        self._count += 1
        self._bank.flits += 1

    def flits(self) -> List[Flit]:
        """All buffered flits (oldest first within each vnet)."""
        out: List[Flit] = []
        for flits in self._by_vnet.values():
            out.extend(flits)
        return out

    def flits_of(self, vnet: VirtualNetwork) -> List[Flit]:
        """Buffered flits of one vnet, oldest first (do not mutate)."""
        return self._by_vnet[vnet]

    def remove(self, flit: Flit) -> None:
        """Free the slot occupied by ``flit`` (it won arbitration)."""
        self._by_vnet[flit.vnet].remove(flit)
        self._count -= 1
        self._bank.flits -= 1


class NeighborCreditState:
    """Upstream-side credit view of one neighbouring input port.

    ``tracking`` mirrors the neighbour's mode: it is switched on by a
    START_CREDITS notification (carrying the neighbour's occupancy
    snapshot) and off by STOP_CREDITS.  While tracking is off, the
    neighbour deflects everything and ``can_send`` is unconditionally
    true.

    The snapshot is ``L`` cycles old on arrival and the neighbour keeps
    deflecting for the rest of its ``2L + 1``-cycle transition window,
    during which it may *emergency-buffer* flits this router dispatched
    before tracking began — at most one per remaining window cycle, each
    announced by an occupancy debit that takes another ``L`` cycles to
    get here.  Until ``settled_at`` the counters therefore hold back a
    ``reserve`` of one credit per emergency write that may still be
    unknown here (``settled_at - cycle``, see :meth:`settle`): a vnet is
    sendable only while ``credits > reserve``, so a slot the neighbour
    is about to fill is never also promised to a flit from here.
    """

    __slots__ = (
        "capacity",
        "tracking",
        "credits",
        "_total_free",
        "ok",
        "reserve",
        "settled_at",
        "_tracked",
    )

    def __init__(
        self, vcs: Sequence[int], tracked: Optional[List[int]] = None
    ) -> None:
        self.capacity: Dict[VirtualNetwork, int] = {
            vnet: count for vnet, count in zip(VirtualNetwork, vcs)
        }
        self.tracking = False
        self.credits: Dict[VirtualNetwork, int] = dict(self.capacity)
        #: Running sum of ``credits.values()`` — the gossip trigger
        #: polls :attr:`total_free` for every neighbour every adaptive
        #: cycle, so it must not re-sum the dict each time.
        self._total_free = sum(self.credits.values())
        #: Per-vnet :meth:`can_send` verdicts, indexed by vnet value and
        #: maintained incrementally (credits change orders of magnitude
        #: less often than allocation reads them).  The list object is
        #: stable for the state's lifetime: routers cache it and index
        #: it directly in their allocation loops.
        self.ok: List[bool] = [True] * len(VirtualNetwork)
        #: Credits held back per vnet, and the cycle the last of them is
        #: released (both 0 outside the settling phase after a START).
        self.reserve = 0
        self.settled_at = 0
        #: One-element count of the owning router's tracking neighbours,
        #: shared by all of its states (plain state: no reference back
        #: to the router); kept in step with :attr:`tracking`.
        self._tracked = tracked if tracked is not None else [0]

    # -- control line ------------------------------------------------------------
    def start_tracking(
        self, occupied: Tuple[int, int, int], cycle: int = 0, reserve: int = 0
    ) -> None:
        """Begin credit accounting from the neighbour's occupancy
        snapshot, received at ``cycle``; ``reserve`` credits per vnet
        are held back and released one per cycle (:meth:`settle`)."""
        if not self.tracking:
            self._tracked[0] += 1
        self.tracking = True
        self.reserve = reserve
        self.settled_at = cycle + reserve
        for vnet, occ in zip(VirtualNetwork, occupied):
            self.credits[vnet] = self.capacity[vnet] - occ
            if self.credits[vnet] < 0:
                raise RuntimeError("occupancy snapshot exceeds capacity")
            self.ok[vnet] = self.credits[vnet] > reserve
        self._total_free = sum(self.credits.values())

    def settle(self, cycle: int) -> bool:
        """Bring the reserve to its value at ``cycle`` (absolute, so a
        router that slept through part of the phase catches up in one
        call); returns True once nothing is held back any more."""
        reserve = self.settled_at - cycle
        if reserve < 0:
            reserve = 0
        self.reserve = reserve
        ok = self.ok
        for vnet, credits in self.credits.items():
            ok[vnet] = credits > reserve
        return reserve == 0

    def stop_tracking(self) -> None:
        """Neighbour went backpressureless: treat the port as free
        (the paper: 'the neighbors simply set the buffer occupancy of
        the switched router to empty')."""
        if self.tracking:
            self._tracked[0] -= 1
        self.tracking = False
        self.reserve = self.settled_at = 0
        self.credits = dict(self.capacity)
        self._total_free = sum(self.credits.values())
        ok = self.ok
        for vnet in range(len(ok)):
            ok[vnet] = True

    # -- credit accounting -----------------------------------------------------------
    def can_send(self, vnet: VirtualNetwork) -> bool:
        return self.ok[vnet]

    def on_send(self, vnet: VirtualNetwork) -> None:
        if not self.tracking:
            return
        if self.credits[vnet] <= 0:
            raise RuntimeError(f"dispatched without credit on {vnet.name}")
        left = self.credits[vnet] - 1
        self.credits[vnet] = left
        self._total_free -= 1
        if left <= self.reserve:
            self.ok[vnet] = False

    def on_credit(self, vnet: VirtualNetwork, debit: bool = False) -> None:
        """Apply a credit (or occupancy debit) message.

        Clamped: stale credits from before tracking started (e.g. for
        flits the neighbour emergency-buffered while backpressureless)
        must not push the counter past capacity, and debits cannot take
        it below zero.
        """
        if not self.tracking:
            return
        before = self.credits[vnet]
        if debit:
            after = before - 1 if before > 0 else 0
        else:
            capacity = self.capacity[vnet]
            after = before + 1 if before < capacity else capacity
        self.credits[vnet] = after
        self._total_free += after - before
        self.ok[vnet] = after > self.reserve

    @property
    def total_free(self) -> int:
        """Free slots across all vnets (the gossip-trigger metric)."""
        return self._total_free
