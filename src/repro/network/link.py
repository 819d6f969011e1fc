"""Pipelined links and their backflow channels.

Each unidirectional router-to-router connection is a :class:`Channel`
with two pipes:

* the *flit pipe* (upstream → downstream) models switch traversal plus
  L cycles of link traversal: a flit dispatched in cycle ``t`` is
  delivered into the downstream input stage at cycle ``t + 1 + L``
  (stage 2 of Table I overlaps partial link traversal);
* the *backflow pipe* (downstream → upstream) carries credit returns and
  the one-bit mode-notification control line of Section III-A, with
  latency L.

Links are where the two flow-control disciplines meet: a backpressured
downstream router emits credits on the backflow pipe, a backpressureless
one does not, and AFC routers toggle between the two with explicit
start/stop-credit-tracking notifications.

Hot-path contract (the *drain protocol*, see docs/PERFORMANCE.md):
delivery must not allocate when a pipe is empty — the common case for
most pipes on most cycles.  Callers that run per cycle first probe
emptiness (:meth:`DelayLine.has_ready`, or the pipe's ``_items`` list
directly inside the network package) and then consume ready items
one-by-one via :meth:`DelayLine.pop_ready_into` or an inline
peek-and-``pop(0)`` loop; the list-returning :meth:`DelayLine.pop_ready`
remains for tests and cold paths.  Backflow items are the message
objects themselves (:class:`CreditMessage` / :class:`ModeNotification`,
dispatched by type) — no per-message tuple wrapping.

A pipe holds only what one link has in flight, a few entries per
cycle of latency, so its FIFO is a plain list: ``pop(0)`` over a
handful of slots costs what ``deque.popleft`` does, and an empty list does not carry the 64-slot block every deque
allocates up front.  The list is mutated in place, never rebound:
routers' drain views, the fault injector and the vector engine alias
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Generic, List, Optional, Tuple, TypeVar, Union

from .flit import Flit, VirtualNetwork
from .topology import Direction

T = TypeVar("T")


class DelayLine(Generic[T]):
    """A FIFO whose items become visible ``latency`` cycles after entry.

    Items entered in the same cycle are delivered in entry order.  The
    structure is strictly monotone: ``pop_ready`` must be called with
    non-decreasing cycle numbers.
    """

    __slots__ = ("latency", "_items")

    def __init__(self, latency: int) -> None:
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.latency = latency
        self._items: List[Tuple[int, T]] = []

    def push(self, item: T, cycle: int) -> None:
        """Insert ``item`` at ``cycle``; it is deliverable at
        ``cycle + latency``."""
        ready = cycle + self.latency
        items = self._items
        if items and items[-1][0] > ready:
            raise ValueError("DelayLine pushes must have non-decreasing cycles")
        items.append((ready, item))

    def pop_ready(self, cycle: int) -> List[T]:
        """Remove and return every item deliverable at or before ``cycle``.

        Allocates a fresh list; cold paths and tests only.  Per-cycle
        callers use :meth:`pop_ready_into` (caller-owned buffer) or an
        inline drain loop instead.
        """
        out: List[T] = []
        items = self._items
        while items and items[0][0] <= cycle:
            out.append(items.pop(0)[1])
        return out

    def pop_ready_into(self, cycle: int, out: List[T]) -> int:
        """Append every item deliverable at or before ``cycle`` to
        ``out`` (a caller-owned, caller-cleared buffer); return the
        number appended.  Allocation-free when the pipe has nothing
        ready."""
        items = self._items
        n = 0
        while items and items[0][0] <= cycle:
            out.append(items.pop(0)[1])
            n += 1
        return n

    def has_ready(self, cycle: int) -> bool:
        """True when at least one item is deliverable at or before
        ``cycle`` (O(1), allocation-free emptiness probe)."""
        items = self._items
        return bool(items) and items[0][0] <= cycle

    def ready_count(self, cycle: int) -> int:
        """Number of items deliverable at or before ``cycle`` without
        removing them (allocation-free; replaces the old list-building
        ``peek_ready`` for callers that only need a count)."""
        n = 0
        for ready, _item in self._items:
            if ready > cycle:
                break
            n += 1
        return n

    def __len__(self) -> int:
        return len(self._items)

    @property
    def in_flight(self) -> int:
        return len(self._items)


class ModeNotice(Enum):
    """Mode-notification control messages (Section III-A's one-bit line).

    ``START_CREDITS`` tells the upstream neighbour to begin credit
    accounting for this port (downstream is switching to backpressured
    mode); ``STOP_CREDITS`` tells it to stop and treat the port as fully
    free (downstream has switched to backpressureless mode).
    """

    START_CREDITS = "start_credits"
    STOP_CREDITS = "stop_credits"


@dataclass(frozen=True, slots=True)
class CreditMessage:
    """A credit return for one flit freed from a downstream input buffer.

    ``vc`` identifies the baseline router's VC (per-VC credit tracking);
    AFC's lazy scheme tracks per virtual network only, so AFC credits
    carry ``vnet`` with ``vc`` unused.  ``frees_vc`` is set when the flit
    leaving the downstream buffer was a tail flit, releasing the
    per-packet VC allocation in the baseline scheme.
    """

    vnet: VirtualNetwork
    vc: int = -1
    frees_vc: bool = False
    #: A *debit* tells the upstream router to decrement (not increment)
    #: its credit count: AFC sends one when, during a mode transition, it
    #: buffers a flit the upstream had dispatched before credit
    #: accounting began (see repro.core.afc_router).
    debit: bool = False


@lru_cache(maxsize=None)
def credit_message(
    vnet: VirtualNetwork,
    vc: int = -1,
    frees_vc: bool = False,
    debit: bool = False,
) -> CreditMessage:
    """The one shared :class:`CreditMessage` with these field values.

    A credit is frozen and carries no identity — receivers read its
    fields and drop it, nothing compares credits by ``is`` — so every
    sender can push the same instance instead of building one per freed
    flit.  The cache is bounded by the field space (virtual networks x
    VCs per port x two flags); routers copy the instances they can send
    into per-port tables at wiring time and index those per flit.
    """
    return CreditMessage(vnet, vc, frees_vc, debit)


@dataclass(frozen=True, slots=True)
class ModeNotification:
    """A mode notice plus, for START_CREDITS, the per-vnet occupancy of
    the downstream input port at the time the downstream router began
    buffering — the upstream initialises its credit counters to
    ``capacity - occupied``."""

    kind: ModeNotice
    occupied: Tuple[int, int, int] = (0, 0, 0)


#: Items travelling on the backflow pipe: the message objects
#: themselves, dispatched by concrete type at the receiving router.
Backflow = Union[CreditMessage, ModeNotification]


class Channel:
    """One unidirectional connection ``upstream --(direction)--> downstream``.

    ``direction`` is the *output* direction at the upstream router; the
    downstream router receives these flits on its ``direction.opposite``
    input port.
    """

    __slots__ = (
        "upstream",
        "direction",
        "downstream",
        "link_latency",
        "_flits",
        "_backflow",
        "flit_traversals",
        "wake_flit",
        "wake_backflow",
        "fault",
    )

    def __init__(
        self,
        upstream: int,
        direction: Direction,
        downstream: int,
        link_latency: int,
    ) -> None:
        if direction is Direction.LOCAL:
            raise ValueError("channels connect routers, not local clients")
        self.upstream = upstream
        self.direction = direction
        self.downstream = downstream
        self.link_latency = link_latency
        # Dispatch (SA win) at t -> downstream delivery at t + 1 + L.
        self._flits: DelayLine[Flit] = DelayLine(latency=1 + link_latency)
        self._backflow: DelayLine[Backflow] = DelayLine(latency=link_latency)
        #: Running count of flit traversals (used by energy accounting).
        self.flit_traversals = 0
        #: Optional wake hooks installed by the active-set cycle engine
        #: while the receiving router is asleep.  Called with the cycle
        #: the pushed item becomes deliverable.
        self.wake_flit: Optional[Callable[[int], None]] = None
        self.wake_backflow: Optional[Callable[[int], None]] = None
        #: Optional fault state installed by repro.faults.FaultInjector.
        #: The zero-fault hot path pays exactly one ``is None`` check
        #: per send.  Mode notifications travel on the dedicated one-bit
        #: control line and are assumed protected (never faulted).
        self.fault = None

    # -- forward (flit) direction -----------------------------------------
    # ``send_flit`` and ``send_credit`` run once per flit hop each, so
    # they append to their own delay line inline (the body of
    # ``DelayLine.push``, monotonic-cycle check included) instead of
    # paying a second call.
    def send_flit(self, flit: Flit, cycle: int) -> None:
        flit.hops += 1
        self.flit_traversals += 1
        if self.fault is not None:
            self.fault.on_send_flit(flit, cycle)
        line = self._flits
        ready = cycle + line.latency
        items = line._items
        if items and items[-1][0] > ready:
            raise ValueError("DelayLine pushes must have non-decreasing cycles")
        items.append((ready, flit))
        if self.wake_flit is not None:
            self.wake_flit(ready)

    def deliver_flits(self, cycle: int) -> List[Flit]:
        return self._flits.pop_ready(cycle)

    @property
    def flits_in_flight(self) -> int:
        return len(self._flits._items)

    # -- backflow direction -------------------------------------------------
    def send_credit(self, credit: CreditMessage, cycle: int) -> None:
        if self.fault is not None and self.fault.on_send_credit(credit, cycle):
            return
        line = self._backflow
        ready = cycle + line.latency
        items = line._items
        if items and items[-1][0] > ready:
            raise ValueError("DelayLine pushes must have non-decreasing cycles")
        items.append((ready, credit))
        if self.wake_backflow is not None:
            self.wake_backflow(ready)

    def send_mode_notice(self, notice: ModeNotification, cycle: int) -> None:
        self._backflow.push(notice, cycle)
        if self.wake_backflow is not None:
            self.wake_backflow(cycle + self._backflow.latency)

    def deliver_backflow(self, cycle: int) -> List[Backflow]:
        return self._backflow.pop_ready(cycle)

    @property
    def backflow_in_flight(self) -> int:
        return len(self._backflow._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.upstream} --{self.direction.name}--> "
            f"{self.downstream}, L={self.link_latency})"
        )
