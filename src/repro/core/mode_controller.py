"""AFC mode state machine and load estimation.

Each AFC router owns one :class:`ModeController`.  Every cycle the
router reports how many flits traversed its switch; the controller
averages that over a 4-cycle window, smooths the average with an EWMA
(``m_new = alpha * m_old + (1 - alpha) * window_average``, alpha = 0.99,
Section IV), and compares it against the router's hysteresis thresholds.
The window is a fixed ring with a running sum, and the router performs
the per-cycle update inline (:meth:`AfcRouter.step
<repro.core.afc_router.AfcRouter.step>`), evaluating exactly the float
expression of :meth:`record_load`.

Mode transitions (Figure 1 of the paper):

* forward (backpressureless → backpressured): triggered when the EWMA
  exceeds the high threshold, or by gossip (a backpressured neighbour's
  free buffers fell below X).  The switch is realised over a transition
  window: neighbours are notified to start credit accounting, flits
  arriving during the window are still deflected, and backpressured
  operation begins once every flit dispatched before accounting started
  is guaranteed to have been deflected onward.  With this simulator's
  dispatch-to-delivery latency of 1 + L cycles the window is 2L + 1
  cycles (the paper's 2L under its coarser send/receive timing).
* reverse (backpressured → backpressureless): permitted only when the
  EWMA is below the low threshold *and* the input buffers are empty —
  otherwise buffered flits would be stranded.  Takes effect immediately.

Mode residency is not ticked per cycle.  The controller remembers the
first cycle it has not yet charged, and :meth:`charge_residency` adds
the cycles since then to the current mode's counter in one step.  The
router calls it at every mode change (forward, completion, reverse) and
the network at its sync points (``Network.sync_bookkeeping``, which
``begin_measurement`` and the end of every run call).  A cycle counts
towards the mode the router ends it in, except that a forward switch's
last transition cycle counts as transition: the switch completes at
that cycle's end.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from typing import Iterator, List, Optional

from ..network.config import ContentionThresholds
from ..network.stats import RouterModeStats


class Mode(Enum):
    """Operating mode of an AFC router."""

    BACKPRESSURELESS = "backpressureless"
    #: Forward switch in progress: still deflecting, neighbours already
    #: (or about to be) counting credits.
    TRANSITION = "transition"
    BACKPRESSURED = "backpressured"

    @property
    def deflecting(self) -> bool:
        """True when arrivals are latched and deflected rather than
        buffered."""
        return self is not BACKPRESSURED


#: The members bound once: an Enum class-attribute load costs several
#: times a module global, and the per-cycle and per-flit paths of the
#: controller and the AFC router test the mode constantly.
BACKPRESSURELESS = Mode.BACKPRESSURELESS
TRANSITION = Mode.TRANSITION
BACKPRESSURED = Mode.BACKPRESSURED


class ModeController:
    """Per-router load estimator plus mode FSM."""

    __slots__ = (
        "thresholds",
        "high",
        "link_latency",
        "adaptive",
        "mode",
        "ewma",
        "_ring",
        "_pos",
        "_fill",
        "_load",
        "_alpha",
        "_beta",
        "backpressured_from",
        "charged_from",
    )

    def __init__(
        self,
        thresholds: ContentionThresholds,
        link_latency: int,
        load_window: int = 4,
        ewma_alpha: float = 0.99,
        adaptive: bool = True,
        initial_mode: Mode = BACKPRESSURELESS,
    ) -> None:
        if initial_mode is TRANSITION:
            raise ValueError("cannot start in a transition")
        self.thresholds = thresholds
        #: ``thresholds.high``, read by the router every cycle.
        self.high = thresholds.high
        self.link_latency = link_latency
        self.adaptive = adaptive
        self.mode = initial_mode
        self.ewma = 0.0
        #: The last ``load_window`` cycles' switch traversals as a fixed
        #: ring: ``_ring[_pos]`` is the oldest sample (the next one
        #: overwritten), ``_fill`` how many samples the window holds so
        #: far (slots not yet written hold 0).
        self._ring: List[int] = [0] * load_window
        self._pos = 0
        self._fill = 0
        #: Running ``sum(_ring)``: the same int, without a re-sum per
        #: cycle.
        self._load = 0
        self._alpha = ewma_alpha
        #: ``1 - alpha``, computed once: the same double every cycle.
        self._beta = 1.0 - ewma_alpha
        #: First cycle of backpressured operation for an in-progress
        #: forward switch.
        self.backpressured_from: Optional[int] = None
        #: First cycle not yet charged to a residency counter.
        self.charged_from = 0

    # -- load tracking ------------------------------------------------------
    def record_load(self, switch_traversals: int) -> None:
        """Report this cycle's switch traversals and update the EWMA.

        The router's step performs this same update inline; the two
        must stay the same float operations in the same order."""
        ring = self._ring
        pos = self._pos
        load = self._load + switch_traversals - ring[pos]
        ring[pos] = switch_traversals
        pos += 1
        self._pos = 0 if pos == len(ring) else pos
        fill = self._fill
        if fill < len(ring):
            self._fill = fill = fill + 1
        self._load = load
        self.ewma = self._alpha * self.ewma + self._beta * (load / fill)

    @property
    def window(self) -> List[int]:
        """The load window's samples, oldest first."""
        ring = self._ring
        if self._fill < len(ring):
            return ring[: self._fill]
        return ring[self._pos :] + ring[: self._pos]

    # -- transition window ------------------------------------------------------
    @property
    def transition_window(self) -> int:
        """Cycles between a forward-switch trigger and backpressured
        operation (2L + 1, see module docstring)."""
        return 2 * self.link_latency + 1

    def forward_due(self, cycle: int) -> bool:
        """True when an in-progress forward switch runs backpressured
        from ``cycle`` on."""
        return (
            self.mode is TRANSITION
            and self.backpressured_from is not None
            and cycle >= self.backpressured_from
        )

    def maybe_complete_forward(self, cycle: int) -> None:
        """Enter backpressured mode if ``cycle`` is past the transition
        window."""
        if self.forward_due(cycle):
            self.mode = BACKPRESSURED
            self.backpressured_from = None

    # -- transitions ----------------------------------------------------------
    def wants_forward(self) -> bool:
        return (
            self.adaptive
            and self.mode is BACKPRESSURELESS
            and self.ewma > self.thresholds.high
        )

    def wants_reverse(self, buffers_empty: bool) -> bool:
        return (
            self.adaptive
            and self.mode is BACKPRESSURED
            and self.ewma < self.thresholds.low
            and buffers_empty
        )

    def begin_forward(self, cycle: int) -> None:
        """Start a forward switch (threshold- or gossip-triggered)."""
        if self.mode is not BACKPRESSURELESS:
            raise RuntimeError(f"forward switch from mode {self.mode}")
        self.mode = TRANSITION
        self.backpressured_from = cycle + self.transition_window

    def begin_reverse(self) -> None:
        """Switch to backpressureless mode (caller checked buffers)."""
        if self.mode is not BACKPRESSURED:
            raise RuntimeError(f"reverse switch from mode {self.mode}")
        self.mode = BACKPRESSURELESS

    # -- idle fast-path support (active-set cycle engine) ------------------------
    #
    # A quiescent router's only per-cycle state change is the EWMA decay
    # performed by ``record_load(0)`` (residency is charged lazily, see
    # the module docstring).  The helpers below let the cycle engine
    # skip such routers and replay the decay in a batch,
    # *bit-identically*: while the window still drains, the replay
    # evaluates the per-cycle expression; once it holds only zeros,
    # each cycle adds ``(1 - alpha) * 0.0`` (a zero), so the decay is a
    # run of multiplications by alpha, which ``math.prod`` performs in
    # the same order.

    def _drain_ewmas(self) -> Iterator[float]:
        """Successive EWMA values for idle ``record_load(0)`` cycles
        until the load window is all zeros (at most ``load_window``
        values), evaluating the exact per-cycle expression on copies.
        Mutates nothing."""
        ring = list(self._ring)
        n = len(ring)
        pos = self._pos
        fill = self._fill
        load = self._load
        alpha = self._alpha
        beta = self._beta
        ewma = self.ewma
        while load:
            load -= ring[pos]
            ring[pos] = 0
            pos = pos + 1 if pos + 1 < n else 0
            if fill < n:
                fill += 1
            ewma = alpha * ewma + beta * (load / fill)
            yield ewma

    def idle_forward_safe(self) -> bool:
        """True when idling forever cannot spontaneously trigger a
        forward switch: replaying idle cycles never lifts the EWMA above
        the high threshold.  A non-zero window draining out of the
        average can briefly *raise* the EWMA (toward the window average)
        before the pure geometric decay takes over, so the drain is
        replayed explicitly; once the window is all zeros the EWMA only
        falls and the check is trivially true."""
        if not self.adaptive or self.mode is not BACKPRESSURELESS:
            return True  # no spontaneous forward switch in this mode
        high = self.high
        if self.ewma > high:
            return False
        total = self._load
        if total == 0:
            return True  # pure decay, never rises
        # Cheap sound bound before the exact replay: every replayed EWMA
        # is a convex combination of the current EWMA and per-cycle
        # window averages; each average divides a non-increasing sum
        # (zeros push samples out) by the smallest window length the
        # replay can see, so max(ewma, total/denom) bounds them all.
        n = len(self._ring)
        fill = self._fill
        denom = fill + 1 if fill < n else n
        if total / denom <= high:
            return True
        for ewma in self._drain_ewmas():
            if ewma > high:
                return False
        return True

    def idle_catch_up(self, cycles: int) -> None:
        """Replay ``cycles`` idle cycles of load bookkeeping in a batch.

        Must only be called when the mode cannot have changed while
        asleep (the engine guarantees it).  The result is bit-identical
        to ``cycles`` eager ``record_load(0)`` calls: the drain cycles,
        while the window still holds non-zero samples (at most
        ``load_window`` of them), evaluate the per-cycle expression;
        the rest multiply by alpha once per cycle.
        """
        if cycles <= 0:
            return
        ring = self._ring
        n = len(ring)
        pos = self._pos
        fill = self._fill
        load = self._load
        ewma = self.ewma
        alpha = self._alpha
        if load:
            beta = self._beta
            while load and cycles:
                load -= ring[pos]
                ring[pos] = 0
                pos = pos + 1 if pos + 1 < n else 0
                if fill < n:
                    fill += 1
                ewma = alpha * ewma + beta * (load / fill)
                cycles -= 1
            self._load = load
        if cycles:
            # ``alpha * e + (1 - alpha) * 0.0`` is ``alpha * e`` exactly
            # (adding a zero rounds nothing), and ``math.prod`` folds
            # left to right from ``start``: the eager loop's products.
            ewma = math.prod(repeat(alpha, cycles), start=ewma)
            pos = (pos + cycles) % n
            fill = fill + cycles if fill + cycles < n else n
        self.ewma = ewma
        self._pos = pos
        self._fill = fill

    def idle_cycles_until_reverse(self) -> Optional[int]:
        """Idle cycles after which a backpressured router's decaying
        EWMA first drops below the low threshold (enabling the reverse
        switch), or ``None`` when no such future switch is pending.

        Replays the same per-cycle decay as :meth:`idle_catch_up`, so
        the returned count names the exact cycle the eager loop would
        have switched on.
        """
        if not (self.adaptive and self.mode is BACKPRESSURED):
            return None
        low = self.thresholds.low
        if low <= 0.0:
            return None  # a decaying EWMA can never cross it
        if self.ewma < low:
            # wants_reverse already holds; the next step switches.
            return 1
        ewma = self.ewma
        k = 0
        for ewma in self._drain_ewmas():
            k += 1
            if ewma < low:
                return k
        alpha = self._alpha
        for k in range(k + 1, 1 << 20):
            ewma = alpha * ewma
            if ewma < low:
                return k
        return None  # pathological parameters: never sleeps on this

    # -- accounting ---------------------------------------------------------------
    def charge_residency(self, entry: RouterModeStats, through: int) -> None:
        """Charge the cycles from :attr:`charged_from` through
        ``through`` to the current mode's residency counter in
        ``entry``."""
        cycles = through + 1 - self.charged_from
        if cycles <= 0:
            return
        self.charged_from = through + 1
        if self.mode is BACKPRESSURELESS:
            entry.backpressureless_cycles += cycles
        elif self.mode is TRANSITION:
            entry.transition_cycles += cycles
        else:
            entry.backpressured_cycles += cycles
