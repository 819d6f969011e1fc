"""AFC mode state machine and load estimation.

Each AFC router owns one :class:`ModeController`.  Every cycle the
router reports how many flits traversed its switch; the controller
averages that over a 4-cycle window, smooths the average with an EWMA
(``m_new = alpha * m_old + (1 - alpha) * window_average``, alpha = 0.99,
Section IV), and compares it against the router's hysteresis thresholds.

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
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional

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
        "link_latency",
        "adaptive",
        "mode",
        "ewma",
        "_window",
        "_window_len",
        "_load",
        "_alpha",
        "backpressured_from",
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
        self.link_latency = link_latency
        self.adaptive = adaptive
        self.mode = initial_mode
        self.ewma = 0.0
        #: The last ``_window_len`` cycles' switch traversals, oldest
        #: first: a handful of ints, so a plain list trimmed with
        #: ``pop(0)`` rather than a ``deque(maxlen=...)`` and its 64-slot
        #: block.
        self._window: List[int] = []
        self._window_len = load_window
        #: Running ``sum(_window)``: the same int, without a re-sum per
        #: cycle.
        self._load = 0
        self._alpha = ewma_alpha
        #: First cycle of backpressured operation for an in-progress
        #: forward switch.
        self.backpressured_from: Optional[int] = None

    # -- load tracking ------------------------------------------------------
    def record_load(self, switch_traversals: int) -> None:
        """Report this cycle's switch traversals and update the EWMA."""
        window = self._window
        load = self._load + switch_traversals
        window.append(switch_traversals)
        if len(window) > self._window_len:
            load -= window.pop(0)
        self._load = load
        window_avg = load / len(window)
        self.ewma = self._alpha * self.ewma + (1.0 - self._alpha) * window_avg

    # -- transition window ------------------------------------------------------
    @property
    def transition_window(self) -> int:
        """Cycles between a forward-switch trigger and backpressured
        operation (2L + 1, see module docstring)."""
        return 2 * self.link_latency + 1

    def maybe_complete_forward(self, cycle: int) -> None:
        """Enter backpressured mode once the transition window elapsed."""
        if (
            self.mode is TRANSITION
            and self.backpressured_from is not None
            and cycle >= self.backpressured_from
        ):
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
    # A quiescent router's only per-cycle state changes are (a) the EWMA
    # decay performed by ``record_load(0)`` and (b) the residency tick.
    # The three helpers below let the cycle engine skip such routers and
    # replay that bookkeeping in a batch, *bit-identically*: the catch-up
    # loop evaluates exactly the same floating-point expression per
    # skipped cycle as the eager path would have.

    def idle_stable(self) -> bool:
        """True when further idle cycles decay the EWMA purely
        geometrically: the load window holds only zeros, so each idle
        ``record_load(0)`` computes ``ewma = alpha * ewma + (1 - alpha)
        * 0.0`` — reproducible later without stepping the router."""
        return not any(self._window)

    def _drain_ewmas(self):
        """Successive EWMA values for idle ``record_load(0)`` cycles
        until the load window is all zeros (at most ``maxlen`` values),
        evaluating the exact per-cycle expression on copies.  Mutates
        nothing."""
        win = list(self._window)
        maxlen = self._window_len
        alpha = self._alpha
        ewma = self.ewma
        while any(win):
            win.append(0)
            if len(win) > maxlen:
                win.pop(0)
            ewma = alpha * ewma + (1.0 - alpha) * (sum(win) / len(win))
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
        high = self.thresholds.high
        if self.ewma > high:
            return False
        window = self._window
        total = self._load
        if total == 0:
            return True  # pure decay, never rises
        # Cheap sound bound before the exact replay: every replayed EWMA
        # is a convex combination of the current EWMA and per-cycle
        # window averages; each average divides a non-increasing sum
        # (zeros push samples out) by the smallest window length the
        # replay can see, so max(ewma, total/denom) bounds them all.
        maxlen = self._window_len
        n = len(window)
        denom = n + 1 if n < maxlen else maxlen
        if total / denom <= high:
            return True
        for ewma in self._drain_ewmas():
            if ewma > high:
                return False
        return True

    def idle_catch_up(self, cycles: int, entry: RouterModeStats) -> None:
        """Replay ``cycles`` idle cycles of bookkeeping in a batch.

        Must only be called when the mode cannot have changed while
        asleep (the engine guarantees it).  Replays the exact per-cycle
        EWMA update so the result is bit-identical to ``cycles`` eager
        ``record_load(0)`` calls — including the window-drain cycles
        where the load window still holds non-zero samples — and
        charges the residency counters in one add.
        """
        if cycles <= 0:
            return
        alpha = self._alpha
        window = self._window
        maxlen = self._window_len
        ewma = self.ewma
        remaining = cycles
        # Drain phase: until the window is all zeros (≤ maxlen appends)
        # each cycle's average still depends on the shifting contents.
        while remaining > 0 and any(window):
            window.append(0)
            if len(window) > maxlen:
                del window[0]
            window_avg = sum(window) / len(window)
            ewma = alpha * ewma + (1.0 - alpha) * window_avg
            remaining -= 1
        if remaining > 0:
            pad = min(remaining, maxlen - len(window))
            if pad > 0:
                window.extend([0] * pad)
            # Identical expression to record_load(0): sum of an all-zero
            # window divided by its (int) length is exactly 0.0.
            window_avg = sum(window) / len(window)
            beta = (1.0 - alpha) * window_avg
            for _ in range(remaining):
                ewma = alpha * ewma + beta
        self.ewma = ewma
        self._load = sum(window)
        if self.mode is BACKPRESSURELESS:
            entry.backpressureless_cycles += cycles
        elif self.mode is TRANSITION:
            entry.transition_cycles += cycles
        else:
            entry.backpressured_cycles += cycles

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
        beta = (1.0 - alpha) * 0.0  # exactly what record_load(0) adds
        for k in range(k + 1, 1 << 20):
            ewma = alpha * ewma + beta
            if ewma < low:
                return k
        return None  # pathological parameters: never sleeps on this

    # -- accounting ---------------------------------------------------------------
    def tick_residency(self, entry: RouterModeStats) -> None:
        """Charge this cycle to the current mode's residency counter."""
        if self.mode is BACKPRESSURELESS:
            entry.backpressureless_cycles += 1
        elif self.mode is TRANSITION:
            entry.transition_cycles += 1
        else:
            entry.backpressured_cycles += 1
