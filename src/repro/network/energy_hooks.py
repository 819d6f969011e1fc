"""Energy-metering hook interface.

Routers count their micro-events (buffer writes/reads, crossbar and
link traversals, arbitration, latch writes, credit signalling) on an
:class:`EnergyMeter`: integer counters they add to once per step, the
way Orion's activity counts work.  Pricing the counts is the real
meter's business (:mod:`repro.energy`); the :class:`NullEnergyMeter`
here lets the network run without energy accounting (e.g. in unit
tests) — it counts, and never prices.

Keeping the hook interface in the network package (rather than the
energy package) means ``repro.energy`` depends on ``repro.network`` and
not the other way around.
"""

from __future__ import annotations

from typing import Tuple


class EnergyMeter:
    """Event counters plus the per-event reporting interface.

    Routers add to the counters directly, once per step wherever the
    step has the count at hand.  The seven per-event methods add one
    report's ``flits`` / ``requests`` / ``messages`` to their counter;
    the rare paths (mode notices, occupancy debits, NACKs) call them.
    ``node`` identifies the reporting router and is not recorded.
    """

    #: The counters, in the order :meth:`counts` returns them.
    COUNTERS = (
        "writes",
        "reads",
        "crossings",
        "links",
        "arbitrations",
        "latches",
        "credits",
    )

    def __init__(self) -> None:
        #: Flits written into an input-buffer SRAM.
        self.writes = 0
        #: Flits read out of an input-buffer SRAM.
        self.reads = 0
        #: Flits traversing a switch (to a link or the ejection port).
        self.crossings = 0
        #: Flits driven onto an inter-router link.
        self.links = 0
        #: Switch/VC arbitration requests.
        self.arbitrations = 0
        #: Flits captured in a pipeline latch (deflection-mode input).
        self.latches = 0
        #: Credit/control backflow messages.
        self.credits = 0

    def counts(self) -> Tuple[int, ...]:
        """The counters, in :data:`COUNTERS` order."""
        return tuple(getattr(self, name) for name in self.COUNTERS)

    def buffer_write(self, node: int, flits: int = 1) -> None:
        """Flit written into an input-buffer SRAM."""
        self.writes += flits

    def buffer_read(self, node: int, flits: int = 1) -> None:
        """Flit read out of an input-buffer SRAM."""
        self.reads += flits

    def crossbar(self, node: int, flits: int = 1) -> None:
        """Flit traversing the switch."""
        self.crossings += flits

    def arbiter(self, node: int, requests: int = 1) -> None:
        """Switch/VC arbitration activity."""
        self.arbitrations += requests

    def link(self, node: int, flits: int = 1) -> None:
        """Flit driven onto an inter-router link."""
        self.links += flits

    def latch(self, node: int, flits: int = 1) -> None:
        """Flit captured in a pipeline latch (deflection-mode input)."""
        self.latches += flits

    def credit(self, node: int, messages: int = 1) -> None:
        """Credit/control backflow signalling."""
        self.credits += messages

    def static_cycle(self, routers) -> None:
        """Integrate one cycle of leakage over all routers.  Called once
        per simulated cycle by the network."""


class NullEnergyMeter(EnergyMeter):
    """Explicit count-only meter (identical to the base; named for
    readability at call sites)."""
