"""Per-event energy model and accounting.

Event energies are expressed per *effective* bit: dynamic energy is
driven by toggling, and the control fields of a flit (destination, VC,
sequence number) toggle far less often than its data payload, so a flit
of ``data_bits + control_bits`` costs
``data_bits + control_activity * control_bits`` effective bits per
event.  This matters for the comparison in the paper: AFC's flits are 8
bits (~20 %) wider than the baseline's, yet its high-load energy lands
within 2–3 % of the baseline (Figure 2(d)) — which is only consistent
with control bits carrying a low activity factor.

Dynamic energy is activity counts times per-event energies, as in
Orion: routers count events on the meter and the meter multiplies the
counts out when it is read.  Leakage, by contrast, scales with the
*physical* bit count of the buffers (every cell leaks whether or not it
toggles), integrated every cycle.  AFC power-gates its buffers in
backpressureless mode at 90 % effectiveness (Section IV).

Default constants are calibrated (see DESIGN.md, "Energy widths") so
that the baseline's low-load buffer energy share sits in the paper's
stated 30–40 % band; absolute joules are not meaningful, ratios are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Iterable, List, Sequence, Tuple

from ..network.config import CONTROL_BITS, Design, NetworkConfig
from ..network.energy_hooks import EnergyMeter


@dataclass(frozen=True)
class EnergyParameters:
    """Per-event energies (pJ) and leakage (pJ/cycle) at the paper's
    technology point (70 nm, 1.0 V, 3 GHz, 2.5 mm links)."""

    buffer_write_pj_per_bit: float = 0.030
    buffer_read_pj_per_bit: float = 0.030
    crossbar_pj_per_bit: float = 0.060
    link_pj_per_bit: float = 0.400
    latch_pj_per_bit: float = 0.010
    arbiter_pj: float = 0.50
    credit_pj: float = 0.20
    buffer_leak_pj_per_bit_cycle: float = 4.6e-4
    logic_leak_pj_per_port_cycle: float = 0.94
    #: Switching-activity factor of control bits relative to data bits.
    control_activity: float = 0.30
    #: Fraction of buffer leakage removed by coarse power gating.
    power_gating_effectiveness: float = 0.90

    def __post_init__(self) -> None:
        for name in _ENERGY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # false for NaN too
                raise ValueError(
                    f"{name} must be a finite energy >= 0 (got {value!r}): "
                    "it prices every event of its kind"
                )
        if not 0.0 <= self.control_activity <= 1.0:
            raise ValueError("control_activity must be in [0, 1]")
        if not 0.0 <= self.power_gating_effectiveness <= 1.0:
            raise ValueError("power_gating_effectiveness must be in [0, 1]")


#: The per-event energy and leakage fields of :class:`EnergyParameters`.
_ENERGY_FIELDS = (
    "buffer_write_pj_per_bit",
    "buffer_read_pj_per_bit",
    "crossbar_pj_per_bit",
    "link_pj_per_bit",
    "latch_pj_per_bit",
    "arbiter_pj",
    "credit_pj",
    "buffer_leak_pj_per_bit_cycle",
    "logic_leak_pj_per_port_cycle",
)


DEFAULT_ENERGY_PARAMETERS = EnergyParameters()


@dataclass
class EnergyBreakdown:
    """Accumulated network energy by component, in pJ.

    Figure 3's three-way split maps to :attr:`buffer` (dynamic +
    static), :attr:`link`, and :attr:`other` (crossbar, arbiters,
    latches, credit signalling, and router logic leakage).
    """

    buffer_dynamic: float = 0.0
    buffer_static: float = 0.0
    link: float = 0.0
    crossbar: float = 0.0
    arbiter: float = 0.0
    latch: float = 0.0
    credit: float = 0.0
    logic_static: float = 0.0

    @property
    def buffer(self) -> float:
        return self.buffer_dynamic + self.buffer_static

    @property
    def other(self) -> float:
        return (
            self.crossbar
            + self.arbiter
            + self.latch
            + self.credit
            + self.logic_static
        )

    @property
    def total(self) -> float:
        return self.buffer + self.link + self.other

    def snapshot(self) -> "EnergyBreakdown":
        return replace(self)

    def minus(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        """Component-wise difference (for measurement windows)."""
        return EnergyBreakdown(
            buffer_dynamic=self.buffer_dynamic - other.buffer_dynamic,
            buffer_static=self.buffer_static - other.buffer_static,
            link=self.link - other.link,
            crossbar=self.crossbar - other.crossbar,
            arbiter=self.arbiter - other.arbiter,
            latch=self.latch - other.latch,
            credit=self.credit - other.credit,
            logic_static=self.logic_static - other.logic_static,
        )


@dataclass
class _CountedBreakdown(EnergyBreakdown):
    """A meter snapshot: the totals at one instant plus the event counts
    behind them, so :meth:`OrionEnergyMeter.since` prices a window's
    own counts instead of subtracting two priced totals."""

    counts: Tuple[int, ...] = ()


class OrionEnergyMeter(EnergyMeter):
    """Prices router micro-event counts for one design's flit geometry.

    Dynamic energy is a function of the integer counts routers keep on
    the meter: :attr:`totals` multiplies each count by its per-event
    energy when it is read.  Leakage is integrated every cycle into the
    float sums :attr:`buffer_static` and :attr:`logic_static`.

    ``ideal_bypass`` realises the paper's "Backpressured ideal-bypass"
    bound: timing is untouched, but all buffer *dynamic* energy is
    elided from the accounting (leakage remains — that is the point of
    the bound).
    """

    def __init__(
        self,
        config: NetworkConfig,
        design: Design,
        params: EnergyParameters = DEFAULT_ENERGY_PARAMETERS,
    ) -> None:
        super().__init__()
        self.config = config
        self.design = design
        self.params = params
        self.ideal_bypass = design is Design.BACKPRESSURED_IDEAL_BYPASS
        control = CONTROL_BITS[design]
        #: Toggled bits per flit event.
        self.effective_bits = bits = (
            config.data_bits + params.control_activity * control
        )
        #: Physical bits per flit (leakage, area).
        self.physical_bits = config.data_bits + control
        #: Energy of one flit event of each kind (pJ).
        self.write_pj = params.buffer_write_pj_per_bit * bits
        self.read_pj = params.buffer_read_pj_per_bit * bits
        self.crossbar_pj = params.crossbar_pj_per_bit * bits
        self.link_pj = params.link_pj_per_bit * bits
        self.latch_pj = params.latch_pj_per_bit * bits
        #: Leakage integrated so far (pJ), one add per simulated cycle.
        self.buffer_static = 0.0
        self.logic_static = 0.0

    # -- pricing ------------------------------------------------------------
    def _price(
        self, counts: Tuple[int, ...], buffer_static: float, logic_static: float
    ) -> EnergyBreakdown:
        writes, reads, crossings, links, arbitrations, latches, credits = counts
        params = self.params
        return EnergyBreakdown(
            buffer_dynamic=(
                0.0
                if self.ideal_bypass
                else writes * self.write_pj + reads * self.read_pj
            ),
            buffer_static=buffer_static,
            link=links * self.link_pj,
            crossbar=crossings * self.crossbar_pj,
            arbiter=arbitrations * params.arbiter_pj,
            latch=latches * self.latch_pj,
            credit=credits * params.credit_pj,
            logic_static=logic_static,
        )

    @property
    def totals(self) -> EnergyBreakdown:
        """Energy accumulated since construction, priced now."""
        return self._price(self.counts(), self.buffer_static, self.logic_static)

    # -- static integration ------------------------------------------------------
    def static_cycle(self, routers: Iterable) -> None:
        leak_per_bit = self.params.buffer_leak_pj_per_bit_cycle
        gating = self.params.power_gating_effectiveness
        buffer_leak = 0.0
        logic_leak = 0.0
        for router in routers:
            bits = router.buffer_capacity_flits * self.physical_bits
            if bits:
                scale = (1.0 - gating) if router.buffers_power_gated else 1.0
                buffer_leak += bits * leak_per_bit * scale
            ports = len(router.in_channels) + 1  # + local port
            logic_leak += ports * self.params.logic_leak_pj_per_port_cycle
        self.buffer_static += buffer_leak
        self.logic_static += logic_leak

    # -- measurement windows --------------------------------------------------------
    def snapshot(self) -> EnergyBreakdown:
        return _CountedBreakdown(**vars(self.totals), counts=self.counts())

    def since(self, snapshot: EnergyBreakdown) -> EnergyBreakdown:
        """Energy since ``snapshot`` (taken by :meth:`snapshot`): the
        window's own event counts priced, plus its leakage."""
        return self._price(
            tuple(
                now - then
                for now, then in zip(self.counts(), snapshot.counts)
            ),
            self.buffer_static - snapshot.buffer_static,
            self.logic_static - snapshot.logic_static,
        )


class StaticEnergyCache:
    """Incremental replacement for :meth:`OrionEnergyMeter.static_cycle`.

    The per-cycle static integral only changes when some router's
    power-gating state flips, so the active-set cycle engine keeps the
    per-router leakage contributions cached and re-sums them only when a
    router reported a flip.  A router whose gating can flip
    (``gating_can_flip``) gets an ``on_gating_flip`` hook that appends
    its slot to :attr:`_flipped` (it captures that list and an int, so
    no router refers back to this cache); :meth:`tick` re-reads those
    routers' gating and clears the list.  Bit-identity with the eager
    loop holds because each cached contribution is the very float
    ``bits * leak_per_bit * scale`` the eager loop would add (``x * 1.0
    == x`` covers the ungated case) and the re-sum accumulates them in
    the same router order from the same ``0.0`` start.
    """

    def __init__(self, meter: OrionEnergyMeter, routers: Sequence) -> None:
        self._meter = meter
        params = meter.params
        leak = params.buffer_leak_pj_per_bit_cycle
        gated_scale = 1.0 - params.power_gating_effectiveness
        #: slot -> the router whose gating fills it, for the routers
        #: whose gating can flip; fixed contributions have no entry.
        self._flippable: Dict[int, object] = {}
        #: Slots reported by their routers since the last tick.
        self._flipped: List[int] = []
        #: per-slot (ungated, gated) contribution; indexed by the bool.
        self._pairs: List[Tuple[float, float]] = []
        self._gated: List[bool] = []
        self._vals: List[float] = []
        logic_leak = 0.0
        for router in routers:
            bits = router.buffer_capacity_flits * meter.physical_bits
            if bits:
                base = bits * leak
                slot = len(self._vals)
                if router.gating_can_flip:
                    self._flippable[slot] = router
                    router.on_gating_flip = partial(self._flipped.append, slot)
                self._pairs.append((base, base * gated_scale))
                gated = bool(router.buffers_power_gated)
                self._gated.append(gated)
                self._vals.append(self._pairs[-1][gated])
            ports = len(router.in_channels) + 1  # + local port
            logic_leak += ports * params.logic_leak_pj_per_port_cycle
        self._logic = logic_leak
        self._sum = sum(self._vals, 0.0)

    def tick(self) -> None:
        """Integrate one cycle (after every router's step of it)."""
        flipped = self._flipped
        if flipped:
            dirty = False
            for slot in flipped:
                gated = bool(self._flippable[slot].buffers_power_gated)
                if gated != self._gated[slot]:
                    self._gated[slot] = gated
                    self._vals[slot] = self._pairs[slot][gated]
                    dirty = True
            flipped.clear()
            if dirty:
                self._sum = sum(self._vals, 0.0)
        meter = self._meter
        meter.buffer_static += self._sum
        meter.logic_static += self._logic
