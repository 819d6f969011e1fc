"""The paper's six workloads as closed-loop profiles (Table III).

The paper runs Apache, OLTP (TPC-C/PostgreSQL) and SPECjbb as
high-load commercial workloads and Barnes, Ocean and Water (SPLASH-2)
as low-load scientific workloads on a simulated 9-core CMP.  What the
*network* sees from each workload is characterised by its offered load
(Table III's measured injection rate, flits/node/cycle) and its
coherence mix (read/write, sharing, dirty writebacks).  A
:class:`WorkloadProfile` captures exactly those characteristics and
drives :class:`repro.memsys.MemorySystem`.

``demand_rate`` (L1 misses per core per cycle when unthrottled) is
calibrated so that the *baseline backpressured* network measures an
injection rate close to the paper's value for that workload — see
``benchmarks/bench_table3_injection.py`` for the verification and
EXPERIMENTS.md for measured values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Tuple

from ..domain import Integer, Real, validate

#: A probability, and a non-negative rate or count.
_FRACTION = Real(0.0, 1.0)
_RATE = Real(0.0)


@dataclass(frozen=True)
class WorkloadProfile:
    """Closed-loop traffic characteristics of one benchmark."""

    name: str
    description: str
    #: L1 misses issued per core per cycle when the core is unthrottled.
    demand_rate: float = _RATE.field()
    #: Fraction of misses that are writes (GETX rather than GETS).
    write_fraction: float = _FRACTION.field()
    #: Fraction of remote requests served by a 3-hop owner forward.
    sharing_fraction: float = _FRACTION.field()
    #: Probability that a completed fill evicts a dirty line (writeback).
    dirty_writeback_fraction: float = _FRACTION.field()
    #: Injection rate the paper measured (flits/node/cycle, Table III).
    paper_injection_rate: float = _RATE.field()
    #: High-load (commercial) or low-load (scientific) class.
    high_load: bool
    #: Temporal load variation ("program phases", Section I): demand is
    #: modulated by ``1 + amplitude * sin(2*pi*cycle/period)``.  A zero
    #: period disables modulation (the calibrated default for the six
    #: paper workloads).  Use :func:`with_phases` to add phases to an
    #: existing profile.
    phase_period: int = Integer(0).field(0)
    phase_amplitude: float = Real(0.0, 1.0, open_high=True).field(0.0)
    #: Mean number of sharers invalidated by a (non-forwarded) write
    #: miss.  Zero (the calibrated default) disables the invalidation
    #: protocol extension; positive values make writes wait for
    #: INV_ACKs, adding control-network traffic and write latency.
    invalidation_fanout: float = _RATE.field(0.0)

    def __post_init__(self) -> None:
        validate(self)

    def demand_at(self, cycle: int) -> float:
        """Effective miss demand at ``cycle`` (phase-modulated)."""
        # __post_init__ validates amplitude into [0, 1), so <= 0.0 is the
        # exact "phases disabled" test without a float equality.
        if self.phase_period <= 0 or self.phase_amplitude <= 0.0:
            return self.demand_rate
        swing = math.sin(2.0 * math.pi * cycle / self.phase_period)
        return self.demand_rate * (1.0 + self.phase_amplitude * swing)


def with_phases(
    profile: "WorkloadProfile", period: int, amplitude: float
) -> "WorkloadProfile":
    """A copy of ``profile`` with sinusoidal demand phases added."""
    return replace(
        profile, phase_period=period, phase_amplitude=amplitude
    )


APACHE = WorkloadProfile(
    name="apache",
    description=(
        "Static web serving (Apache 2.2.9 + SURGE, 4500 clients); the "
        "heaviest network load of the suite."
    ),
    demand_rate=0.0400,
    write_fraction=0.30,
    sharing_fraction=0.25,
    dirty_writeback_fraction=0.35,
    paper_injection_rate=0.78,
    high_load=True,
)

OLTP = WorkloadProfile(
    name="oltp",
    description=(
        "TPC-C on PostgreSQL (DBT-2, 25k warehouses, 300 connections); "
        "write-heavy transactional mix."
    ),
    demand_rate=0.0270,
    write_fraction=0.40,
    sharing_fraction=0.30,
    dirty_writeback_fraction=0.40,
    paper_injection_rate=0.68,
    high_load=True,
)

SPECJBB = WorkloadProfile(
    name="specjbb",
    description=(
        "SPECjbb2005 (90 warehouses, parallel GC); middle-tier Java "
        "server load."
    ),
    demand_rate=0.0380,
    write_fraction=0.35,
    sharing_fraction=0.20,
    dirty_writeback_fraction=0.30,
    paper_injection_rate=0.77,
    high_load=True,
)

BARNES = WorkloadProfile(
    name="barnes",
    description="SPLASH-2 Barnes-Hut N-body (512 particles, 8 threads).",
    demand_rate=0.0046,
    write_fraction=0.25,
    sharing_fraction=0.15,
    dirty_writeback_fraction=0.15,
    paper_injection_rate=0.10,
    high_load=False,
)

OCEAN = WorkloadProfile(
    name="ocean",
    description=(
        "SPLASH-2 Ocean (34x34 grid, contiguous partitions, 8 threads); "
        "the heaviest of the scientific workloads."
    ),
    demand_rate=0.0088,
    write_fraction=0.35,
    sharing_fraction=0.10,
    dirty_writeback_fraction=0.30,
    paper_injection_rate=0.19,
    high_load=False,
)

WATER = WorkloadProfile(
    name="water",
    description=(
        "SPLASH-2 Water-nsquared (64 molecules, one time step, 8 "
        "threads); the lightest network load."
    ),
    demand_rate=0.0044,
    write_fraction=0.25,
    sharing_fraction=0.15,
    dirty_writeback_fraction=0.10,
    paper_injection_rate=0.09,
    high_load=False,
)

#: All six paper workloads by name.
WORKLOADS: Dict[str, WorkloadProfile] = {
    w.name: w for w in (APACHE, OLTP, SPECJBB, BARNES, OCEAN, WATER)
}

HIGH_LOAD_WORKLOADS: Tuple[WorkloadProfile, ...] = (APACHE, OLTP, SPECJBB)
LOW_LOAD_WORKLOADS: Tuple[WorkloadProfile, ...] = (BARNES, OCEAN, WATER)
