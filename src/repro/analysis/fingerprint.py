"""What *the same run* means: one fingerprint of a finished simulation.

Two runs are the same when :func:`fingerprint` returns equal rows.  A
row (see :data:`COLUMNS`) holds the final cycle, what the source
offered, what fault handling discarded, every ``StatsCollector``
counter exactly, the p99 latency and every ``EnergyBreakdown``
component by ``float.hex``, a digest of the per-router mode statistics
and a digest of every RNG stream's final state — so an engine or a fast
path that draws one random number too many, or adds one float in
another order, differs by column name instead of drifting.

Every exact comparison in the repo goes through here: the golden grid
(``scripts/gen_goldens.py`` writes rows,
``tests/test_lowload_goldens.py`` replays them), the engine-determinism and vector-engine suites, and the
subscription-order suite.  This module is the only place that
enumerates stats fields, energy components, mode statistics and RNG
streams.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, fields
from typing import List

from ..energy.model import EnergyBreakdown

#: ``StatsCollector`` counters in the fingerprint, in column order.
STAT_FIELDS = (
    "cycles",
    "flits_injected",
    "flits_ejected",
    "packets_injected",
    "packets_completed",
    "packet_latency_sum",
    "network_latency_sum",
    "hops_sum",
    "completed_flits",
    "deflections",
    "flits_dropped",
    "dispatched_flit_hops",
)

COLUMNS: List[str] = (
    ["final_cycle", "offered_packets", "flits_discarded"]
    + list(STAT_FIELDS)
    + ["p99_packet_latency"]
    + [f.name for f in fields(EnergyBreakdown)]
    + ["mode_stats", "rng_states"]
)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _rng_states(net, source) -> list:
    """Final state of every router's stream, then the source's
    (``source.rng_streams()``: one for an open-loop source; the
    memory system's own, every core's and every bank's for the closed
    loop).

    A network still on the vector engine reports the batched
    generator's rows as they are: materialising first would route them
    through ``export_all`` and could mask a bad export.
    """
    engine = net._vector_engine
    if engine is None:
        states = [router.rng.getstate() for router in net.routers]
    else:
        states = [engine.mt.getstate(row) for row in range(engine.mt.n_rows)]
    states.extend(rng.getstate() for rng in source.rng_streams())
    return states


def fingerprint(net, source) -> list:
    """The fingerprint row of a finished run — ``net`` after the
    ``run``/``drain`` that ended it, driven by ``source`` (an open-loop
    source or a ``MemorySystem``) — in :data:`COLUMNS` order
    (JSON-stable)."""
    stats = net.stats
    energy = net.measured_energy()
    modes = sorted(
        (node, tuple(asdict(entry).items()))
        for node, entry in stats.mode_stats.items()
    )
    return (
        [net.cycle, source.offered_packets, net.flits_discarded]
        + [getattr(stats, name) for name in STAT_FIELDS]
        + [float(stats.p99_packet_latency).hex()]
        + [getattr(energy, f.name).hex() for f in fields(energy)]
        + [_digest(modes), _digest(_rng_states(net, source))]
    )


def differing(expected: list, row: list) -> List[str]:
    """Names of the columns where two fingerprint rows differ."""
    return [
        name
        for name, want, got in zip(COLUMNS, expected, row)
        if want != got
    ]
