#!/usr/bin/env python
"""Write (or check) the low-load golden fingerprints.

``tests/fixtures/lowload_goldens.json`` fences the routers' low-load
paths: every design on four meshes, two link latencies, two ejection
bandwidths and three low injection rates, 600 open-loop cycles plus a
drain.  A fingerprint holds every counter exactly — integers as they
are, floats by ``float.hex`` — plus digests of the per-router mode
statistics and of every RNG stream's final state, so a path that draws
one random number too many, or adds one float in another order, fails
by name instead of drifting.

The file is written by the commit *before* a behaviour-preserving
change and replayed by ``tests/test_lowload_goldens.py`` after it::

    PYTHONPATH=src python scripts/gen_lowload_goldens.py           # rewrite
    PYTHONPATH=src python scripts/gen_lowload_goldens.py --check   # compare
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields
from itertools import product
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDENS_PATH = REPO_ROOT / "tests" / "fixtures" / "lowload_goldens.json"

#: 2x2 is the smallest legal mesh (every router a two-port corner).
MESHES: Tuple[Tuple[int, int], ...] = ((2, 2), (4, 2), (3, 3), (8, 8))
LINK_LATENCIES = (1, 2)
EJECT_BANDWIDTHS = (1, 2)
RATES = (0.02, 0.05, 0.1)
CYCLES = 600
NET_SEED = 5
TRAFFIC_SEED = 3

#: StatsCollector counters in the fingerprint, in column order.
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


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def case_key(
    design, mesh: Tuple[int, int], latency: int, eject: int, rate: float
) -> str:
    return f"{design.value}/{mesh[0]}x{mesh[1]}/L{latency}/E{eject}/{rate}"


def cases() -> Iterator[tuple]:
    from repro import Design

    return product(Design, MESHES, LINK_LATENCIES, EJECT_BANDWIDTHS, RATES)


def columns() -> List[str]:
    from repro.energy.model import EnergyBreakdown

    return (
        ["final_cycle", "offered_packets", "flits_discarded"]
        + list(STAT_FIELDS)
        + ["p99_packet_latency"]
        + [f.name for f in fields(EnergyBreakdown)]
        + ["mode_stats", "rng_states"]
    )


def fingerprint(
    design, mesh: Tuple[int, int], latency: int, eject: int, rate: float
) -> list:
    """Run one case and return its fingerprint row (see :func:`columns`)."""
    from repro import Network, NetworkConfig
    from repro.network.flit import reset_packet_ids
    from repro.traffic.synthetic import uniform_random_traffic

    reset_packet_ids()
    config = NetworkConfig(
        width=mesh[0],
        height=mesh[1],
        link_latency=latency,
        eject_bandwidth=eject,
    )
    net = Network(config, design, seed=NET_SEED)
    source = uniform_random_traffic(net, rate, seed=TRAFFIC_SEED)
    source.run(CYCLES)
    net.drain()
    net.check_flit_conservation()
    stats = net.stats
    energy = net.measured_energy()
    modes = sorted(
        (node, tuple(asdict(entry).items()))
        for node, entry in stats.mode_stats.items()
    )
    rng_states = [router.rng.getstate() for router in net.routers]
    rng_states.append(source.rng.getstate())
    return (
        [net.cycle, source.offered_packets, net.flits_discarded]
        + [getattr(stats, name) for name in STAT_FIELDS]
        + [float(stats.p99_packet_latency).hex()]
        + [getattr(energy, f.name).hex() for f in fields(energy)]
        + [_digest(modes), _digest(rng_states)]
    )


def generate() -> Dict[str, object]:
    return {
        "columns": columns(),
        "cases": {case_key(*case): fingerprint(*case) for case in cases()},
    }


def load() -> Dict[str, object]:
    return json.loads(GOLDENS_PATH.read_text())


def render(goldens: Dict[str, object]) -> str:
    """One case per line: diffs of a re-pin stay readable."""
    rows = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(row)}"
        for key, row in goldens["cases"].items()
    )
    return (
        '{"columns": '
        + json.dumps(goldens["columns"])
        + ',\n "cases": {\n'
        + rows
        + "\n}}\n"
    )


def mismatches(golden: Dict[str, object], key: str, row: list) -> List[str]:
    """Names of the columns where ``row`` differs from the archive."""
    expected = golden["cases"][key]
    return [
        name
        for name, want, got in zip(golden["columns"], expected, row)
        if want != got
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed file instead of rewriting it",
    )
    args = parser.parse_args(argv)
    if not args.check:
        goldens = generate()
        GOLDENS_PATH.write_text(render(goldens))
        print(f"wrote {len(goldens['cases'])} cases to {GOLDENS_PATH}")
        return 0
    golden = load()
    bad = 0
    for case in cases():
        key = case_key(*case)
        differing = mismatches(golden, key, fingerprint(*case))
        if differing:
            bad += 1
            print(f"{key}: differs in {', '.join(differing)}")
    print(f"{bad} of {len(golden['cases'])} cases differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
