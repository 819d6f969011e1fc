#!/usr/bin/env python
"""Write (or check) the golden fingerprint grid.

``tests/fixtures/goldens.json`` is the behaviour fence: one
:func:`repro.analysis.fingerprint.fingerprint` row per case, and two
trees behave the same when every row is equal.  The grid is

* **low load** — every design on four meshes, two link latencies, two
  ejection bandwidths and three low injection rates, 600 open-loop
  cycles plus a drain (the routers' low-load paths);
* **saturated** — the three paper designs on 8x8 at 0.4 / 0.6 / 0.8
  with a bounded source queue, 300 cycles plus a drain (every router
  busy every cycle: deflection fallback rows, AFC's credit-masked
  allocation, switch allocation under full contention);
* **closed loop** (the ``closed_loop`` section) — every Fig. 2 workload
  under every paper design on the default 3x3 CMP, a short warmup, then
  ``begin_measurement`` and a few hundred measured cycles, with the
  ``MemorySystem`` as the source: its ``rng_states`` cover the memory
  system's, every core's and every bank's stream, so the rows pin that
  memsys draws, admits and completes exactly as before.

The file is written by the commit *before* a behaviour-preserving
change and replayed by ``tests/test_lowload_goldens.py`` after it::

    PYTHONPATH=src python scripts/gen_goldens.py           # rewrite
    PYTHONPATH=src python scripts/gen_goldens.py --check   # compare
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from pathlib import Path
from typing import Dict, Iterator, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDENS_PATH = REPO_ROOT / "tests" / "fixtures" / "goldens.json"

#: 2x2 is the smallest legal mesh (every router a two-port corner).
MESHES: Tuple[Tuple[int, int], ...] = ((2, 2), (4, 2), (3, 3), (8, 8))
LINK_LATENCIES = (1, 2)
EJECT_BANDWIDTHS = (1, 2)
RATES = (0.02, 0.05, 0.1)
CYCLES = 600
NET_SEED = 5
TRAFFIC_SEED = 3

#: The saturated rows: past every design's knee, on the paper's
#: default link latency and ejection bandwidth.
SATURATED_DESIGNS = ("backpressured", "backpressureless", "afc")
SATURATED_MESH = (8, 8)
SATURATED_RATES = (0.4, 0.6, 0.8)
SATURATED_CYCLES = 300
#: Per-node source-queue bound, in flits: keeps the drain (and the
#: tier-1 bill) proportional to the run, not to the overload.
SATURATED_QUEUE_LIMIT = 60

CLOSED_WARMUP = 100
CLOSED_CYCLES = 300


def case_key(
    design, mesh: Tuple[int, int], latency: int, eject: int, rate: float
) -> str:
    return f"{design.value}/{mesh[0]}x{mesh[1]}/L{latency}/E{eject}/{rate}"


def cases() -> Iterator[tuple]:
    """Every ``(design, mesh, latency, eject, rate)`` of the grid, each
    design's low-load block followed by its saturated rows."""
    from repro import Design, NetworkConfig

    default = NetworkConfig()
    for design in Design:
        yield from product(
            [design], MESHES, LINK_LATENCIES, EJECT_BANDWIDTHS, RATES
        )
        if design.value in SATURATED_DESIGNS:
            for rate in SATURATED_RATES:
                yield (
                    design,
                    SATURATED_MESH,
                    default.link_latency,
                    default.eject_bandwidth,
                    rate,
                )


def run_case(
    design, mesh: Tuple[int, int], latency: int, eject: int, rate: float
) -> list:
    """Run one case and return its fingerprint row."""
    from repro import Network, NetworkConfig
    from repro.analysis.fingerprint import fingerprint
    from repro.network.flit import reset_packet_ids
    from repro.traffic.synthetic import uniform_random_traffic

    saturated = rate in SATURATED_RATES
    reset_packet_ids()
    config = NetworkConfig(
        width=mesh[0],
        height=mesh[1],
        link_latency=latency,
        eject_bandwidth=eject,
    )
    net = Network(config, design, seed=NET_SEED)
    source = uniform_random_traffic(
        net,
        rate,
        seed=TRAFFIC_SEED,
        source_queue_limit=SATURATED_QUEUE_LIMIT if saturated else None,
    )
    source.run(SATURATED_CYCLES if saturated else CYCLES)
    net.drain()
    net.check_flit_conservation()
    return fingerprint(net, source)


def closed_cases() -> Iterator[tuple]:
    """Every ``(workload name, design)`` of the closed-loop grid."""
    from repro.harness import MAIN_DESIGNS
    from repro.traffic.workloads import WORKLOADS

    return product(WORKLOADS, MAIN_DESIGNS)


def closed_key(workload: str, design) -> str:
    return f"{workload}/{design.value}"


def run_closed_case(workload: str, design) -> list:
    """Run one closed-loop case and return its fingerprint row."""
    from repro import Network, NetworkConfig
    from repro.analysis.fingerprint import fingerprint
    from repro.memsys.system import MemorySystem
    from repro.network.flit import reset_packet_ids
    from repro.traffic.workloads import WORKLOADS

    reset_packet_ids()
    net = Network(NetworkConfig(), design, seed=NET_SEED)
    system = MemorySystem(net, WORKLOADS[workload], seed=TRAFFIC_SEED)
    system.run(CLOSED_WARMUP)
    system.begin_measurement()
    system.run(CLOSED_CYCLES)
    return fingerprint(net, system)


def generate() -> Dict[str, object]:
    from repro.analysis.fingerprint import COLUMNS

    return {
        "columns": COLUMNS,
        "cases": {case_key(*case): run_case(*case) for case in cases()},
        "closed_loop": {
            closed_key(*case): run_closed_case(*case)
            for case in closed_cases()
        },
    }


def load() -> Dict[str, object]:
    return json.loads(GOLDENS_PATH.read_text())


def render(goldens: Dict[str, object]) -> str:
    """One case per line: diffs of a re-pin stay readable."""

    def rows(section: str) -> str:
        return ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(row)}"
            for key, row in goldens[section].items()
        )

    return (
        '{"columns": '
        + json.dumps(goldens["columns"])
        + ',\n "cases": {\n'
        + rows("cases")
        + '\n},\n "closed_loop": {\n'
        + rows("closed_loop")
        + "\n}}\n"
    )


def main(argv=None) -> int:
    from repro.analysis.fingerprint import differing

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
        print(
            f"wrote {len(goldens['cases'])} + {len(goldens['closed_loop'])} "
            f"cases to {GOLDENS_PATH}"
        )
        return 0
    golden = load()
    runs = [
        (golden["cases"], case_key(*case), run_case, case)
        for case in cases()
    ] + [
        (golden["closed_loop"], closed_key(*case), run_closed_case, case)
        for case in closed_cases()
    ]
    bad = 0
    for rows, key, run, case in runs:
        columns = differing(rows[key], run(*case))
        if columns:
            bad += 1
            print(f"{key}: differs in {', '.join(columns)}")
    print(
        f"{bad} of {len(golden['cases'])} + {len(golden['closed_loop'])} "
        "cases differ"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
