#!/usr/bin/env python
"""Python calls per flit hop and per router built, and bytes per router
built: a noise-free cost gate.

Wall-clock gates on shared runners need a wide floor (CI's
``BENCH_MIN_RATIO`` is 0.6) and cannot see a 20 % loss.  The number of
python-level function calls a fixed-seed run makes is exact, repeats on
any machine, and moves whenever per-flit or per-cycle work is added to
the routers — so it is archived per design and load and checked with a
tight bound::

    PYTHONPATH=src python scripts/call_budget.py           # rewrite archive
    PYTHONPATH=src python scripts/call_budget.py --check   # CI gate (+-5 %)

``--check`` also holds ``afc`` @ 0.05 to at most 1.15x the calls of
``backpressureless`` @ 0.05: AFC's deflection mode should cost what the
deflection router costs plus its load bookkeeping.

Each open-loop row runs one design on an 8x8 mesh for 300 open-loop
cycles; each closed-loop row runs one paper design on the default 3x3
CMP under the ``apache`` workload for 1 500 cycles (Fig. 2's loop:
memsys, NI and every router family).  The run happens under
``sys.setprofile`` and the ``call`` events (python functions and
generator resumptions; C functions are not counted) are divided by the
flit hops the run dispatched.

Each construction row builds ``Network(NetworkConfig(width=w,
height=w), design)`` for one datapath at w = 8 and w = 16 and divides
the calls by the w x w routers built.  Every ``functools`` cache of the
loaded ``repro`` modules (route tables, port tables, interned credits)
is emptied first, so a row counts the tables construction fills and
repeats exactly whatever ran before it.

Each memory row empties the same caches, builds the same network once
to refill them, runs ``gc.collect()`` (which also empties CPython's
free lists, so every object of the next build is a fresh allocation),
then builds it again under ``tracemalloc`` and divides the bytes still
allocated while that second network is alive by its routers: what one
more network costs the host before it holds a flit (the route and port
tables it shares with every network of its mesh are left out).  Byte
counts are exact and repeat run to run, but only for one CPython minor
version: object layouts and allocation sizes change between versions,
so a new interpreter means re-archiving.

``--reference FILE`` embeds the rows of an archive written by this
script elsewhere (e.g. at the parent commit) for side-by-side reading;
``--check`` never looks at them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
ARCHIVE = REPO_ROOT / "benchmarks" / "results" / "CALL_BUDGET.json"

DESIGNS = ("backpressured", "backpressureless", "afc")
RATES = (0.05, 0.6)
WIDTH = 8
CYCLES = 300
CLOSED_WORKLOAD = "apache"
CLOSED_CYCLES = 1500
SEED = 11
BUILD_DESIGNS = ("backpressured", "backpressureless", "afc")
BUILD_WIDTHS = (8, 16)
#: ``--check`` fails when a row is off its archived value by more,
#: either way.
TOLERANCE = 0.05
#: ``--check`` also fails when AFC's low-load run makes more than this
#: many times the deflection router's calls: in backpressureless mode
#: AFC is that router plus a load window and an EWMA (Section III).
AFC_DEFLECTION_RATIO = 1.15


def count_calls(run: Callable[[], None]) -> int:
    """Python-level calls made by ``run()``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def row(design_name: str, case: Dict[str, object], calls: int, net) -> dict:
    hops = net.stats.dispatched_flit_hops
    return {
        "design": design_name,
        **case,
        "calls": calls,
        "flit_hops": hops,
        "calls_per_flit_hop": round(calls / hops, 3),
    }


def measure(design_name: str, rate: float) -> Dict[str, object]:
    from repro import Design, Network, NetworkConfig
    from repro.network.flit import reset_packet_ids
    from repro.traffic.synthetic import uniform_random_traffic

    reset_packet_ids()
    net = Network(
        NetworkConfig(width=WIDTH, height=WIDTH), Design(design_name), seed=SEED
    )
    source = uniform_random_traffic(
        net, rate, seed=SEED, source_queue_limit=500
    )
    calls = count_calls(lambda: source.run(CYCLES))
    return row(design_name, {"rate": rate}, calls, net)


def measure_closed(design) -> Dict[str, object]:
    from repro import Network, NetworkConfig
    from repro.memsys.system import MemorySystem
    from repro.network.flit import reset_packet_ids
    from repro.traffic.workloads import WORKLOADS

    reset_packet_ids()
    net = Network(NetworkConfig(), design, seed=SEED)
    system = MemorySystem(net, WORKLOADS[CLOSED_WORKLOAD], seed=SEED)
    calls = count_calls(lambda: system.run(CLOSED_CYCLES))
    return row(design.value, {"workload": CLOSED_WORKLOAD}, calls, net)


_CACHE_TYPE = type(functools.lru_cache(maxsize=None)(len))


def clear_repro_caches() -> None:
    """Empty every ``functools`` cache held by a loaded ``repro`` module."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(module).values()):
                if isinstance(value, _CACHE_TYPE):
                    value.cache_clear()


def measure_build(design_name: str, width: int) -> Dict[str, object]:
    from repro import Design, Network, NetworkConfig

    design = Design(design_name)
    config = NetworkConfig(width=width, height=width)
    # Import whatever construction imports lazily, outside the count.
    Network(NetworkConfig(width=2, height=2), design, seed=SEED)
    clear_repro_caches()
    calls = count_calls(lambda: Network(config, design, seed=SEED))
    routers = width * width
    return {
        "design": design_name,
        "build": f"{width}x{width}",
        "calls": calls,
        "routers": routers,
        "calls_per_router": round(calls / routers, 3),
    }


def measure_memory(design_name: str, width: int) -> Dict[str, object]:
    from repro import Design, Network, NetworkConfig

    design = Design(design_name)
    config = NetworkConfig(width=width, height=width)
    clear_repro_caches()
    Network(config, design, seed=SEED)
    gc.collect()
    tracemalloc.start()
    try:
        net = Network(config, design, seed=SEED)
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del net
    routers = width * width
    return {
        "design": design_name,
        "memory": f"{width}x{width}",
        "bytes": allocated,
        "routers": routers,
        "bytes_per_router": round(allocated / routers, 1),
    }


def measure_all() -> List[Dict[str, object]]:
    from repro.harness import MAIN_DESIGNS

    return (
        [measure(design, rate) for design in DESIGNS for rate in RATES]
        + [measure_closed(design) for design in MAIN_DESIGNS]
        + [
            measure_build(design, width)
            for design in BUILD_DESIGNS
            for width in BUILD_WIDTHS
        ]
        + [
            measure_memory(design, width)
            for design in BUILD_DESIGNS
            for width in BUILD_WIDTHS
        ]
    )


def row_key(row: Dict[str, object]) -> tuple:
    return (
        row["design"],
        row.get("rate"),
        row.get("workload"),
        row.get("build"),
        row.get("memory"),
    )


def gated_field(row: Dict[str, object]) -> Tuple[str, str]:
    """The field ``--check`` holds to its archived value, and its unit."""
    if "memory" in row:
        return "bytes_per_router", "bytes/router"
    if "build" in row:
        return "calls_per_router", "calls/router"
    return "calls_per_flit_hop", "calls/hop"


def gated(row: Dict[str, object]) -> float:
    return row[gated_field(row)[0]]


def label(row: Dict[str, object]) -> str:
    if "memory" in row:
        case = f"memory {row['memory']}"
    elif "build" in row:
        case = f"build {row['build']}"
    else:
        case = row.get("rate") or row["workload"]
    return f"{row['design']} @ {case}"


def describe(row: Dict[str, object]) -> str:
    if "memory" in row:
        return (
            f"{row['bytes_per_router']:8.1f} bytes/router  "
            f"({row['bytes']} bytes, {row['routers']} routers)"
        )
    if "build" in row:
        return (
            f"{row['calls_per_router']:8.3f} calls/router  "
            f"({row['calls']} calls, {row['routers']} routers)"
        )
    return (
        f"{row['calls_per_flit_hop']:8.3f} calls/hop  "
        f"({row['calls']} calls, {row['flit_hops']} hops)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the archive instead of rewriting it")
    parser.add_argument("--out", type=Path, default=ARCHIVE,
                        help="archive to write (default: %(default)s)")
    parser.add_argument("--reference", type=Path,
                        help="archive whose rows are embedded for comparison")
    args = parser.parse_args(argv)
    rows = measure_all()
    for entry in rows:
        print(f"{label(entry):>34}  {describe(entry)}")
    if args.check:
        archived = {
            row_key(entry): gated(entry)
            for entry in json.loads(ARCHIVE.read_text())["rows"]
        }
        failed = False
        for entry in rows:
            now = gated(entry)
            was = archived.get(row_key(entry))
            if was is None:
                print(f"NOT ARCHIVED: {label(entry)}; re-archive")
                failed = True
                continue
            unit = gated_field(entry)[1]
            line = f"{label(entry)}: {now} {unit}, archived {was}"
            if now > was * (1.0 + TOLERANCE):
                print(f"OVER BUDGET (+{TOLERANCE:.0%}): {line}")
                failed = True
            elif now < was * (1.0 - TOLERANCE):
                # The count is exact, so a stale ceiling is a defect too:
                # it would let the saved calls come back unnoticed.
                print(f"UNDER BUDGET (-{TOLERANCE:.0%}): {line}; re-archive")
                failed = True
        calls = {
            row_key(entry): entry["calls"]
            for entry in rows
            if "calls" in entry
        }
        afc = calls[row_key({"design": "afc", "rate": 0.05})]
        deflection = calls[
            row_key({"design": "backpressureless", "rate": 0.05})
        ]
        ratio = afc / deflection
        if ratio > AFC_DEFLECTION_RATIO:
            print(
                f"AFC OVERHEAD: afc @ 0.05 makes {ratio:.3f}x the calls of "
                f"backpressureless @ 0.05 (limit {AFC_DEFLECTION_RATIO}x)"
            )
            failed = True
        return 1 if failed else 0
    document = {
        "mesh": f"{WIDTH}x{WIDTH}",
        "cycles": CYCLES,
        "closed_loop": f"3x3, {CLOSED_WORKLOAD}, {CLOSED_CYCLES} cycles",
        "construction": "calls per router, repro caches cleared",
        "memory": (
            "tracemalloc bytes per router of a second build, repro caches "
            "cleared, after gc.collect(); CPython "
            f"{sys.version_info[0]}.{sys.version_info[1]}"
        ),
        "seed": SEED,
        "tolerance": TOLERANCE,
        "rows": rows,
    }
    if args.reference is not None:
        document["reference"] = json.loads(args.reference.read_text())["rows"]
    elif args.out.exists():
        previous = json.loads(args.out.read_text())
        if "reference" in previous:
            document["reference"] = previous["reference"]
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
