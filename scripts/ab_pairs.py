#!/usr/bin/env python
"""Alternating parent/change pairs of ledger workloads, archived.

Runs the protocol of ``benchmarks/ledger/README.md`` ("Comparing a
parent and a change"): for every seed one ledger run in the
parent checkout and one in this checkout, the side that goes first
alternating with the seed, and writes every metric of every run
(end-to-end, or per-layer with ``--trace 1``) plus per-metric medians,
quartiles and pair wins::

    python scripts/ab_pairs.py --parent /path/to/parent-checkout \\
        --workload idle_open_8x8 sat_open_8x8 --seeds 11-20 \\
        --out benchmarks/results/BENCH_lowload_ab.json

The parent checkout must carry this commit's ``benchmarks/ledger/``
(identical benchmark code on both sides).  Nothing else may be running:
the ledger's host times are best-of-k on a two-core box.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent


def ledger_run(
    checkout: Path, workload: str, seed: int, seconds: int, trace: int
) -> dict:
    """One ledger run in ``checkout``; its final JSON line."""
    done = subprocess.run(
        [
            sys.executable, "benchmarks/ledger/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    digest = next(
        part.split("=", 1)[1]
        for part in done.stdout.split()
        if part.startswith("sim_digest=")
    )
    report = json.loads(done.stdout.splitlines()[-1])
    return {
        "sim_digest": digest,
        "failed": report["failed"],
        "metrics": {
            name: entry["value"] for name, entry in report["metrics"].items()
        },
    }


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs: List[dict], better: Dict[str, str]) -> Dict[str, dict]:
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        sign = -1.0 if better[name] == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        p_stats, c_stats = quartiles(parent), quartiles(change)
        summary[name] = {
            "better": better[name],
            "parent": p_stats,
            "change": c_stats,
            "change_wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "median_ratio_change_over_parent": (
                c_stats["median"] / p_stats["median"]
                if p_stats["median"]
                else None
            ),
            "parent_iqr": p_stats["q3"] - p_stats["q1"],
        }
    return summary


def parse_seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", nargs="+", required=True,
                        help="one or more ledger workloads, run in turn")
    parser.add_argument("--seeds", default="11-20",
                        help="inclusive range, e.g. 11-20")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 pairs traced runs (per-layer metrics; each "
                        "is one traced rep, so read medians, not one pair)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    better = {
        m["name"]: m["better"]
        for m in contract["end_to_end"] + contract["per_layer"]
    }
    sides = {"parent": args.parent.resolve(), "change": REPO_ROOT}
    document = {
        "seconds": args.seconds,
        "trace": args.trace,
        "protocol": "benchmarks/ledger/README.md, 'Comparing a parent and "
        "a change': alternating order, one pair per seed",
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for seed in parse_seeds(args.seeds):
            order = (
                ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            )
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side] = ledger_run(
                    sides[side], workload, seed, args.seconds, args.trace
                )
            pairs.append(pair)
            print(f"{workload} seed {seed}: {' then '.join(order)}", flush=True)
        document["workloads"][workload] = {
            "digests_equal": all(
                pair["parent"]["sim_digest"] == pair["change"]["sim_digest"]
                for pair in pairs
            ),
            "failed_runs": sum(
                pair[side]["failed"] > 0
                for pair in pairs
                for side in ("parent", "change")
            ),
            "summary": summarise(pairs, better),
            "pairs": pairs,
        }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
