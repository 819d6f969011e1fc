#!/usr/bin/env python
"""Alternating parent/change pairs of ledger workloads, archived.

Runs the protocol of ``benchmarks/ledger/README.md`` ("Comparing a
parent and a change"): for every seed one ledger run in the
parent checkout and one in this checkout, the side that goes first
alternating with the seed, and writes every metric of every run
(end-to-end, or per-layer with ``--trace 1``) plus per-metric medians,
quartiles, pair wins and whether a gain claim holds::

    python scripts/ab_pairs.py --parent /path/to/parent-checkout \\
        --workload idle_open_8x8 sat_open_8x8 --seeds 11-20 \\
        --out benchmarks/results/BENCH_lowload_ab.json

The archive is rewritten after every pair, and a run that exits
non-zero is archived as a crashed run (exit code and stderr tail), so
one crash never loses the pairs already measured.  The parent checkout
must carry this commit's ``benchmarks/ledger/`` (identical benchmark
code on both sides).  Nothing else may be running: the ledger's host
times are best-of-k on a two-core box.
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


#: Lines of a crashed run's stderr kept in the archive.
STDERR_TAIL_LINES = 20


def ledger_run(
    checkout: Path, workload: str, seed: int, seconds: int, trace: int
) -> dict:
    """One ledger run in ``checkout``: its digest, failure count and
    metrics, or, if the run exits non-zero, its exit code and the tail
    of its stderr (a crashed run, kept out of the summaries)."""
    done = subprocess.run(
        [
            sys.executable, "benchmarks/ledger/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        return {
            "exit_code": done.returncode,
            "stderr_tail": done.stderr.splitlines()[-STDERR_TAIL_LINES:],
        }
    digest = next(
        part.split("=", 1)[1]
        for part in done.stdout.split()
        if part.startswith("sim_digest=")
    )
    report = json.loads(done.stdout.splitlines()[-1])
    return {
        "exit_code": 0,
        "sim_digest": digest,
        "failed": report["failed"],
        "metrics": {
            name: entry["value"] for name, entry in report["metrics"].items()
        },
    }


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:  # the first pair of an archive in progress
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs: List[dict], better: Dict[str, str]) -> Dict[str, dict]:
    """Per metric over complete ``pairs`` (both runs finished): medians
    and quartiles per side, pair wins, and the two readings of a gain
    claim — ``gain_rule_met`` (the change wins at least 90 % of the
    pairs and its median beats the parent's by more than the parent's
    interquartile range) and ``change_better_every_run`` (the change's
    worst run beats the parent's best)."""
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        sign = -1.0 if better[name] == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        p_stats, c_stats = quartiles(parent), quartiles(change)
        parent_iqr = p_stats["q3"] - p_stats["q1"]
        median_gain = sign * (c_stats["median"] - p_stats["median"])
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
            "parent_iqr": parent_iqr,
            "gain_rule_met": (
                wins >= 0.9 * len(pairs) and median_gain > parent_iqr
            ),
            "change_better_every_run": all(
                sign * (c - p) > 0 for c in change for p in parent
            ),
        }
    return summary


def workload_entry(pairs: List[dict], better: Dict[str, str]) -> dict:
    """The archive entry of one workload's pairs so far."""
    runs = [pair[side] for pair in pairs for side in ("parent", "change")]
    complete = [
        pair for pair in pairs
        if pair["parent"]["exit_code"] == 0
        and pair["change"]["exit_code"] == 0
    ]
    return {
        "digests_equal": all(
            pair["parent"]["sim_digest"] == pair["change"]["sim_digest"]
            for pair in complete
        ),
        "failed_runs": sum(
            run["exit_code"] != 0 or run["failed"] > 0 for run in runs
        ),
        "crashed_runs": sum(run["exit_code"] != 0 for run in runs),
        "complete_pairs": len(complete),
        "summary": summarise(complete, better) if complete else {},
        "pairs": pairs,
    }


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
        pairs: List[dict] = []
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
            # Rewritten after every pair: a crash or an interrupt loses
            # at most the pair in progress.
            document["workloads"][workload] = workload_entry(pairs, better)
            args.out.write_text(json.dumps(document, indent=2) + "\n")
            crashed = [side for side in order if pair[side]["exit_code"]]
            note = f" ({', '.join(crashed)} crashed)" if crashed else ""
            print(
                f"{workload} seed {seed}: {' then '.join(order)}{note}",
                flush=True,
            )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
