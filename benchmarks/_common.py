"""Shared configuration and reporting for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's
evaluation (see DESIGN.md's per-experiment index).  Results are printed
(run pytest with ``-s`` to watch live) and archived under
``benchmarks/results/`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import pathlib
from typing import Dict

from repro.harness import ExperimentRunner

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Standard closed-loop methodology for the Figure 2/3 benchmarks:
#: warmup (the paper's cache/system warmup, Table IV), then a fixed
#: measurement window, repeated over seeds (the paper's variance bars).
WARMUP_CYCLES = 3_000
MEASURE_CYCLES = 10_000
SEEDS = 2


def standard_runner(**overrides) -> ExperimentRunner:
    defaults = dict(
        warmup_cycles=WARMUP_CYCLES,
        measure_cycles=MEASURE_CYCLES,
        seeds=SEEDS,
    )
    defaults.update(overrides)
    return ExperimentRunner(**defaults)


def report(name: str, text: str) -> None:
    """Print a result table and archive it for EXPERIMENTS.md."""
    print()
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
