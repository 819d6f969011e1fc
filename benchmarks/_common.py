"""Shared configuration and reporting for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's
evaluation (see DESIGN.md's per-experiment index).  Results are printed
(run pytest with ``-s`` to watch live) and archived under
``benchmarks/results/`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, Tuple

from repro import Design
from repro.harness import ClosedLoopResult, ExperimentRunner
from repro.traffic.workloads import WorkloadProfile

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Standard closed-loop methodology for the Figure 2/3 benchmarks:
#: warmup (the paper's cache/system warmup, Table IV), then a fixed
#: measurement window, repeated over seeds (the paper's variance bars).
WARMUP_CYCLES = 3_000
MEASURE_CYCLES = 10_000
SEEDS = 2


def standard_runner(**overrides) -> ExperimentRunner:
    """The standard methodology, a run's seeds on the cores this process
    may use (bit-identical to serial: ``map_jobs`` keeps seed order)."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    defaults = dict(
        warmup_cycles=WARMUP_CYCLES,
        measure_cycles=MEASURE_CYCLES,
        seeds=SEEDS,
        jobs=min(SEEDS, cores),
    )
    defaults.update(overrides)
    return ExperimentRunner(**defaults)


#: Standard closed-loop results by ``(design, workload)``.  Fig. 2,
#: Fig. 3, Table III and the lazy-VC ablation are views of one grid, so
#: a pytest session simulates each cell once, whichever bench asks
#: first.  The results are shared: read them, never mutate them.
CELLS: Dict[Tuple[Design, WorkloadProfile], ClosedLoopResult] = {}


def standard_cell(design: Design, workload: WorkloadProfile):
    """The ``(design, workload)`` cell of :data:`CELLS`, run on first use."""
    key = (design, workload)
    if key not in CELLS:
        CELLS[key] = standard_runner().run_closed_loop(design, workload)
    return CELLS[key]


def standard_cells(workloads, designs):
    """``{workload name: {design: cell}}`` over ``workloads × designs``."""
    return {
        workload.name: {d: standard_cell(d, workload) for d in designs}
        for workload in workloads
    }


def metric(cells, name: str) -> dict:
    """``{workload: {design: cell.<name>}}`` of a standard_cells table."""
    return {
        wl: {d: getattr(r, name) for d, r in row.items()}
        for wl, row in cells.items()
    }


def report(name: str, text: str) -> None:
    """Print a result table and archive it for EXPERIMENTS.md."""
    print()
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
