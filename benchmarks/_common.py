"""The evaluation grid, its standard methodology, and reporting.

Every benchmark regenerates one table or figure of the paper's
evaluation (see DESIGN.md's per-experiment index).  It declares at
import the cells it reads and reads their results with :func:`read`.
Results are printed (run pytest with ``-s`` to watch live) and archived
under ``benchmarks/results/`` so EXPERIMENTS.md can quote them.
"""

import os
import pathlib
import traceback
from typing import Any, Callable, Dict, NamedTuple

from repro.harness.experiment import map_jobs
from repro.service import JobSpec

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Standard closed-loop methodology for the Figure 2/3 benchmarks:
#: warmup (the paper's cache/system warmup, Table IV), then a fixed
#: measurement window, repeated over seeds (the paper's variance bars).
WARMUP_CYCLES = 3_000
MEASURE_CYCLES = 10_000
SEEDS = 2


class Call(NamedTuple):
    """A hand-built cell, one unit of work: ``fn(*args)`` for a
    module-level ``fn`` and hashable ``args``, so that it keys the grid
    and pickles into a worker.  It quacks like a one-seed ``JobSpec``."""

    fn: Callable[..., Any]
    args: tuple
    seeds = 1

    def run_seed(self, index: int) -> Any:
        return self.fn(*self.args)

    def aggregate(self, samples: list) -> Any:
        return samples[0]


_PENDING = object()

#: Every declared cell -> its result (``_PENDING`` until drained).  A
#: cell is a ``JobSpec`` per closed-loop, open-loop or faulted run, or a
#: :class:`Call` per hand-built one; one declared twice, by one bench or
#: two, is one cell.  Benches share the results: read, never mutate.
GRID: Dict[Any, Any] = {}


def spec(**fields: Any) -> JobSpec:
    """Declare the ``JobSpec(**fields)`` cell."""
    cell = JobSpec(**fields)
    GRID.setdefault(cell, _PENDING)
    return cell


def call(fn: Callable[..., Any], *args: Any) -> Call:
    """Declare the ``fn(*args)`` cell."""
    cell = Call(fn, args)
    GRID.setdefault(cell, _PENDING)
    return cell


def standard(design, workload: str, **cycles: int) -> JobSpec:
    """Declare the closed-loop ``(design, workload)`` cell under the
    standard methodology, or with the cycle counts ``cycles`` instead."""
    cycles = {
        "warmup_cycles": WARMUP_CYCLES,
        "measure_cycles": MEASURE_CYCLES,
        **cycles,
    }
    return spec(design=design, workload=workload, seeds=SEEDS, **cycles)


def standard_grid(workloads, designs) -> dict:
    """``{workload name: {design: standard cell}}``."""
    return {
        wl.name: {d: standard(d, wl.name) for d in designs}
        for wl in workloads
    }


def _run_unit(unit):
    """Seed ``index`` of ``cell``.  An error is returned, with the
    worker's traceback, not raised, so that it fails only the benches
    that read the cell."""
    cell, index = unit
    try:
        return cell.run_seed(index)
    except Exception:
        return RuntimeError(f"{cell} seed {index}:\n{traceback.format_exc()}")


def read(cells):
    """``cells`` with every cell replaced by its result: a declared
    cell, or dicts and lists of them, nested."""
    if isinstance(cells, dict):
        return {key: read(value) for key, value in cells.items()}
    if isinstance(cells, list):
        return [read(cell) for cell in cells]
    if GRID[cells] is _PENDING:
        _drain()
    if isinstance(GRID[cells], Exception):
        raise GRID[cells]
    return GRID[cells]


def _drain() -> None:
    """Run the seeds of every pending cell, of every bench imported so
    far, in one ``map_jobs`` call over the cores this process may use,
    and fold each cell's samples, in seed order, into its result.  A
    unit seeds its own RNGs and packet ids only break ties, so a result
    is the same whichever worker ran it."""
    pending = [cell for cell, got in GRID.items() if got is _PENDING]
    units = [(cell, i) for cell in pending for i in range(cell.seeds)]
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    samples = iter(map_jobs(_run_unit, units, cores))
    for cell in pending:
        mine = [next(samples) for _ in range(cell.seeds)]
        errors = [s for s in mine if isinstance(s, Exception)]
        GRID[cell] = errors[0] if errors else cell.aggregate(mine)


def metric(cells, name: str) -> dict:
    """``{workload: {design: cell.<name>}}`` of a read standard grid."""
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
