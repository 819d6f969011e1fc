"""The paper's evaluation is one grid, drained once per bench session.

Every bench declares at import the cells it reads
(``benchmarks/_common.py``); the first read runs every declared seed
unit in one ``map_jobs`` call, and later reads come from memory.  The
benches are loaded here with the standard closed-loop cycle counts
patched down, so the Fig. 2 grid costs seconds rather than minutes.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from repro import Design
from repro.harness.experiment import map_jobs
from repro.service import JobSpec
from repro.simulation import Network

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
FIG2 = ("bench_fig2_high_load", "bench_fig2_low_load")
VIEWS = ("bench_fig3_breakdown", "bench_table3_injection")


def _load(patch, name):
    """Import ``benchmarks/<name>.py`` under its own name, so that a
    forked worker finds the functions a unit names."""
    path = BENCH_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    patch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _grid(patch, names):
    """A fresh ``_common`` with short cycle counts and the benches
    ``names`` declared into it, and the ``(units, jobs)`` of its
    ``map_jobs`` calls, which run on two workers whatever the box."""
    common = _load(patch, "_common")
    patch.setattr(common, "WARMUP_CYCLES", 20)
    patch.setattr(common, "MEASURE_CYCLES", 100)
    calls = []

    def two_workers(worker, units, jobs):
        calls.append((units, jobs))
        return map_jobs(worker, units, 2)

    patch.setattr(common, "map_jobs", two_workers)
    for name in names:
        _load(patch, name)
    return common, calls


def _closed_loop_cells(common):
    return {c for c in common.GRID if getattr(c, "kind", "") == "closed_loop"}


def test_importing_every_bench_declares_cells_but_simulates_nothing():
    """What CI's ``--collect-only`` step relies on."""
    built = []
    real_init = Network.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    names = sorted(path.stem for path in BENCH_DIR.glob("bench_*.py"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "__init__", counted_init)
        common, calls = _grid(patch, names)
    assert (built, calls) == ([], [])
    assert all(got is common._PENDING for got in common.GRID.values())
    kinds = {getattr(cell, "kind", "hand-built") for cell in common.GRID}
    assert kinds == {"closed_loop", "open_loop", "faulted", "hand-built"}


def test_every_cell_but_the_spatial_variation_runs_is_a_keyed_spec():
    """Only the spatial-variation runs are hand-built (their spillover
    count is in no result); every other cell is a ``JobSpec``, so the
    store can cache it under its key."""
    names = sorted(path.stem for path in BENCH_DIR.glob("bench_*.py"))
    with pytest.MonkeyPatch.context() as patch:
        common, _ = _grid(patch, names)
        spatial = set(sys.modules["bench_spatial_variation"].CELLS.values())
    specs = [cell for cell in common.GRID if isinstance(cell, JobSpec)]
    assert set(common.GRID) - set(specs) == spatial
    assert len(spatial) == 3
    assert all(len(cell.key()) == 64 for cell in specs)
    assert sum(cell.seeds for cell in common.GRID) == 205


@pytest.fixture(scope="module")
def drained():
    """``(common, calls)``: the Fig. 2, Fig. 3 and Table III benches
    declared, plus one hand-built cell, and the grid read once."""
    with pytest.MonkeyPatch.context() as patch:
        common, calls = _grid(patch, FIG2 + VIEWS)
        table1 = _load(patch, "bench_table1_pipeline")
        common.call(table1._zero_load_latency, Design.AFC, 0, 8)
        common.read(list(common.GRID))
        yield common, calls


def test_the_fig2_grid_runs_each_of_its_27_cells_once(drained):
    common, calls = drained
    [(units, jobs)] = calls
    assert len(common.GRID) == 27 + 1
    assert len(_closed_loop_cells(common)) == 12 + 15
    assert len(units) == len(set(units)) == 27 * 2 + 1
    assert set(units) == {
        (cell, i) for cell in common.GRID for i in range(cell.seeds)
    }
    if hasattr(os, "sched_getaffinity"):
        assert jobs == len(os.sched_getaffinity(0))


def test_fig3_table3_and_ablation_cells_are_cells_of_the_fig2_grid():
    with pytest.MonkeyPatch.context() as patch:
        fig2 = _closed_loop_cells(_grid(patch, FIG2)[0])
    with pytest.MonkeyPatch.context() as patch:
        common, _ = _grid(patch, VIEWS + ("bench_ablation_lazy_vc",))
        views = _closed_loop_cells(common)
    assert len(views) == 24
    assert views <= fig2


def test_views_after_the_grid_simulate_nothing(drained):
    common, calls = drained
    before = len(calls)
    common.read(list(common.GRID))
    assert len(calls) == before == 1


def test_each_shared_cell_equals_a_fresh_serial_run(drained):
    """Drained on two workers, a cell is still bit-identical to a fresh
    one-process run."""
    common, _ = drained
    for cell, result in common.GRID.items():
        if isinstance(cell, JobSpec):
            assert cell.run() == result, (cell.design, cell.workload)
        else:
            assert cell.fn(*cell.args) == result


def _reciprocal(x):
    return 1 / x


def test_a_failing_cell_fails_only_the_benches_that_read_it():
    """One drain still runs, the other cells keep their results, and
    the error carries the worker's traceback."""
    with pytest.MonkeyPatch.context() as patch:
        common, calls = _grid(patch, ())
        good, bad = common.call(_reciprocal, 2), common.call(_reciprocal, 0)
        assert common.read(good) == 0.5
        with pytest.raises(RuntimeError, match="ZeroDivisionError"):
            common.read(bad)
    assert len(calls) == 1
