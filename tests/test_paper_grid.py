"""The paper's closed-loop grid is simulated once per bench session.

Fig. 2 simulates every (workload, design) cell it shows; Fig. 3,
Table III and the lazy-VC ablation read cells of that grid through
``benchmarks/_common.standard_cell`` instead of re-running them.  The
benches are loaded here with the cycle counts patched down, so the
grid costs seconds rather than minutes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.harness import ExperimentRunner

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
VIEWS = ("fig3_breakdown", "table3_injection", "ablation_lazy_vc")


def _load(name):
    path = BENCH_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _request_views(benches):
    benches["fig3_breakdown"]._run_breakdowns()
    benches["table3_injection"]._run_injection_rates()
    benches["ablation_lazy_vc"]._run_closed_loop()


@pytest.fixture(scope="module")
def bench():
    """``(common, benches, runs, grid_runs)``: ``_common`` with short
    cycle counts and the Fig. 2 grid already in its memo, the bench
    modules reading it, the ``ExperimentRunner.run`` calls made so far,
    and those the grid made."""
    with pytest.MonkeyPatch.context() as patch:
        common = _load("_common")
        patch.setitem(sys.modules, "_common", common)
        patch.setattr(common, "WARMUP_CYCLES", 20)
        patch.setattr(common, "MEASURE_CYCLES", 100)
        runs = []
        real_run = ExperimentRunner.run

        def counted_run(self, kind, **inputs):
            runs.append((inputs["design"], inputs["workload"]))
            return real_run(self, kind, **inputs)

        patch.setattr(ExperimentRunner, "run", counted_run)
        benches = {
            name: _load(f"bench_{name}")
            for name in ("fig2_high_load", "fig2_low_load") + VIEWS
        }
        benches["fig2_high_load"]._run_high_load()
        benches["fig2_low_load"]._run_low_load()
        yield common, benches, runs, list(runs)


def test_the_fig2_grid_runs_each_of_its_27_cells_once(bench):
    common, _, _, grid_runs = bench
    assert len(grid_runs) == len(set(grid_runs)) == 12 + 15
    assert set(grid_runs) == set(common.CELLS)


def test_fig3_table3_and_ablation_cells_are_cells_of_the_fig2_grid(bench):
    common, benches, _, _ = bench
    grid = common.CELLS
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(common, "CELLS", {})
        _request_views(benches)
        views = set(common.CELLS)
    assert len(views) == 24
    assert views <= set(grid)


def test_views_after_the_grid_simulate_nothing(bench):
    _, benches, runs, _ = bench
    before = len(runs)
    _request_views(benches)
    assert len(runs) == before


def test_each_shared_cell_equals_a_fresh_serial_run(bench):
    """Memoized, and computed with the seeds on every available core,
    a cell is still bit-identical to a fresh one-process run."""
    common = bench[0]
    for (design, workload), cell in common.CELLS.items():
        fresh = common.standard_runner(jobs=1).run_closed_loop(
            design, workload
        )
        assert fresh == cell, (design, workload.name)
