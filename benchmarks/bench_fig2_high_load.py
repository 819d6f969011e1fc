"""Figure 2(c)/(d): performance and network energy at high loads.

Paper's findings (Section V-A):

* performance — backpressureless degrades ~19 % versus backpressured
  (excessive misrouting near saturation); AFC, largely in backpressured
  mode, is within ~2 % (always-backpressured similar);
* energy — backpressureless dissipates ~35 % more than backpressured;
  AFC's overhead is ~2 % on average (wider flits offset by the
  lazy-VC-halved buffers).
"""

import pytest

from repro import Design
from repro.harness import (
    MAIN_DESIGNS,
    format_normalized_table,
    geometric_mean,
)
from repro.traffic.workloads import HIGH_LOAD_WORKLOADS

from _common import metric, read, report, standard_grid

CELLS = standard_grid(HIGH_LOAD_WORKLOADS, MAIN_DESIGNS)


def test_fig2_high_load():
    results = read(CELLS)
    perf = metric(results, "performance")
    energy = metric(results, "energy_per_txn")
    report(
        "fig2c_high_load_performance",
        format_normalized_table(
            "performance",
            perf,
            MAIN_DESIGNS,
            title="Figure 2(c): performance, high-load benchmarks "
            "(normalized to backpressured; higher is better)",
        ),
    )
    report(
        "fig2d_high_load_energy",
        format_normalized_table(
            "energy/txn",
            energy,
            MAIN_DESIGNS,
            higher_is_better=False,
            title="Figure 2(d): network energy, high-load benchmarks "
            "(normalized to backpressured; lower is better)",
        ),
    )

    # -- shape assertions --
    def norm(metric, design):
        return geometric_mean(
            [
                metric[wl][design] / metric[wl][Design.BACKPRESSURED]
                for wl in metric
            ]
        )

    # backpressureless clearly loses at high load, on both axes
    assert norm(perf, Design.BACKPRESSURELESS) < 0.97
    assert norm(energy, Design.BACKPRESSURELESS) > 1.10
    # AFC tracks the backpressured baseline
    assert norm(perf, Design.AFC) > 0.90
    assert norm(energy, Design.AFC) == pytest.approx(1.0, abs=0.08)
    assert norm(perf, Design.AFC_ALWAYS_BACKPRESSURED) > 0.90
    # AFC beats backpressureless at high load
    assert norm(perf, Design.AFC) > norm(perf, Design.BACKPRESSURELESS)
    assert norm(energy, Design.AFC) < norm(energy, Design.BACKPRESSURELESS)
