"""Figure 2(a)/(b): performance and network energy at low loads.

Paper's findings (Section V-A):

* performance — "flow control has no meaningful impact" (all designs
  within noise of each other);
* energy — backpressureless is the floor; AFC lands within ~9 % of it
  (residual gated leakage); even the ideal-bypass bound is ~32 % above
  backpressureless; the plain baseline is ~42 % above.
"""

import pytest

from repro import Design
from repro.harness import (
    ENERGY_DESIGNS_LOW_LOAD,
    MAIN_DESIGNS,
    format_normalized_table,
    geometric_mean,
)
from repro.traffic.workloads import LOW_LOAD_WORKLOADS

from _common import metric, read, report, standard_grid

CELLS = standard_grid(LOW_LOAD_WORKLOADS, ENERGY_DESIGNS_LOW_LOAD)


def test_fig2_low_load():
    results = read(CELLS)
    perf = metric(results, "performance")
    report(
        "fig2a_low_load_performance",
        format_normalized_table(
            "performance",
            perf,
            MAIN_DESIGNS,
            title="Figure 2(a): performance, low-load benchmarks "
            "(normalized to backpressured; higher is better)",
        ),
    )
    energy = metric(results, "energy_per_txn")
    report(
        "fig2b_low_load_energy",
        format_normalized_table(
            "energy/txn",
            energy,
            ENERGY_DESIGNS_LOW_LOAD,
            higher_is_better=False,
            title="Figure 2(b): network energy, low-load benchmarks "
            "(normalized to backpressured; lower is better)",
        ),
    )

    # -- shape assertions (paper's qualitative claims) --
    for wl, per_design in perf.items():
        base = per_design[Design.BACKPRESSURED]
        for design in MAIN_DESIGNS:
            assert per_design[design] == pytest.approx(base, rel=0.10), (
                f"{wl}: low-load performance should be flow-control "
                f"insensitive"
            )
    norm = {
        d: geometric_mean(
            [
                energy[wl][d] / energy[wl][Design.BACKPRESSURED]
                for wl in energy
            ]
        )
        for d in ENERGY_DESIGNS_LOW_LOAD
    }
    assert norm[Design.BACKPRESSURELESS] < norm[Design.AFC]
    assert norm[Design.AFC] < norm[Design.BACKPRESSURED_IDEAL_BYPASS]
    assert norm[Design.BACKPRESSURED_IDEAL_BYPASS] < 1.0
    # AFC within ~9% of backpressureless (paper's headline number)
    assert norm[Design.AFC] / norm[Design.BACKPRESSURELESS] < 1.15
