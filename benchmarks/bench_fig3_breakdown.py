"""Figure 3(a)/(b): network energy breakdown (buffer / link / rest).

Paper's findings (Section V-A):

* low load — buffer energy is a significant share of the baseline's
  total ("even in the case with the smallest proportion", ocean);
  backpressureless eliminates it entirely for a modest link-energy
  increase; AFC, mostly gated, nearly does; always-backpressured halves
  it (half-size buffers) but a significant fraction remains;
* high load — backpressured is lowest; backpressureless pays a large
  link-energy penalty from misrouting; AFC's penalty is the difference
  between wider-flit link energy and lazy-VC buffer savings.
"""

from repro import Design
from repro.harness import MAIN_DESIGNS, format_breakdown_table
from repro.traffic.workloads import HIGH_LOAD_WORKLOADS, LOW_LOAD_WORKLOADS

from _common import metric, read, report, standard_grid

CELLS = {
    "low": standard_grid(LOW_LOAD_WORKLOADS, MAIN_DESIGNS),
    "high": standard_grid(HIGH_LOAD_WORKLOADS, MAIN_DESIGNS),
}


def test_fig3_energy_breakdown():
    results = read(CELLS)
    tables = {}
    for group, label in (("low", "3(a)"), ("high", "3(b)")):
        breakdowns = metric(results[group], "breakdown_per_txn")
        tables[group] = breakdowns
        report(
            f"fig3{'a' if group == 'low' else 'b'}_breakdown_{group}_load",
            format_breakdown_table(
                breakdowns,
                MAIN_DESIGNS,
                title=f"Figure {label}: energy breakdown, {group}-load "
                "benchmarks (normalized to backpressured total)",
            ),
        )

    # -- shape assertions --
    for wl, per_design in tables["low"].items():
        base = per_design[Design.BACKPRESSURED]
        # buffers are a significant share of the baseline at low load
        assert base.buffer / base.total > 0.25, wl
        # backpressureless has exactly zero buffer energy
        assert per_design[Design.BACKPRESSURELESS].buffer == 0.0  # simlint: disable=float-equality
        # AFC eliminates most buffer energy (power gating); ocean keeps
        # a little because its routers spend a fraction of the run in
        # backpressured mode (the paper's "7%" duty-cycle observation)
        assert per_design[Design.AFC].buffer < 0.35 * base.buffer, wl
        # always-backpressured halves buffer *static* energy but keeps a
        # significant fraction of buffer energy overall
        always = per_design[Design.AFC_ALWAYS_BACKPRESSURED]
        assert 0.3 * base.buffer < always.buffer < 0.95 * base.buffer, wl

    for wl, per_design in tables["high"].items():
        base = per_design[Design.BACKPRESSURED]
        bless = per_design[Design.BACKPRESSURELESS]
        afc = per_design[Design.AFC]
        # misrouting inflates backpressureless link energy
        assert bless.link > 1.2 * base.link, wl
        # AFC's wider flits raise link energy, buffers recapture it
        assert afc.link > base.link, wl
        assert afc.buffer < base.buffer, wl
