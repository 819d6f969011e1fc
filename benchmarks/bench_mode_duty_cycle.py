"""Section V-A text: AFC mode duty cycle per workload.

Paper's findings: four of the six benchmarks are uniformly high or low
load — water and barnes sit in backpressureless mode ~99 % of the time,
specjbb and apache in backpressured mode >99 %.  The other two vary a
little: ocean spends ~7 % of its time backpressured, oltp ~5 %
backpressureless.  No gossip-induced switches occur in the closed-loop
runs (they appear only under engineered hotspots — see
bench_gossip_hotspot.py).
"""

from repro import Design
from repro.harness import format_table
from repro.traffic.workloads import WORKLOADS

from _common import read, report, standard

# Measured from cycle 0 (no warmup): mode residency is a whole-run
# property in the paper, including the initial switch-in.
CELLS = {
    name: standard(Design.AFC, name, warmup_cycles=0, measure_cycles=13_000)
    for name in WORKLOADS
}


def test_mode_duty_cycle():
    results = read(CELLS)
    rows = []
    for name, r in results.items():
        rows.append(
            [
                name,
                f"{r.backpressured_fraction:.3f}",
                f"{1.0 - r.backpressured_fraction:.3f}",
                f"{r.forward_switches:.1f}",
                f"{r.reverse_switches:.1f}",
                f"{r.gossip_switches:.1f}",
            ]
        )
    report(
        "mode_duty_cycle",
        format_table(
            [
                "workload",
                "backpressured",
                "backpressureless",
                "fwd switches",
                "rev switches",
                "gossip",
            ],
            rows,
            title="AFC mode duty cycle (fraction of router-cycles; "
            "Section V-A text)",
        ),
    )

    # -- shape assertions --
    # barnes and water: ~99% backpressureless
    assert results["barnes"].backpressured_fraction < 0.05
    assert results["water"].backpressured_fraction < 0.05
    # apache and specjbb: >95% backpressured (paper: >99%)
    assert results["apache"].backpressured_fraction > 0.90
    assert results["specjbb"].backpressured_fraction > 0.90
    # oltp mostly backpressured, ocean mostly backpressureless, but both
    # show some residency in the other mode (the paper's "small amount
    # of variation")
    assert results["oltp"].backpressured_fraction > 0.80
    assert results["ocean"].backpressured_fraction < 0.60
    # closed-loop runs do not exercise the gossip switch
    assert all(r.gossip_switches <= 1 for r in results.values())
