"""Section II / VI claims about backpressureless variants.

Three quantitative claims from the paper's discussion, each measured
against our implementations:

1. "the variant that drops packets saturates at lower loads, even
   according to the original paper" — the SCARAB-style dropping router
   vs the deflection router;
2. hardware age priorities (deterministic livelock freedom) are
   unnecessary: randomized (Chaos-style) deflection achieves the same
   performance, while the age field costs flit width (and therefore
   link/crossbar energy);
3. "dynamic buffer power optimizations have fundamental limitations at
   low loads, where static power dominates" — even a *realistic*
   buffer-bypass baseline lands between the plain baseline and the
   paper's ideal-bypass bound, all of them well above the
   backpressureless floor.
"""

import pytest

from repro import Design
from repro.harness import format_table

from _common import read, report, spec

SWEEP_RATES = (0.3, 0.5, 0.7, 0.85)
DEFLECTION_DESIGNS = (
    Design.BACKPRESSURELESS,
    Design.BACKPRESSURELESS_PRIORITY,
    Design.BACKPRESSURELESS_DROPPING,
)
BYPASS_DESIGNS = (
    Design.BACKPRESSURED,
    Design.BACKPRESSURED_BYPASS,
    Design.BACKPRESSURED_IDEAL_BYPASS,
    Design.BACKPRESSURELESS,
)
LOW_RATE = 0.12


SPEC = dict(
    kind="open_loop", warmup_cycles=1_500, measure_cycles=4_000, seeds=2
)
SWEEP = {
    design: [
        spec(**SPEC, design=design, rate=rate, source_queue_limit=400)
        for rate in SWEEP_RATES
    ]
    for design in DEFLECTION_DESIGNS
}
LOW_LOAD = {
    design: spec(**SPEC, design=design, rate=LOW_RATE)
    for design in BYPASS_DESIGNS
}


def test_backpressureless_variants():
    sweep, low_load = read(SWEEP), read(LOW_LOAD)

    rows = []
    for i, rate in enumerate(SWEEP_RATES):
        row = [f"{rate:.2f}"]
        for design in DEFLECTION_DESIGNS:
            p = sweep[design][i]
            row.append(
                f"{p.throughput:.3f} / {p.avg_network_latency:5.1f}"
            )
        rows.append(row)
    report(
        "variants_saturation",
        format_table(
            ["offered"] + [d.value for d in DEFLECTION_DESIGNS],
            rows,
            title="Backpressureless variants: throughput / latency vs "
            "offered load (Section II)",
        ),
    )

    base = low_load[Design.BACKPRESSURED].energy_per_flit
    rows = [
        [design.value, f"{r.energy_per_flit / base:.3f}"]
        for design, r in low_load.items()
    ]
    report(
        "variants_bypass_energy",
        format_table(
            ["design", f"energy/flit @ {LOW_RATE} (vs backpressured)"],
            rows,
            title="Buffer-bypass limitations at low load (Section V-A)",
        ),
    )

    # -- claim 1: dropping saturates first --
    sat = {
        d: max(p.throughput for p in sweep[d]) for d in DEFLECTION_DESIGNS
    }
    assert (
        sat[Design.BACKPRESSURELESS_DROPPING]
        < 0.9 * sat[Design.BACKPRESSURELESS]
    )

    # -- claim 2: priorities buy no throughput but cost energy --
    assert sat[Design.BACKPRESSURELESS_PRIORITY] == pytest.approx(
        sat[Design.BACKPRESSURELESS], rel=0.06
    )
    for i in range(len(SWEEP_RATES)):
        rand = sweep[Design.BACKPRESSURELESS][i]
        prio = sweep[Design.BACKPRESSURELESS_PRIORITY][i]
        assert prio.energy_per_flit > rand.energy_per_flit  # wider flits

    # -- claim 3: bypass ordering at low load --
    e = {d: r.energy_per_flit for d, r in low_load.items()}
    assert (
        e[Design.BACKPRESSURELESS]
        < e[Design.BACKPRESSURED_IDEAL_BYPASS]
        < e[Design.BACKPRESSURED_BYPASS]
        < e[Design.BACKPRESSURED]
    )
