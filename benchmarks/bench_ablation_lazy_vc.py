"""Section III-E ablation: lazy VC allocation and buffer halving.

The paper's claim: viewing the 32-flit input buffer as 32 one-flit VCs
with per-virtual-network credits lets AFC's backpressured mode match a
tuned 64-flit per-packet baseline ("reduces the total buffer size by a
factor of 2 while matching the performance").  This ablation sweeps the
lazy buffer layout around the paper's (8, 8, 16) point on an open-loop
saturation workload and also compares closed-loop performance of
AFC-always-backpressured against the baseline.

Measured honestly: at the paper's half-size layout our lazy-VC router
reaches ~97 % of the baseline's saturation throughput; widening only
the data virtual network (8, 8, 32) brings it within half a percent,
as close as the full 64-flit lazy layout gets, showing the residual
gap is buffer capacity at the saturation knee, not the lazy allocation
mechanism itself (see EXPERIMENTS.md).
"""

from repro import Design, NetworkConfig
from repro.harness import format_table

from _common import read, report, spec, standard

LAYOUTS = ((4, 4, 8), (8, 8, 16), (8, 8, 32), (16, 16, 32))
PROBE_RATE = 0.85


def _saturation(design, layout):
    """Uniform traffic at ``PROBE_RATE`` on ``design`` with the lazy
    buffer ``layout``, over two seeds."""
    return spec(
        kind="open_loop",
        design=design,
        config=NetworkConfig(afc_vcs=layout),
        rate=PROBE_RATE,
        source_queue_limit=400,
        warmup_cycles=2_000,
        measure_cycles=5_000,
        seeds=2,
    )


#: Open-loop saturation probes by configuration.
SATURATION = {
    "baseline(64f, per-packet)": _saturation(
        Design.BACKPRESSURED, NetworkConfig().afc_vcs
    ),
    **{
        f"lazy{layout} ({sum(layout)}f)": _saturation(
            Design.AFC_ALWAYS_BACKPRESSURED, layout
        )
        for layout in LAYOUTS
    },
}
#: Closed-loop specjbb at the paper's layout: two Fig. 2 cells.
CLOSED = {
    "baseline": standard(Design.BACKPRESSURED, "specjbb"),
    "lazy(8,8,16)": standard(Design.AFC_ALWAYS_BACKPRESSURED, "specjbb"),
}


def test_lazy_vc_ablation():
    saturation = {
        label: r.throughput for label, r in read(SATURATION).items()
    }
    closed = {label: c.performance for label, c in read(CLOSED).items()}
    base = saturation["baseline(64f, per-packet)"]
    rows = [
        [label, f"{thr:.3f}", f"{thr / base:.3f}"]
        for label, thr in saturation.items()
    ]
    rows.append(["--- closed loop (specjbb) ---", "", ""])
    rows.append(
        [
            "lazy(8,8,16) vs baseline perf",
            f"{closed['lazy(8,8,16)']:.2f}",
            f"{closed['lazy(8,8,16)'] / closed['baseline']:.3f}",
        ]
    )
    report(
        "ablation_lazy_vc",
        format_table(
            ["configuration", "throughput / perf", "vs baseline"],
            rows,
            title="Lazy VC allocation ablation (open-loop saturation at "
            f"offered {PROBE_RATE}, plus closed-loop specjbb)",
        ),
    )

    half = saturation["lazy(8, 8, 16) (32f)"]
    # the paper's half-size layout is within a few percent of baseline
    assert half > 0.90 * base
    # widening the data vnet all but closes the gap: the mechanism is
    # not the bottleneck, capacity at the knee is
    assert saturation["lazy(8, 8, 32) (48f)"] > 0.97 * base
    # quarter-size buffers finally cost real throughput
    assert saturation["lazy(4, 4, 8) (16f)"] < half + 0.02
    # closed loop: always-backpressured tracks the baseline
    assert closed["lazy(8,8,16)"] > 0.90 * closed["baseline"]
