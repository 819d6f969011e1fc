"""Section III-E ablation: lazy VC allocation and buffer halving.

The paper's claim: viewing the 32-flit input buffer as 32 one-flit VCs
with per-virtual-network credits lets AFC's backpressured mode match a
tuned 64-flit per-packet baseline ("reduces the total buffer size by a
factor of 2 while matching the performance").  This ablation sweeps the
lazy buffer layout around the paper's (8, 8, 16) point on an open-loop
saturation workload and also compares closed-loop performance of
AFC-always-backpressured against the baseline.

Measured honestly: at the paper's half-size layout our lazy-VC router
reaches ~96 % of the baseline's saturation throughput; widening only
the data virtual network (8, 8, 32) recovers full parity, showing the
residual gap is buffer capacity at the saturation knee, not the lazy
allocation mechanism itself (see EXPERIMENTS.md).
"""

from repro import Design, Network, NetworkConfig
from repro.harness import format_table
from repro.traffic.synthetic import uniform_random_traffic

from _common import call, read, report, standard

LAYOUTS = ((4, 4, 8), (8, 8, 16), (8, 8, 32), (16, 16, 32))
PROBE_RATE = 0.85


def _saturation_throughput(design, layout, seed):
    net = Network(NetworkConfig(afc_vcs=layout), design, seed=seed)
    source = uniform_random_traffic(
        net, PROBE_RATE, seed=10 + seed, source_queue_limit=400
    )
    source.run(2_000)
    net.begin_measurement()
    source.run(5_000)
    return net.stats.throughput


def _probe(design, layout):
    return [
        call(_saturation_throughput, design, layout, seed)
        for seed in range(2)
    ]


#: Open-loop saturation probes, per seed, by configuration.
SATURATION = {
    "baseline(64f, per-packet)": _probe(
        Design.BACKPRESSURED, NetworkConfig().afc_vcs
    ),
    **{
        f"lazy{layout} ({sum(layout)}f)": _probe(
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
        label: sum(values) / len(values)
        for label, values in read(SATURATION).items()
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
    # widening the data vnet recovers parity: the mechanism is not the
    # bottleneck, capacity at the knee is
    assert saturation["lazy(8, 8, 32) (48f)"] > 0.97 * base
    # quarter-size buffers finally cost real throughput
    assert saturation["lazy(4, 4, 8) (16f)"] < half + 0.02
    # closed loop: always-backpressured tracks the baseline
    assert closed["lazy(8,8,16)"] > 0.90 * closed["baseline"]
