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

from dataclasses import replace

import pytest

from repro import Design, Network, NetworkConfig
from repro.harness import format_table
from repro.traffic.synthetic import uniform_random_traffic
from repro.traffic.workloads import WORKLOADS

from _common import report, standard_runner

LAYOUTS = ((4, 4, 8), (8, 8, 16), (8, 8, 32), (16, 16, 32))
PROBE_RATE = 0.85


def _saturation_throughput(config, design, seeds=2):
    values = []
    for seed in range(seeds):
        net = Network(config, design, seed=seed)
        source = uniform_random_traffic(
            net, PROBE_RATE, seed=10 + seed, source_queue_limit=400
        )
        source.run(2_000)
        net.begin_measurement()
        source.run(5_000)
        values.append(net.stats.throughput)
    return sum(values) / len(values)


def _run_ablation():
    base_config = NetworkConfig()
    out = {
        "baseline(64f, per-packet)": _saturation_throughput(
            base_config, Design.BACKPRESSURED
        )
    }
    for layout in LAYOUTS:
        config = replace(base_config, afc_vcs=layout)
        label = f"lazy{layout} ({sum(layout)}f)"
        out[label] = _saturation_throughput(
            config, Design.AFC_ALWAYS_BACKPRESSURED
        )
    # closed-loop comparison at the paper's layout
    runner = standard_runner()
    workload = WORKLOADS["specjbb"]
    out_closed = {
        "baseline": runner.run_closed_loop(
            Design.BACKPRESSURED, workload
        ).performance,
        "lazy(8,8,16)": runner.run_closed_loop(
            Design.AFC_ALWAYS_BACKPRESSURED, workload
        ).performance,
    }
    return out, out_closed


def test_lazy_vc_ablation():
    saturation, closed = _run_ablation()
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
