"""E15: sensitivity of AFC's design choices (Sections III-B, III-D).

DESIGN.md calls out three tunables the paper fixes by experiment; this
ablation sweeps each and checks the mechanism responds the way the
paper's reasoning predicts:

* **EWMA smoothing (alpha = 0.99)** — "smoothing using EWMA was
  necessary to avoid frequent (and unnecessary) mode switches due to
  transient bursts": weaker smoothing must produce more mode switches
  on a load that hovers near the thresholds (ocean).
* **Threshold scaling** — higher thresholds mean less backpressured
  residency on the same workload (the knob that trades energy for
  robustness margin).
* **Gossip threshold X (= 2L minimum)** — a larger X fires the
  sledgehammer earlier (more gossip switches under a hotspot), at the
  cost of expanding the backpressured region more eagerly.
"""

from dataclasses import replace

import pytest

from repro import ContentionThresholds, Design, Network, NetworkConfig, RouterClass
from repro.harness import format_table
from repro.memsys import MemorySystem
from repro.traffic.patterns import Hotspot
from repro.traffic.synthetic import OpenLoopSource
from repro.traffic.workloads import WORKLOADS

ALPHAS = (0.9, 0.99, 0.999)
SCALES = (0.5, 1.0, 2.0)
GOSSIP_X = (4, 8, 12)  # 2L, 4L, 6L with L = 2


def _scaled_thresholds(config: NetworkConfig, scale: float):
    return {
        cls: ContentionThresholds(
            high=pair.high * scale, low=pair.low * scale
        )
        for cls, pair in config.thresholds.items()
    }


def _closed_loop_afc(config: NetworkConfig, workload, cycles=8_000, seed=1):
    net = Network(config, Design.AFC, seed=seed)
    system = MemorySystem(net, workload, seed=seed + 7)
    system.run(cycles)
    modes = net.stats.mode_stats.values()
    return {
        "switches": sum(
            m.forward_switches + m.reverse_switches for m in modes
        ),
        "bp_fraction": net.stats.network_backpressured_fraction,
        "performance": system.transactions_per_kilocycle_per_core,
    }


def _hotspot_gossip(config: NetworkConfig, seed=1):
    net = Network(config, Design.AFC, seed=seed)
    source = OpenLoopSource(
        net,
        rate=0.55,
        pattern=Hotspot(net.mesh, hotspot=4, fraction=0.7),
        seed=seed + 13,
        source_queue_limit=400,
    )
    source.run(5_000)
    return net.stats.total_gossip_switches


def _run_sensitivity():
    base = NetworkConfig()
    ocean = WORKLOADS["ocean"]
    alpha_results = {
        alpha: _closed_loop_afc(replace(base, ewma_alpha=alpha), ocean)
        for alpha in ALPHAS
    }
    scale_results = {
        scale: _closed_loop_afc(
            replace(base, thresholds=_scaled_thresholds(base, scale)),
            ocean,
        )
        for scale in SCALES
    }
    gossip_results = {
        x: sum(
            _hotspot_gossip(replace(base, gossip_threshold=x), seed=s)
            for s in (1, 2, 3)
        )
        for x in GOSSIP_X
    }
    return alpha_results, scale_results, gossip_results


def test_design_choice_sensitivity():
    alphas, scales, gossip = _run_sensitivity()
    rows = [
        [
            f"alpha={alpha}",
            f"{r['switches']:.0f}",
            f"{r['bp_fraction']:.3f}",
            f"{r['performance']:.2f}",
        ]
        for alpha, r in alphas.items()
    ] + [
        [
            f"thresholds x{scale}",
            f"{r['switches']:.0f}",
            f"{r['bp_fraction']:.3f}",
            f"{r['performance']:.2f}",
        ]
        for scale, r in scales.items()
    ] + [
        [f"gossip X={x}", f"{count}", "-", "-"]
        for x, count in gossip.items()
    ]
    from _common import report

    report(
        "sensitivity",
        format_table(
            ["configuration", "mode switches", "bp fraction", "perf"],
            rows,
            title="AFC design-choice sensitivity (ocean closed-loop; "
            "hotspot open-loop for gossip X)",
        ),
    )

    # weaker smoothing -> more switches on a threshold-straddling load
    assert alphas[0.9]["switches"] > alphas[0.99]["switches"]
    # stronger smoothing damps switching further (or at least not worse)
    assert alphas[0.999]["switches"] <= alphas[0.99]["switches"]
    # higher thresholds -> less backpressured residency
    assert (
        scales[0.5]["bp_fraction"]
        > scales[1.0]["bp_fraction"]
        > scales[2.0]["bp_fraction"]
    )
    # a larger gossip X fires the sledgehammer at least as often
    assert gossip[12] >= gossip[4]
    # none of the settings break the workload (performance stays sane)
    for r in list(alphas.values()) + list(scales.values()):
        assert r["performance"] > 0
