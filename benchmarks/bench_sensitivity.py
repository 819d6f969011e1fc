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

from repro import ContentionThresholds, Design, Network, NetworkConfig
from repro.harness import format_table
from repro.memsys import MemorySystem
from repro.traffic.patterns import Hotspot
from repro.traffic.synthetic import OpenLoopSource
from repro.traffic.workloads import WORKLOADS

from _common import call, read, report

ALPHAS = (0.9, 0.99, 0.999)
SCALES = (0.5, 1.0, 2.0)
GOSSIP_X = (4, 8, 12)  # 2L, 4L, 6L with L = 2


def _closed_loop_afc(alpha: float, scale: float, seed=1):
    """AFC on ocean, closed loop, with EWMA ``alpha`` and thresholds
    scaled by ``scale``."""
    base = NetworkConfig()
    thresholds = {
        cls: ContentionThresholds(high=pair.high * scale, low=pair.low * scale)
        for cls, pair in base.thresholds.items()
    }
    config = replace(base, ewma_alpha=alpha, thresholds=thresholds)
    net = Network(config, Design.AFC, seed=seed)
    system = MemorySystem(net, WORKLOADS["ocean"], seed=seed + 7)
    system.run(8_000)
    modes = net.stats.mode_stats.values()
    return {
        "switches": sum(
            m.forward_switches + m.reverse_switches for m in modes
        ),
        "bp_fraction": net.stats.network_backpressured_fraction,
        "performance": system.transactions_per_kilocycle_per_core,
    }


def _gossip_count(gossip_threshold: int, seed: int):
    config = replace(NetworkConfig(), gossip_threshold=gossip_threshold)
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


ALPHA = NetworkConfig().ewma_alpha
#: Ocean closed-loop runs by configuration.
CLOSED = {
    **{f"alpha={a}": call(_closed_loop_afc, a, 1.0) for a in ALPHAS},
    **{f"thresholds x{s}": call(_closed_loop_afc, ALPHA, s) for s in SCALES},
}
#: Hotspot open-loop gossip switch counts, one cell per seed, by X.
GOSSIP = {x: [call(_gossip_count, x, s) for s in (1, 2, 3)] for x in GOSSIP_X}


def test_design_choice_sensitivity():
    closed = read(CLOSED)
    gossip = {x: sum(counts) for x, counts in read(GOSSIP).items()}
    rows = [
        [
            label,
            f"{r['switches']:.0f}",
            f"{r['bp_fraction']:.3f}",
            f"{r['performance']:.2f}",
        ]
        for label, r in closed.items()
    ] + [
        [f"gossip X={x}", f"{count}", "-", "-"]
        for x, count in gossip.items()
    ]
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
    assert closed["alpha=0.9"]["switches"] > closed["alpha=0.99"]["switches"]
    # stronger smoothing damps switching further (or at least not worse)
    assert (
        closed["alpha=0.999"]["switches"] <= closed["alpha=0.99"]["switches"]
    )
    # higher thresholds -> less backpressured residency
    assert (
        closed["thresholds x0.5"]["bp_fraction"]
        > closed["thresholds x1.0"]["bp_fraction"]
        > closed["thresholds x2.0"]["bp_fraction"]
    )
    # a larger gossip X fires the sledgehammer at least as often
    assert gossip[12] >= gossip[4]
    # none of the settings break the workload (performance stays sane)
    assert all(r["performance"] > 0 for r in closed.values())
