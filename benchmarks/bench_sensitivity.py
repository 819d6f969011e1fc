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

from repro import ContentionThresholds, Design, NetworkConfig
from repro.harness import format_table
from repro.traffic.patterns import HotspotSpec

from _common import read, report, spec

ALPHAS = (0.9, 0.99, 0.999)
SCALES = (0.5, 1.0, 2.0)
GOSSIP_X = (4, 8, 12)  # 2L, 4L, 6L with L = 2


def _ocean(alpha: float, scale: float):
    """AFC on ocean, closed loop for 8 000 cycles, with EWMA ``alpha``
    and thresholds scaled by ``scale``."""
    base = NetworkConfig()
    thresholds = {
        cls: ContentionThresholds(high=pair.high * scale, low=pair.low * scale)
        for cls, pair in base.thresholds.items()
    }
    config = replace(base, ewma_alpha=alpha, thresholds=thresholds)
    return spec(
        design=Design.AFC,
        workload="ocean",
        config=config,
        warmup_cycles=0,
        measure_cycles=8_000,
        base_seed=1,
    )


def _gossip(gossip_threshold: int, seed: int):
    """AFC under a hotspot at 0.55 for 5 000 cycles, with gossip X."""
    return spec(
        kind="open_loop",
        design=Design.AFC,
        config=NetworkConfig(gossip_threshold=gossip_threshold),
        rate=0.55,
        pattern=HotspotSpec(node=4, fraction=0.7),
        source_queue_limit=400,
        warmup_cycles=0,
        measure_cycles=5_000,
        base_seed=seed,
    )


ALPHA = NetworkConfig().ewma_alpha
#: Ocean closed-loop runs by configuration.
CLOSED = {
    **{f"alpha={a}": _ocean(a, 1.0) for a in ALPHAS},
    **{f"thresholds x{s}": _ocean(ALPHA, s) for s in SCALES},
}
#: Hotspot open-loop runs, one cell per seed, by X.
GOSSIP = {x: [_gossip(x, s) for s in (1, 2, 3)] for x in GOSSIP_X}


def test_design_choice_sensitivity():
    closed = {
        label: {
            "switches": r.forward_switches + r.reverse_switches,
            "bp_fraction": r.backpressured_fraction,
            "performance": r.performance,
        }
        for label, r in read(CLOSED).items()
    }
    gossip = {
        x: sum(r.gossip_switches for r in runs)
        for x, runs in read(GOSSIP).items()
    }
    rows = [
        [
            label,
            f"{r['switches']:.0f}",
            f"{r['bp_fraction']:.3f}",
            f"{r['performance']:.2f}",
        ]
        for label, r in closed.items()
    ] + [
        [f"gossip X={x}", f"{count:.0f}", "-", "-"]
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
