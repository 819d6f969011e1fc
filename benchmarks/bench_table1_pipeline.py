"""Table I: router pipeline parity.

All three designs implement the same 2-stage pipeline (SA with parallel
lookahead routing, then ST + partial link traversal); the baseline gets
the paper's charitable 0-cycle VC allocation, AFC's backpressured mode
absorbs lazy VC allocation into the buffer write.  Consequently the
zero-load per-hop latency must be *identical* across designs — at zero
load, flow control is invisible, and all measured differences in the
other benchmarks are attributable to contention handling alone.
"""

import pytest

from repro import Design, Network, NetworkConfig, Packet, VirtualNetwork
from repro.harness import format_table

from _common import report

DESIGNS = (
    Design.BACKPRESSURED,
    Design.BACKPRESSURELESS,
    Design.AFC,
    Design.AFC_ALWAYS_BACKPRESSURED,
)
HOPS_CASES = ((0, 1, 1), (0, 2, 2), (0, 4, 2), (0, 8, 4))  # (src, dst, hops)


def _zero_load_latency(design, src, dst):
    net = Network(NetworkConfig(), design, seed=0)
    packet = Packet(
        src=src,
        dst=dst,
        vnet=VirtualNetwork.CONTROL_REQ,
        num_flits=1,
        created_at=0,
    )
    net.interface(src).offer(packet)
    net.drain(max_cycles=1_000)
    return net.stats.avg_network_latency


def _run_pipeline_matrix():
    return {
        design: [
            _zero_load_latency(design, src, dst)
            for src, dst, _ in HOPS_CASES
        ]
        for design in DESIGNS
    }


def test_table1_pipeline_parity():
    matrix = _run_pipeline_matrix()
    rows = []
    for i, (src, dst, hops) in enumerate(HOPS_CASES):
        rows.append(
            [f"{src}->{dst} ({hops} hops)"]
            + [f"{matrix[d][i]:.0f}" for d in DESIGNS]
        )
    report(
        "table1_pipeline",
        format_table(
            ["route"] + [d.value for d in DESIGNS],
            rows,
            title="Table I: zero-load latency (cycles) — identical "
            "2-stage pipelines across designs",
        ),
    )
    per_hop = 1 + NetworkConfig().link_latency  # ST + L (SA overlaps BW)
    for design in DESIGNS:
        for i, (_, _, hops) in enumerate(HOPS_CASES):
            assert matrix[design][i] == hops * per_hop, (
                f"{design.value} at {hops} hops"
            )
