"""A network's host memory tracks what it holds, not how long it ran.

An open-loop run used to queue every packet it delivered on its NIs'
poll queues, which nothing drains, so its memory grew with run length
(about 0.6 MB per 1 000 cycles on an 8x8 mesh at 0.2 flits/node/cycle).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import Design, Network, NetworkConfig
from repro.network.interface import discard_completed
from repro.traffic.synthetic import OpenLoopSource

#: Cycles per half of the no-growth run.
T = 500
#: Allowed traced growth from cycle T to cycle 2T.  What legitimately
#: grows is the stats' per-packet latency sample (8 bytes a packet,
#: ~1 100 packets per half here, plus the list's over-allocation) and
#: the swing of what is in flight at either instant.  Measured growth
#: stays under 64 KiB on seeds 1-3; keeping every completed packet
#: added 300-450 KB per half.
GROWTH_BOUND = 128 * 1024


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC],
    ids=lambda d: d.value,
)
def test_open_loop_memory_does_not_grow(design):
    gc.collect()
    tracemalloc.start()
    try:
        net = Network(NetworkConfig(width=8, height=8), design, seed=1)
        source = OpenLoopSource(net, 0.2, seed=1)
        source.run(T)
        gc.collect()
        at_t = tracemalloc.get_traced_memory()[0]
        source.run(T)
        gc.collect()
        at_2t = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert net.stats.packets_completed > 2000  # a steady, loaded run
    assert at_2t - at_t <= GROWTH_BOUND, (
        f"traced memory grew {at_2t - at_t} B from cycle {T} to {2 * T}"
    )


def test_open_loop_source_discards_only_unclaimed_completions():
    net = Network(NetworkConfig(width=3, height=3), Design.BACKPRESSURED)
    received = []
    net.interface(4).on_packet = received.append
    source = OpenLoopSource(net, 0.3, seed=2)
    assert net.interface(4).on_packet == received.append
    assert all(
        ni.on_packet is discard_completed
        for node, ni in enumerate(net.interfaces)
        if node != 4
    )
    source.run(300)
    assert received
    assert not any(ni.completed for ni in net.interfaces)


def test_polling_client_keeps_its_completions():
    """Resetting ``on_packet`` after building a source is how a client
    polls an open-loop run (docs/EXTENDING.md)."""
    net = Network(NetworkConfig(width=3, height=3), Design.BACKPRESSURELESS)
    source = OpenLoopSource(net, 0.3, seed=2)
    for ni in net.interfaces:
        ni.on_packet = None
    source.run(300)
    polled = sum(len(ni.drain_completed()) for ni in net.interfaces)
    assert polled == net.stats.packets_completed > 0
    assert not any(ni.completed for ni in net.interfaces)
