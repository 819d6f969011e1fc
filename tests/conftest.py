"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

import pytest

import repro
from repro import (
    Design,
    Direction,
    Network,
    NetworkConfig,
    Packet,
    VirtualNetwork,
)
from repro.network.energy_hooks import EnergyMeter
from repro.network.flit import reset_packet_ids


ALL_DESIGNS = list(Design)

#: The three genuinely distinct router datapaths (ideal-bypass shares
#: the baseline's, always-backpressured shares AFC's).
DATAPATH_DESIGNS = [
    Design.BACKPRESSURED,
    Design.BACKPRESSURELESS,
    Design.AFC,
]


@pytest.fixture(autouse=True)
def _fresh_packet_ids():
    """Keep packet ids deterministic per test."""
    reset_packet_ids()
    yield


@pytest.fixture
def config() -> NetworkConfig:
    return NetworkConfig()


def run_python(*args, cwd=None, **env) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this
    checkout's ``repro``; ``env`` entries override the environment."""
    src_dir = str(Path(repro.__file__).parent.parent)
    pythonpath = src_dir + os.pathsep + os.environ.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath, **env},
    )


def make_network(
    design: Design,
    config: Optional[NetworkConfig] = None,
    seed: int = 1,
    **kwargs,
) -> Network:
    return Network(config or NetworkConfig(), design, seed=seed, **kwargs)


def offer_random_burst(
    net: Network,
    num_packets: int,
    seed: int = 7,
    data_fraction: float = 0.3,
) -> List[Packet]:
    """Queue a random batch of packets at cycle 0."""
    rng = random.Random(seed)
    cfg = net.config
    n = net.mesh.num_nodes
    packets = []
    for _ in range(num_packets):
        src = rng.randrange(n)
        dst = rng.randrange(n - 1)
        dst = dst if dst < src else dst + 1
        if rng.random() < data_fraction:
            vnet, flits = VirtualNetwork.DATA, cfg.data_packet_flits
        else:
            vnet = rng.choice(
                [VirtualNetwork.CONTROL_REQ, VirtualNetwork.CONTROL_RESP]
            )
            flits = cfg.control_packet_flits
        packet = Packet(
            src=src,
            dst=dst,
            vnet=vnet,
            num_flits=flits,
            created_at=net.cycle,
        )
        net.interface(src).offer(packet)
        packets.append(packet)
    return packets


def single_packet_network(
    design: Design,
    src: int = 0,
    dst: int = 8,
    num_flits: int = 2,
    vnet: VirtualNetwork = VirtualNetwork.CONTROL_REQ,
    config: Optional[NetworkConfig] = None,
) -> tuple:
    """A network with exactly one packet queued; returns (net, packet)."""
    net = make_network(design, config=config)
    packet = Packet(
        src=src, dst=dst, vnet=vnet, num_flits=num_flits, created_at=0
    )
    net.interface(src).offer(packet)
    return net, packet


def event_counts(meter: EnergyMeter) -> dict:
    """The non-zero event counters of an energy meter, by name."""
    return {
        name: count
        for name, count in zip(meter.COUNTERS, meter.counts())
        if count
    }


def ports_used(router) -> list:
    """Output ports of ``router`` with a flit on their wire, sorted."""
    return sorted(
        port
        for port, channel in router.out_channels.items()
        if channel.flits_in_flight
    )


def rng_twin(rng: random.Random) -> random.Random:
    """An independent generator in exactly ``rng``'s current state."""
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def assert_occupancy_mirrors(net: Network) -> None:
    """Every counter a router fast path reads instead of its container
    equals a recount, and the engine's awake list equals its flags."""
    for router in net.routers:
        ports = getattr(router, "_input_ports", {})
        if hasattr(router, "_bank"):  # AFC: router-wide lazy-VC total
            per_port = [len(port.flits()) for port in ports.values()]
            assert [p._count for p in ports.values()] == per_port
            assert router._bank.flits == sum(per_port)
        elif hasattr(router, "_buffered"):  # baseline: per-port VC mask
            total = unallocated = 0
            for port in ports.values():
                mask = 0
                for idx, vc in enumerate(port.vcs):
                    total += len(vc.queue)
                    if vc.queue:
                        mask |= 1 << idx
                        if vc.out_port is None or (
                            vc.out_port is not Direction.LOCAL
                            and vc.out_vc is None
                        ):
                            unallocated += 1
                assert port.occupied == mask
            assert router._buffered == total
            assert router._unallocated == unallocated
    assert net._awake == [
        node for node, asleep in enumerate(net._asleep) if not asleep
    ]
