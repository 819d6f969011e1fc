"""Open-loop synthetic packet sources.

An :class:`OpenLoopSource` offers packets to the network's interfaces at
a fixed rate, independent of delivery — the classic open-loop
methodology the paper uses for its saturation sweeps and the
spatial-variation experiment.  Rates are specified in flits/node/cycle
(the paper's unit, Table III); the source converts them to per-cycle
packet-injection probabilities through the configured packet mix.

Call :meth:`OpenLoopSource.tick` once per cycle *before*
:meth:`Network.step` so freshly offered packets can inject in the same
cycle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..domain import Integer, Real, validate
from ..network.config import NetworkConfig
from ..network.flit import Packet, VirtualNetwork
from ..network.interface import discard_completed
from ..simulation import Network
from .patterns import TrafficPattern, UniformRandom


#: A per-node source backlog bound in flits, or ``None`` for none (a
#: negative cap would offer nothing).
QUEUE_LIMIT = Integer(0, optional=True)


@dataclass(frozen=True)
class PacketMix:
    """Composition of synthetic traffic.

    ``data_packet_fraction`` of packets are data-sized (DATA vnet); the
    rest are control-sized, split evenly between the two control vnets.
    The default fraction (0.25) puts ~75 % of *flits* in data packets,
    roughly matching coherence traffic where most flits belong to
    cache-line transfers.
    """

    data_packet_fraction: float = Real(0.0, 1.0).field(0.25)

    def __post_init__(self) -> None:
        validate(self)

    def mean_packet_flits(self, config: NetworkConfig) -> float:
        return (
            self.data_packet_fraction * config.data_packet_flits
            + (1.0 - self.data_packet_fraction) * config.control_packet_flits
        )

    def draw(
        self, config: NetworkConfig, rng: random.Random
    ) -> "tuple[VirtualNetwork, int]":
        """Sample (vnet, num_flits) for one packet."""
        if rng.random() < self.data_packet_fraction:
            return VirtualNetwork.DATA, config.data_packet_flits
        vnet = (
            VirtualNetwork.CONTROL_REQ
            if rng.random() < 0.5
            else VirtualNetwork.CONTROL_RESP
        )
        return vnet, config.control_packet_flits


class OpenLoopSource:
    """Bernoulli open-loop injector for a whole network.

    ``rate`` may be a single flits/node/cycle value or a per-node
    sequence (the spatial-variation experiment injects 0.9 in one
    quadrant and 0.1 in the others).
    """

    def __init__(
        self,
        network: Network,
        rate: Union[float, Sequence[float]],
        pattern: Optional[TrafficPattern] = None,
        mix: PacketMix = PacketMix(),
        seed: int = 0,
        source_queue_limit: Optional[int] = None,
    ) -> None:
        self.network = network
        self.config = network.config
        self.mesh = network.mesh
        self.pattern = pattern or UniformRandom(self.mesh)
        self.mix = mix
        self.rng = random.Random(f"traffic:{seed}")
        #: Cap on per-node source-queue flits; once a node's queue is
        #: beyond the cap the source stops offering there (prevents
        #: unbounded memory growth when sweeping past saturation).
        self.source_queue_limit = QUEUE_LIMIT.check(
            "source_queue_limit", source_queue_limit
        )
        num_nodes = self.mesh.num_nodes
        if isinstance(rate, (int, float)):
            rates = [float(rate)] * num_nodes
        else:
            rates = [float(r) for r in rate]
            if len(rates) != num_nodes:
                raise ValueError(
                    f"need {num_nodes} per-node rates, got {len(rates)}"
                )
        bad = next((r for r in rates if not math.isfinite(r) or r < 0), None)
        if bad is not None:
            raise ValueError(
                f"rate must be finite and non-negative (got {bad}): "
                "a NaN rate would offer a packet at every node every cycle"
            )
        mean_flits = self.mix.mean_packet_flits(self.config)
        #: Per-node probability of generating a packet each cycle.
        self._packet_prob = [r / mean_flits for r in rates]
        if any(p > 1.0 for p in self._packet_prob):
            raise ValueError(
                "rate too high for Bernoulli injection: at most one "
                f"packet/node/cycle (= {mean_flits:.1f} flits/node/cycle)"
            )
        self.offered_packets = 0
        # Nothing reads an open-loop run's completions: an NI without a
        # client callback frees each packet instead of queueing it for
        # a poll that never comes (repro.network.interface).
        for ni in network.interfaces:
            if ni.on_packet is None:
                ni.on_packet = discard_completed

    def tick(self) -> None:
        """Offer this cycle's packets (call once per cycle before
        ``network.step()``)."""
        cycle = self.network.cycle
        draw = self.rng.random
        interfaces = self.network.interfaces
        limit = self.source_queue_limit
        for node, prob in enumerate(self._packet_prob):
            if prob <= 0.0 or draw() >= prob:
                continue
            ni = interfaces[node]
            if limit is not None and ni.source_queue_flits > limit:
                continue
            dst = self.pattern.destination(node, self.rng)
            if dst is None or dst == node:
                continue
            vnet, num_flits = self.mix.draw(self.config, self.rng)
            ni.offer(
                Packet(
                    src=node,
                    dst=dst,
                    vnet=vnet,
                    num_flits=num_flits,
                    created_at=cycle,
                    kind="synthetic",
                )
            )
            self.offered_packets += 1

    def run(self, cycles: int) -> None:
        """Convenience: interleave tick and network step."""
        for _ in range(cycles):
            self.tick()
            self.network.step()
        self.network.sync_bookkeeping()

    def rng_streams(self) -> tuple:
        """Every random stream this source draws from."""
        return (self.rng,)


def uniform_random_traffic(
    network: Network, rate: float, seed: int = 0, **kwargs
) -> OpenLoopSource:
    """Shorthand for the most common sweep configuration."""
    return OpenLoopSource(
        network, rate, pattern=UniformRandom(network.mesh), seed=seed, **kwargs
    )
