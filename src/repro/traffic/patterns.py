"""Destination patterns for synthetic traffic.

A :class:`TrafficPattern` maps a source node to a destination node,
possibly randomly.  Patterns are mesh-aware where the classic definition
is coordinate-based (transpose) and include the paper's quadrant-local
consolidation pattern (Section V-B), where "traffic injected in a
quadrant stayed within the quadrant (except possibly due to
misrouting)".
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..domain import Integer, Real, validate
from ..network.topology import Mesh

#: The share of packets a :class:`HotspotPattern` aims at its hotspot.
HOTSPOT_FRACTION = Real(0.0, 1.0)


class TrafficPattern(ABC):
    """Source → destination mapping for one mesh."""

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh

    @abstractmethod
    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        """Destination for a packet injected at ``src``.

        ``None`` means the pattern generates no traffic at this source
        (e.g. transpose at a diagonal node).
        """


class UniformRandom(TrafficPattern):
    """Uniform random over all nodes except the source."""

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        dst = rng.randrange(self.mesh.num_nodes - 1)
        return dst if dst < src else dst + 1


class Transpose(TrafficPattern):
    """(x, y) → (y, x); diagonal nodes generate no traffic.

    Only defined for square meshes.
    """

    def __init__(self, mesh: Mesh) -> None:
        super().__init__(mesh)
        if mesh.width != mesh.height:
            raise ValueError("transpose requires a square mesh")

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        x, y = self.mesh.coords(src)
        if x == y:
            return None
        return self.mesh.node_at(y, x)


class BitComplement(TrafficPattern):
    """Node i → node (N - 1 - i); the center of an odd mesh is silent."""

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        dst = self.mesh.num_nodes - 1 - src
        return None if dst == src else dst


class Hotspot(TrafficPattern):
    """With probability ``fraction``, send to ``hotspot``; else uniform.

    Used by the gossip-induced-switch experiment: the paper observed
    gossip switches only "in an open-loop network experiment which
    created hotspots" (Section V-A).
    """

    def __init__(
        self, mesh: Mesh, hotspot: int, fraction: float = 0.5
    ) -> None:
        super().__init__(mesh)
        self.hotspot = hotspot
        self.fraction = HOTSPOT_FRACTION.check("fraction", fraction)
        self._uniform = UniformRandom(mesh)

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        if src != self.hotspot and rng.random() < self.fraction:
            return self.hotspot
        return self._uniform.destination(src, rng)


@dataclass(frozen=True)
class HotspotSpec:
    """A :class:`Hotspot` pattern before it has a mesh: what a job spec
    carries, sends and hashes (``None`` there is uniform random)."""

    node: int = Integer(0).field(0)
    fraction: float = HOTSPOT_FRACTION.field(0.5)

    def __post_init__(self) -> None:
        validate(self)

    def on(self, mesh: Mesh) -> Hotspot:
        """The pattern on ``mesh``."""
        return Hotspot(mesh, self.node, self.fraction)


class NearNeighbor(TrafficPattern):
    """Uniform over the source's mesh neighbours ("easy" traffic;
    Section III-B discusses why such patterns could in principle fool a
    traffic-intensity metric)."""

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        ports = self.mesh.network_ports(src)
        return self.mesh.neighbor(src, rng.choice(ports))


class Tornado(TrafficPattern):
    """Each node sends halfway around its row: (x, y) → (x + ⌈W/2⌉ − 1
    mod W, y).  Adversarial for dimension-ordered routing — it loads the
    horizontal links asymmetrically."""

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        x, y = self.mesh.coords(src)
        shift = max(1, (self.mesh.width + 1) // 2 - 1)
        dst = self.mesh.node_at((x + shift) % self.mesh.width, y)
        return None if dst == src else dst


class BitReverse(TrafficPattern):
    """Node i → bit-reversal of i (classic permutation; defined for
    power-of-two node counts)."""

    def __init__(self, mesh: Mesh) -> None:
        super().__init__(mesh)
        n = mesh.num_nodes
        if n & (n - 1):
            raise ValueError("bit-reverse needs a power-of-two node count")
        self._bits = n.bit_length() - 1

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        dst = 0
        value = src
        for _ in range(self._bits):
            dst = (dst << 1) | (value & 1)
            value >>= 1
        return None if dst == src else dst


class Shuffle(TrafficPattern):
    """Perfect shuffle: node i → (2i mod N-1), with node N-1 fixed
    (defined for any mesh; fixed points generate no traffic)."""

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        n = self.mesh.num_nodes
        if src == n - 1:
            return None
        dst = (2 * src) % (n - 1)
        return None if dst == src else dst


class QuadrantLocal(TrafficPattern):
    """Uniform random within the source's own quadrant (Section V-B's
    consolidation workload: one application per quadrant)."""

    def __init__(self, mesh: Mesh) -> None:
        super().__init__(mesh)
        self._members: Dict[int, List[int]] = {
            q: mesh.quadrant_nodes(q) for q in range(4)
        }

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        candidates = [
            n for n in self._members[self.mesh.quadrant(src)] if n != src
        ]
        if not candidates:
            return None
        return rng.choice(candidates)
