"""2-D mesh topology.

The paper simulates a 3x3 mesh (conservatively scaled from 16 cores,
Section IV) for the closed-loop experiments and an 8x8 mesh for the
open-loop spatial-variation experiment (Section V-B).  This module
provides coordinates, neighbour maps, and the corner/edge/center router
classification that AFC's contention thresholds are keyed on.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Dict, List, Tuple


class Direction(IntEnum):
    """Network port directions of a mesh router.

    ``LOCAL`` denotes the injection/ejection port pair connecting the
    router to its local client (core + L2 bank).
    """

    EAST = 0
    WEST = 1
    NORTH = 2
    SOUTH = 3
    LOCAL = 4

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITES[self]


#: ``Direction.LOCAL`` bound once: an Enum class-attribute load costs
#: several times a module global, so per-flit paths import this name.
LOCAL = Direction.LOCAL

_OPPOSITES = {
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.LOCAL: Direction.LOCAL,
}

#: The four mesh directions, excluding LOCAL.
NETWORK_DIRECTIONS: Tuple[Direction, ...] = (
    Direction.EAST,
    Direction.WEST,
    Direction.NORTH,
    Direction.SOUTH,
)

#: Coordinate delta per direction; +x is EAST, +y is SOUTH.
_DELTAS = {
    Direction.EAST: (1, 0),
    Direction.WEST: (-1, 0),
    Direction.NORTH: (0, -1),
    Direction.SOUTH: (0, 1),
}


class RouterClass(IntEnum):
    """Positional class of a mesh router; thresholds are scaled by class
    because corner and edge routers have fewer ports (Section III-B)."""

    CORNER = 0
    EDGE = 1
    CENTER = 2


def integer(name: str, value: object) -> int:
    """``value`` as an ``int``: anything ``operator.index`` accepts,
    except ``bool`` (a count or a cycle number is never a flag, and
    ``1.5`` or ``"4"`` is never a count).

    Raises ``ValueError`` naming the field ``name`` and the value.
    """
    try:
        number = operator.index(value)  # type: ignore[arg-type]
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number


def mesh_side(name: str, value: object) -> int:
    """``value`` as a mesh side length: an :func:`integer` of at least 2.

    Raises ``ValueError`` naming the field ``name`` and the value.
    """
    side = integer(name, value)
    if side < 2:
        raise ValueError(f"mesh must be at least 2x2, got {name}={side}")
    return side


@dataclass(frozen=True)
class Mesh:
    """A ``width`` x ``height`` 2-D mesh.

    Nodes are numbered row-major: node ``id = y * width + x``.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        for name in ("width", "height"):
            object.__setattr__(
                self, name, mesh_side(name, getattr(self, name))
            )

    # -- coordinates ------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def coords(self, node: int) -> Tuple[int, int]:
        """Return ``(x, y)`` for a node id."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside mesh of {self.num_nodes} nodes")
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        """Return the node id at coordinates ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    # -- adjacency --------------------------------------------------------
    def neighbor(self, node: int, direction: Direction) -> int:
        """Return the neighbour node id in ``direction``.

        Raises ``ValueError`` if the port faces off the mesh edge or if
        ``direction`` is ``LOCAL``.
        """
        if direction is Direction.LOCAL:
            raise ValueError("LOCAL port has no neighbouring router")
        x, y = self.coords(node)
        dx, dy = _DELTAS[direction]
        return self.node_at(x + dx, y + dy)

    def has_neighbor(self, node: int, direction: Direction) -> bool:
        if direction is Direction.LOCAL:
            return False
        x, y = self.coords(node)
        dx, dy = _DELTAS[direction]
        return 0 <= x + dx < self.width and 0 <= y + dy < self.height

    def network_ports(self, node: int) -> List[Direction]:
        """The network directions that exist at ``node`` (2, 3 or 4)."""
        return list(network_port_table(self)[node])

    def links(self) -> List[Tuple[int, Direction, int]]:
        """All unidirectional links as ``(src_node, direction, dst_node)``."""
        out = []
        for node in range(self.num_nodes):
            for direction in self.network_ports(node):
                out.append((node, direction, self.neighbor(node, direction)))
        return out

    # -- classification ---------------------------------------------------
    def router_class(self, node: int) -> RouterClass:
        """Corner (2 network ports), edge (3), or center (4)."""
        ports = len(self.network_ports(node))
        if ports == 2:
            return RouterClass.CORNER
        if ports == 3:
            return RouterClass.EDGE
        return RouterClass.CENTER

    # -- distances ---------------------------------------------------------
    def hop_distance(self, a: int, b: int) -> int:
        """Minimal (Manhattan) hop count between two nodes."""
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        return abs(ax - bx) + abs(ay - by)

    def quadrant(self, node: int) -> int:
        """Quadrant index 0..3 (used by the consolidation workload of
        Section V-B): 0 = top-left, 1 = top-right, 2 = bottom-left,
        3 = bottom-right.  Odd-sized meshes place the middle row/column
        in the lower/right quadrants."""
        x, y = self.coords(node)
        right = x >= self.width / 2
        bottom = y >= self.height / 2
        return (2 if bottom else 0) + (1 if right else 0)

    def quadrant_nodes(self, quadrant: int) -> List[int]:
        """All node ids belonging to ``quadrant``."""
        if not 0 <= quadrant <= 3:
            raise ValueError(f"quadrant must be 0..3, got {quadrant}")
        return [n for n in range(self.num_nodes) if self.quadrant(n) == quadrant]


@lru_cache(maxsize=64)
def network_port_table(mesh: Mesh) -> Tuple[Tuple[Direction, ...], ...]:
    """Cached per-node tuple of existing network directions."""
    return tuple(
        tuple(
            d for d in NETWORK_DIRECTIONS if mesh.has_neighbor(node, d)
        )
        for node in range(mesh.num_nodes)
    )


def direction_maps(mesh: Mesh) -> Dict[int, Dict[Direction, int]]:
    """Precomputed neighbour table ``{node: {direction: neighbour}}``."""
    return {
        node: {d: mesh.neighbor(node, d) for d in mesh.network_ports(node)}
        for node in range(mesh.num_nodes)
    }
