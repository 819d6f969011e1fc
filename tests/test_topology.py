"""Unit tests for the 2-D mesh topology."""

import pytest
from hypothesis import given, strategies as st

from repro import Direction, Mesh, RouterClass
from repro.network.topology import NETWORK_DIRECTIONS, direction_maps


meshes = st.builds(
    Mesh,
    width=st.integers(min_value=2, max_value=8),
    height=st.integers(min_value=2, max_value=8),
)


class TestDirection:
    def test_opposites(self):
        assert Direction.EAST.opposite is Direction.WEST
        assert Direction.WEST.opposite is Direction.EAST
        assert Direction.NORTH.opposite is Direction.SOUTH
        assert Direction.SOUTH.opposite is Direction.NORTH
        assert Direction.LOCAL.opposite is Direction.LOCAL

    def test_network_directions_exclude_local(self):
        assert Direction.LOCAL not in NETWORK_DIRECTIONS
        assert len(NETWORK_DIRECTIONS) == 4


class TestMeshBasics:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Mesh(1, 3)
        with pytest.raises(ValueError):
            Mesh(3, 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("width", 2.5),
            ("height", 2.5),
            ("width", "4"),
            ("height", None),
            ("width", True),
            ("height", False),
            ("width", 1),
            ("height", -3),
        ],
    )
    def test_rejects_bad_side_naming_the_field(self, field, value):
        sides = {"width": 3, "height": 3, field: value}
        with pytest.raises(ValueError, match=field) as raised:
            Mesh(**sides)
        assert str(value) in str(raised.value)

    def test_accepts_index_integers(self):
        class Side:
            def __index__(self):
                return 4

        mesh = Mesh(Side(), 3)
        assert mesh == Mesh(4, 3)
        assert type(mesh.width) is int

    def test_num_nodes(self):
        assert Mesh(3, 3).num_nodes == 9
        assert Mesh(8, 8).num_nodes == 64

    def test_row_major_numbering(self):
        mesh = Mesh(3, 3)
        assert mesh.coords(0) == (0, 0)
        assert mesh.coords(4) == (1, 1)
        assert mesh.coords(8) == (2, 2)
        assert mesh.node_at(2, 1) == 5

    def test_coords_bounds(self):
        mesh = Mesh(3, 3)
        with pytest.raises(ValueError):
            mesh.coords(9)
        with pytest.raises(ValueError):
            mesh.node_at(3, 0)

    @given(meshes, st.data())
    def test_coords_roundtrip(self, mesh, data):
        node = data.draw(st.integers(0, mesh.num_nodes - 1))
        x, y = mesh.coords(node)
        assert mesh.node_at(x, y) == node


class TestAdjacency:
    def test_center_neighbors_3x3(self):
        mesh = Mesh(3, 3)
        assert mesh.neighbor(4, Direction.EAST) == 5
        assert mesh.neighbor(4, Direction.WEST) == 3
        assert mesh.neighbor(4, Direction.NORTH) == 1
        assert mesh.neighbor(4, Direction.SOUTH) == 7

    def test_edge_of_mesh_raises(self):
        mesh = Mesh(3, 3)
        with pytest.raises(ValueError):
            mesh.neighbor(0, Direction.WEST)
        with pytest.raises(ValueError):
            mesh.neighbor(8, Direction.SOUTH)

    def test_local_has_no_neighbor(self):
        with pytest.raises(ValueError):
            Mesh(3, 3).neighbor(4, Direction.LOCAL)

    def test_port_counts(self):
        mesh = Mesh(3, 3)
        assert len(mesh.network_ports(0)) == 2  # corner
        assert len(mesh.network_ports(1)) == 3  # edge
        assert len(mesh.network_ports(4)) == 4  # center

    def test_link_count(self):
        # 2 * (W*(H-1) + H*(W-1)) unidirectional links
        assert len(Mesh(3, 3).links()) == 2 * (3 * 2 + 3 * 2)
        assert len(Mesh(8, 8).links()) == 2 * (8 * 7 + 8 * 7)

    @given(meshes, st.data())
    def test_neighbor_symmetry(self, mesh, data):
        node = data.draw(st.integers(0, mesh.num_nodes - 1))
        for direction in mesh.network_ports(node):
            other = mesh.neighbor(node, direction)
            assert mesh.neighbor(other, direction.opposite) == node

    @given(meshes)
    def test_links_are_consistent_with_ports(self, mesh):
        links = mesh.links()
        assert len(links) == sum(
            len(mesh.network_ports(n)) for n in range(mesh.num_nodes)
        )
        assert len(set(links)) == len(links)

    def test_direction_maps(self):
        mesh = Mesh(2, 2)
        maps = direction_maps(mesh)
        assert maps[0] == {Direction.EAST: 1, Direction.SOUTH: 2}


class TestRouterClass:
    def test_3x3_classes(self):
        mesh = Mesh(3, 3)
        assert mesh.router_class(0) is RouterClass.CORNER
        assert mesh.router_class(2) is RouterClass.CORNER
        assert mesh.router_class(6) is RouterClass.CORNER
        assert mesh.router_class(8) is RouterClass.CORNER
        for edge in (1, 3, 5, 7):
            assert mesh.router_class(edge) is RouterClass.EDGE
        assert mesh.router_class(4) is RouterClass.CENTER

    def test_2x2_all_corners(self):
        mesh = Mesh(2, 2)
        for n in range(4):
            assert mesh.router_class(n) is RouterClass.CORNER

    @given(meshes)
    def test_class_counts(self, mesh):
        classes = [mesh.router_class(n) for n in range(mesh.num_nodes)]
        assert classes.count(RouterClass.CORNER) == 4
        interior = (mesh.width - 2) * (mesh.height - 2)
        assert classes.count(RouterClass.CENTER) == interior


class TestDistancesAndQuadrants:
    def test_hop_distance(self):
        mesh = Mesh(3, 3)
        assert mesh.hop_distance(0, 8) == 4
        assert mesh.hop_distance(0, 0) == 0
        assert mesh.hop_distance(3, 5) == 2

    @given(meshes, st.data())
    def test_hop_distance_symmetric(self, mesh, data):
        a = data.draw(st.integers(0, mesh.num_nodes - 1))
        b = data.draw(st.integers(0, mesh.num_nodes - 1))
        assert mesh.hop_distance(a, b) == mesh.hop_distance(b, a)

    def test_quadrants_8x8(self):
        mesh = Mesh(8, 8)
        assert mesh.quadrant(0) == 0
        assert mesh.quadrant(7) == 1
        assert mesh.quadrant(56) == 2
        assert mesh.quadrant(63) == 3
        for q in range(4):
            assert len(mesh.quadrant_nodes(q)) == 16

    def test_quadrants_partition(self):
        mesh = Mesh(8, 8)
        all_nodes = sorted(
            n for q in range(4) for n in mesh.quadrant_nodes(q)
        )
        assert all_nodes == list(range(64))

    def test_quadrant_bounds(self):
        with pytest.raises(ValueError):
            Mesh(4, 4).quadrant_nodes(4)
