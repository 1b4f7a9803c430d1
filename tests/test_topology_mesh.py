"""Tests for the n-dimensional mesh topology."""

import pytest

from repro.network.topology import (
    LOCAL_PORT,
    MeshTopology,
    Topology,
    port_direction,
    port_for,
)


def test_port_numbering_convention():
    assert LOCAL_PORT == 0
    assert port_for(0, positive=True) == 1   # +X / East
    assert port_for(0, positive=False) == 2  # -X / West
    assert port_for(1, positive=True) == 3   # +Y / North
    assert port_for(1, positive=False) == 4  # -Y / South


def test_port_direction_round_trips():
    for dimension in range(3):
        for positive in (True, False):
            port = port_for(dimension, positive)
            assert port_direction(port) == (dimension, 1 if positive else -1)


def test_port_direction_rejects_local_port():
    with pytest.raises(ValueError):
        port_direction(LOCAL_PORT)


def test_mesh_counts_and_radix(mesh4x4):
    assert mesh4x4.num_nodes == 16
    assert mesh4x4.n_dims == 2
    assert mesh4x4.radix == 5


def test_mesh_rejects_degenerate_dimensions():
    with pytest.raises(ValueError):
        MeshTopology((1, 4))
    with pytest.raises(ValueError):
        MeshTopology(())


def test_coordinates_and_node_id_are_inverses(mesh4x4):
    for node in range(mesh4x4.num_nodes):
        assert mesh4x4.node_id(mesh4x4.coordinates(node)) == node


def test_coordinate_layout_dimension_zero_fastest(mesh4x4):
    assert mesh4x4.coordinates(0) == (0, 0)
    assert mesh4x4.coordinates(1) == (1, 0)
    assert mesh4x4.coordinates(4) == (0, 1)
    assert mesh4x4.node_id((3, 3)) == 15


def test_node_id_validates_bounds(mesh4x4):
    with pytest.raises(ValueError):
        mesh4x4.node_id((4, 0))
    with pytest.raises(ValueError):
        mesh4x4.node_id((0,))


def test_neighbors_interior_node(mesh4x4):
    node = mesh4x4.node_id((1, 1))
    assert mesh4x4.neighbor(node, port_for(0, True)) == mesh4x4.node_id((2, 1))
    assert mesh4x4.neighbor(node, port_for(0, False)) == mesh4x4.node_id((0, 1))
    assert mesh4x4.neighbor(node, port_for(1, True)) == mesh4x4.node_id((1, 2))
    assert mesh4x4.neighbor(node, port_for(1, False)) == mesh4x4.node_id((1, 0))


def test_neighbors_missing_at_mesh_edges(mesh4x4):
    corner = mesh4x4.node_id((0, 0))
    assert mesh4x4.neighbor(corner, port_for(0, False)) is None
    assert mesh4x4.neighbor(corner, port_for(1, False)) is None
    assert mesh4x4.neighbor(corner, port_for(0, True)) is not None


def test_neighbor_of_local_port_is_none(mesh4x4):
    assert mesh4x4.neighbor(5, LOCAL_PORT) is None


def test_reverse_port_pairs_up(mesh4x4):
    assert mesh4x4.reverse_port(port_for(0, True)) == port_for(0, False)
    assert mesh4x4.reverse_port(port_for(1, False)) == port_for(1, True)


def test_links_are_consistent_with_neighbors(mesh4x4):
    links = list(mesh4x4.links())
    # A 4x4 mesh has 2 * (3*4 + 3*4) = 48 unidirectional links.
    assert len(links) == 48
    for node, port, neighbor, neighbor_port in links:
        assert mesh4x4.neighbor(node, port) == neighbor
        assert mesh4x4.neighbor(neighbor, neighbor_port) == node


def test_relative_signs(mesh4x4):
    origin = mesh4x4.node_id((1, 1))
    assert mesh4x4.relative_signs(origin, mesh4x4.node_id((3, 2))) == (1, 1)
    assert mesh4x4.relative_signs(origin, mesh4x4.node_id((0, 1))) == (-1, 0)
    assert mesh4x4.relative_signs(origin, origin) == (0, 0)


def test_minimal_ports_quadrant_and_axis(mesh4x4):
    origin = mesh4x4.node_id((1, 1))
    northeast = mesh4x4.node_id((3, 3))
    assert set(mesh4x4.minimal_ports(origin, northeast)) == {
        port_for(0, True),
        port_for(1, True),
    }
    east_only = mesh4x4.node_id((3, 1))
    assert mesh4x4.minimal_ports(origin, east_only) == (port_for(0, True),)
    assert mesh4x4.minimal_ports(origin, origin) == (LOCAL_PORT,)


def test_dimension_order_port_prefers_x_first(mesh4x4):
    origin = mesh4x4.node_id((1, 1))
    assert mesh4x4.dimension_order_port(origin, mesh4x4.node_id((3, 3))) == port_for(0, True)
    assert mesh4x4.dimension_order_port(origin, mesh4x4.node_id((1, 3))) == port_for(1, True)
    assert mesh4x4.dimension_order_port(origin, origin) == LOCAL_PORT


def test_distance_is_manhattan(mesh4x4):
    assert mesh4x4.distance(mesh4x4.node_id((0, 0)), mesh4x4.node_id((3, 3))) == 6
    assert mesh4x4.distance(mesh4x4.node_id((2, 1)), mesh4x4.node_id((2, 1))) == 0


def _pair_walk_average(topology):
    nodes = range(topology.num_nodes)
    total = sum(topology.distance(a, b) for a in nodes for b in nodes if a != b)
    return total / (topology.num_nodes * (topology.num_nodes - 1))


@pytest.mark.parametrize(
    "dims", [(7,), (2,), (2, 2), (2, 5), (5, 3), (3, 3), (16, 16), (3, 4, 2)]
)
def test_closed_form_average_distance_equals_pair_walk(dims):
    mesh = MeshTopology(dims)
    # Exact float equality: both are one correctly rounded integer division.
    assert mesh.average_distance() == _pair_walk_average(mesh)


def test_average_distance_known_value():
    # A line of k nodes averages (k + 1) / 3 hops over ordered distinct pairs.
    assert MeshTopology((7,)).average_distance() == pytest.approx(8 / 3)


class _KingTopology(Topology):
    """A test-only mesh-wired topology whose distance is the Chebyshev
    (king-move) metric, which has no closed form in the library."""

    def __init__(self, dims):
        self.distance_calls = 0
        super().__init__(dims)

    def _compute_neighbor(self, node, port):
        return MeshTopology._compute_neighbor(self, node, port)

    def distance(self, source, destination):
        self.distance_calls += 1
        return max(
            abs(a - b)
            for a, b in zip(self.coordinates(source), self.coordinates(destination))
        )


def test_topology_without_closed_form_falls_back_to_pair_walk():
    king = _KingTopology((4, 3))
    average = king.average_distance()
    assert king.distance_calls == 12 * 11
    assert average == _pair_walk_average(king)


def test_bisection_and_saturation_rate():
    mesh = MeshTopology((16, 16))
    assert mesh.bisection_channels() == 32
    assert mesh.saturation_flit_rate() == pytest.approx(0.25)
    rectangular = MeshTopology((8, 4))
    # The binding cut is across the longer (8-wide) dimension.
    assert rectangular.bisection_channels() == 2 * 4
    assert rectangular.saturation_flit_rate() == pytest.approx(0.5)


def test_three_dimensional_mesh():
    mesh = MeshTopology((3, 3, 3))
    assert mesh.num_nodes == 27
    assert mesh.radix == 7
    center = mesh.node_id((1, 1, 1))
    corner = mesh.node_id((2, 2, 2))
    assert mesh.distance(center, corner) == 3
    assert len(mesh.minimal_ports(center, corner)) == 3
