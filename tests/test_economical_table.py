"""Tests for the economical-storage (sign-indexed) routing table."""

import pytest

from repro.network.topology import LOCAL_PORT, MeshTopology, TorusTopology, port_for
from repro.routing import providers
from repro.routing.providers import (
    dimension_order_provider,
    minimal_adaptive_provider,
    negative_first_provider,
    north_last_provider,
    west_first_provider,
)
from repro.tables.base import TableProgrammingError
from repro.tables.economical import EconomicalStorageTable, sign_class_representatives
from repro.tables.full_table import FullRoutingTable

EAST = port_for(0, True)
WEST = port_for(0, False)
NORTH = port_for(1, True)
SOUTH = port_for(1, False)


@pytest.fixture
def mesh():
    return MeshTopology((4, 4))


def test_entry_count_matches_paper_claim(mesh):
    table = EconomicalStorageTable(mesh)
    assert table.entries_per_router() == 9
    three_d = EconomicalStorageTable(MeshTopology((3, 3, 3)))
    assert three_d.entries_per_router() == 27


def test_lookup_equals_full_table_for_every_pair(mesh):
    economical = EconomicalStorageTable(mesh)
    full = FullRoutingTable(mesh)
    for source in range(mesh.num_nodes):
        for destination in range(mesh.num_nodes):
            assert set(economical.lookup(source, destination)) == set(
                full.lookup(source, destination)
            ), (source, destination)


def test_index_of_is_the_sign_pair(mesh):
    table = EconomicalStorageTable(mesh)
    origin = mesh.node_id((1, 1))
    assert table.index_of(origin, mesh.node_id((3, 0))) == (1, -1)
    assert table.index_of(origin, origin) == (0, 0)


def test_quadrant_axis_and_local_entries(mesh):
    table = EconomicalStorageTable(mesh)
    origin = mesh.node_id((1, 1))
    assert set(table.entry(origin, (1, 1))) == {EAST, NORTH}
    assert table.entry(origin, (1, 0)) == (EAST,)
    assert table.entry(origin, (0, -1)) == (SOUTH,)
    assert table.entry(origin, (0, 0)) == (LOCAL_PORT,)


def test_corner_node_unreachable_patterns_get_geometric_defaults():
    mesh = MeshTopology((3, 3))
    table = EconomicalStorageTable(mesh)
    corner = mesh.node_id((0, 0))
    # No destination lies south-west of the origin corner, but the entry is
    # still programmed (and never consulted).
    assert set(table.entry(corner, (-1, -1))) == {WEST, SOUTH}


def test_north_last_programming_matches_figure7():
    mesh = MeshTopology((3, 3))
    table = EconomicalStorageTable(mesh, provider=north_last_provider(mesh))
    node = mesh.node_id((1, 1))
    # North-east and north-west quadrants lose the +Y (North) choice.
    assert table.entry(node, (1, 1)) == (EAST,)
    assert table.entry(node, (-1, 1)) == (WEST,)
    # Straight north keeps its only (allowed) port.
    assert table.entry(node, (0, 1)) == (NORTH,)
    # Southern quadrants keep both choices.
    assert set(table.entry(node, (1, -1))) == {EAST, SOUTH}


def test_reprogram_entry(mesh):
    table = EconomicalStorageTable(mesh)
    node = mesh.node_id((1, 1))
    table.reprogram(node, (1, 1), (EAST,))
    assert table.lookup(node, mesh.node_id((3, 3))) == (EAST,)


def test_reprogram_validation(mesh):
    table = EconomicalStorageTable(mesh)
    with pytest.raises(TableProgrammingError):
        table.reprogram(0, (2, 2), (EAST,))
    with pytest.raises(TableProgrammingError):
        table.reprogram(0, (1, 1), ())
    with pytest.raises(TableProgrammingError):
        table.reprogram(0, (1, 1), (42,))


def test_describe_lists_all_entries(mesh):
    table = EconomicalStorageTable(mesh)
    entries = table.describe(mesh.node_id((2, 2)))
    assert len(entries) == 9
    signs = [signs for signs, _ in entries]
    assert len(set(signs)) == 9


def test_table_works_on_torus_signs():
    torus_mesh = MeshTopology((4, 4))
    table = EconomicalStorageTable(torus_mesh)
    assert table.entries_per_router() == 9


# -- per-sign-class programming ------------------------------------------------

MESH_DIMS = ((2, 2), (4, 4), (5, 3), (3, 4, 2))
TORUS_DIMS = ((2, 5), (4, 4), (3, 3, 3))

PROVIDERS = {
    "minimal-adaptive": minimal_adaptive_provider,
    "dimension-order": dimension_order_provider,
    "north-last": north_last_provider,
    "west-first": west_first_provider,
    "negative-first": negative_first_provider,
}
#: North-Last and West-First are defined for 2-D topologies only.
TWO_D_ONLY = {"north-last", "west-first"}


def _topologies():
    for dims in MESH_DIMS:
        yield MeshTopology(dims)
    for dims in TORUS_DIMS:
        yield TorusTopology(dims)


def _programming_cases():
    for topology in _topologies():
        for name, make in PROVIDERS.items():
            if name in TWO_D_ONLY and topology.n_dims != 2:
                continue
            yield pytest.param(topology, make, id=f"{name}-{topology!r}")


def test_every_module_provider_is_covered():
    assert set(PROVIDERS.values()) == {
        getattr(providers, name) for name in providers.__all__ if name.endswith("_provider")
    }


@pytest.mark.parametrize("topology, make", _programming_cases())
def test_per_class_programming_matches_full_enumeration(topology, make):
    provider = make(topology)
    assert provider.sign_invariant is True
    per_class = EconomicalStorageTable(topology, provider=provider)
    # An undeclared wrapper forces the intersection over every destination.
    full = EconomicalStorageTable(topology, provider=lambda c, d: provider(c, d))
    for node in range(topology.num_nodes):
        assert per_class.describe(node) == full.describe(node), node


def test_representatives_reach_every_realizable_sign_class():
    for topology in _topologies():
        for node in range(topology.num_nodes):
            realized = {
                topology.relative_signs(node, destination)
                for destination in range(topology.num_nodes)
            }
            representatives = sign_class_representatives(topology, node)
            assert len(representatives) <= 3 ** topology.n_dims
            assert len(set(representatives)) == len(representatives)
            assert {
                topology.relative_signs(node, destination) for destination in representatives
            } == realized


def _counting(provider, declared):
    calls = []

    def counted(current, destination):
        calls.append((current, destination))
        return provider(current, destination)

    if declared:
        counted.sign_invariant = True
    return counted, calls


@pytest.mark.parametrize("topology", list(_topologies()), ids=repr)
def test_declared_provider_call_count(topology):
    nodes = topology.num_nodes
    declared, declared_calls = _counting(minimal_adaptive_provider(topology), True)
    EconomicalStorageTable(topology, provider=declared)
    assert len(declared_calls) <= nodes * 3 ** topology.n_dims
    opaque, opaque_calls = _counting(minimal_adaptive_provider(topology), False)
    EconomicalStorageTable(topology, provider=opaque)
    assert len(opaque_calls) == nodes * nodes


def test_opaque_provider_that_is_not_sign_encodable_still_raises(mesh):
    # Deterministic routing that picks X or Y by destination parity: two
    # destinations in the same (+, +) quadrant share no port.
    def parity_routing(current, destination):
        if current == destination:
            return (LOCAL_PORT,)
        ports = mesh.minimal_ports(current, destination)
        return (ports[destination % len(ports)],)

    with pytest.raises(TableProgrammingError):
        EconomicalStorageTable(mesh, provider=parity_routing)


def test_torus_k2_ring_programs_no_negative_class():
    torus = TorusTopology((2, 5))
    table = EconomicalStorageTable(torus)
    node = torus.node_id((0, 2))
    # The lone offset of a 2-ring breaks toward +X, so (-1, *) entries are
    # never realized and keep their geometric defaults.
    assert table.lookup(node, torus.node_id((1, 2))) == (EAST,)
    assert table.entry(node, (-1, 0)) == (WEST,)
