"""Economical-storage routing tables (Section 5.2 of the paper).

The paper's key storage proposal: for an n-dimensional mesh, the candidate
output ports of every minimal routing relation depend only on the *sign*
of the per-dimension offset between the current node and the destination.
There are three possible signs per dimension (+, -, 0), so a 3^n-entry
table -- 9 entries for a 2-D mesh, 27 for a 3-D mesh -- suffices to encode
fully adaptive minimal routing, independent of the network size.

The router indexes the table with ``(sign(d_x - i_x), sign(d_y - i_y), ...)``
computed with two small comparators per dimension; see
:meth:`EconomicalStorageTable.index_of`.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, List, Optional, Tuple

from repro.network.topology import (
    LOCAL_PORT,
    MeshTopology,
    Topology,
    TorusTopology,
    port_for,
)
from repro.routing.providers import PortProvider, minimal_adaptive_provider
from repro.tables.base import RoutingTable, TableProgrammingError

__all__ = ["EconomicalStorageTable", "sign_class_representatives"]

Signs = Tuple[int, ...]


def _geometric_ports(signs: Signs) -> Tuple[int, ...]:
    """The productive ports implied directly by a sign pattern."""
    if all(sign == 0 for sign in signs):
        return (LOCAL_PORT,)
    ports = []
    for dimension, sign in enumerate(signs):
        if sign > 0:
            ports.append(port_for(dimension, positive=True))
        elif sign < 0:
            ports.append(port_for(dimension, positive=False))
    return tuple(ports)


def sign_class_representatives(topology: Topology, node: int) -> List[int]:
    """One destination of every sign pattern realizable from ``node``.

    The product over dimensions of the coordinates {c-1, c, c+1} around
    ``node``, reached by one hop each way per dimension: cut off at a mesh
    edge, wrapped on a torus (where a k=2 ring's two neighbors coincide, its
    lone offset breaking toward +1).  At most 3^n nodes, where enumerating
    every destination costs N.
    """
    representatives = [node]
    for dimension in range(topology.n_dims):
        ports = (port_for(dimension, positive=False), port_for(dimension, positive=True))
        reached = []
        for here in representatives:
            reached.append(here)
            reached.extend(topology.neighbor(here, port) for port in ports)
        representatives = list(dict.fromkeys(n for n in reached if n is not None))
    return representatives


class EconomicalStorageTable(RoutingTable):
    """A 3^n-entry, sign-indexed routing table for n-dimensional meshes.

    Every router gets its own 3^n-entry table, as in hardware, so entries
    can be reprogrammed per router (e.g. the paper's Fig. 7 North-Last
    example programs node (1,1) of a 3x3 mesh).

    Parameters
    ----------
    topology:
        Mesh (or torus) the table is programmed for.
    provider:
        Routing relation to program.  Defaults to minimal fully adaptive
        routing.  Because one entry serves *every* destination sharing a
        sign pattern, the programmed entry is the intersection of the
        provider's answers over those destinations, which costs N provider
        calls per router.  A provider that sets the function attribute
        ``sign_invariant = True`` promises that its answer depends only on
        ``topology.relative_signs(current, destination)``; the entry is then
        its answer for any one destination of the pattern, and on a mesh or
        torus each router is programmed from at most 3^n representative
        destinations (see :func:`sign_class_representatives`).
    """

    name = "economical-storage"

    def __init__(self, topology: Topology, provider: Optional[PortProvider] = None) -> None:
        if provider is None:
            provider = minimal_adaptive_provider(topology)
        self._topology = topology
        # The representatives assume mesh/torus sign geometry; any other
        # topology enumerates every destination.
        self._per_class = getattr(provider, "sign_invariant", False) and isinstance(
            topology, (MeshTopology, TorusTopology)
        )
        self._sign_patterns = tuple(product((-1, 0, 1), repeat=topology.n_dims))
        self._tables: List[Dict[Signs, Tuple[int, ...]]] = [
            self._program_node(node, provider) for node in range(topology.num_nodes)
        ]

    def _program_node(self, node: int, provider: PortProvider) -> Dict[Signs, Tuple[int, ...]]:
        """Build the 3^n-entry table of one router from a provider."""
        if self._per_class:
            destinations: Iterable[int] = sign_class_representatives(self._topology, node)
        else:
            destinations = range(self._topology.num_nodes)
        intersections: Dict[Signs, Optional[set]] = {
            signs: None for signs in self._sign_patterns
        }
        for destination in destinations:
            signs = self._topology.relative_signs(node, destination)
            ports = set(provider(node, destination))
            if intersections[signs] is None:
                intersections[signs] = ports
            else:
                intersections[signs] &= ports
        table: Dict[Signs, Tuple[int, ...]] = {}
        for signs in self._sign_patterns:
            common = intersections[signs]
            if common is None:
                # No destination exhibits this sign pattern from this node
                # (e.g. a corner node has no (-, -) destinations); program
                # the geometric default, it will never be consulted.
                table[signs] = _geometric_ports(signs)
            elif not common:
                raise TableProgrammingError(
                    f"provider gives no common port for sign pattern {signs} at "
                    f"node {node}; the relation cannot be encoded in a sign-indexed table"
                )
            else:
                table[signs] = tuple(sorted(common))
        return table

    # -- RoutingTable interface ---------------------------------------------

    @property
    def topology(self) -> Topology:
        """Topology this table was programmed for."""
        return self._topology

    def index_of(self, current: int, destination: int) -> Signs:
        """The sign tuple used to index the table (the paper's (s_x, s_y))."""
        return self._topology.relative_signs(current, destination)

    def lookup(self, current: int, destination: int) -> Tuple[int, ...]:
        return self._tables[current][self.index_of(current, destination)]

    def entry(self, node: int, signs: Signs) -> Tuple[int, ...]:
        """Direct access to one of the 3^n entries of a router's table."""
        return self._tables[node][tuple(signs)]

    def reprogram(self, node: int, signs: Signs, ports: Tuple[int, ...]) -> None:
        """Overwrite one entry of one router's table.

        This is how specific algorithms deny otherwise-minimal ports to
        guarantee deadlock freedom (the paper's Fig. 7 North-Last example).
        """
        signs = tuple(signs)
        if signs not in self._tables[node]:
            raise TableProgrammingError(f"invalid sign pattern {signs}")
        if not ports:
            raise TableProgrammingError("a table entry needs at least one port")
        for port in ports:
            if not 0 <= port < self._topology.radix:
                raise TableProgrammingError(
                    f"port {port} does not exist on a radix-{self._topology.radix} router"
                )
        self._tables[node][signs] = tuple(ports)
        self._notify_reprogrammed()

    def entries_per_router(self) -> int:
        return 3 ** self._topology.n_dims

    def num_routers(self) -> int:
        return self._topology.num_nodes

    def describe(self, node: int) -> List[Tuple[Signs, Tuple[int, ...]]]:
        """The full entry list of one router, for reports and the Fig. 7 bench."""
        return [(signs, self._tables[node][signs]) for signs in self._sign_patterns]
