"""Routing-relation providers.

A *provider* is a function ``provider(current, destination) -> tuple of
ports`` describing which output ports a routing relation permits at
``current`` for messages heading to ``destination``.  Routing tables are
programmed by evaluating a provider for every table index, exactly the way
a system administrator would program the lookup tables of a commercial
table-based router.

All providers here return **minimal** (productive) ports only, which is
what every routing algorithm evaluated in the paper uses.  Each one also
depends only on ``topology.relative_signs(current, destination)`` and
declares so with the function attribute ``sign_invariant = True``, which
lets :class:`~repro.tables.economical.EconomicalStorageTable` program one
representative destination per sign pattern instead of every destination.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.network.topology import LOCAL_PORT, Topology, port_direction, port_for

__all__ = [
    "PortProvider",
    "dimension_order_provider",
    "minimal_adaptive_provider",
    "negative_first_provider",
    "north_last_provider",
    "west_first_provider",
]

#: Signature of a routing-relation provider.
PortProvider = Callable[[int, int], Tuple[int, ...]]


def minimal_adaptive_provider(topology: Topology) -> PortProvider:
    """Fully adaptive minimal routing: every productive port is permitted.

    This is the routing relation used on the adaptive virtual channels of
    Duato's algorithm in the paper's evaluation.
    """

    def provider(current: int, destination: int) -> Tuple[int, ...]:
        return topology.minimal_ports(current, destination)

    provider.sign_invariant = True
    return provider


def dimension_order_provider(topology: Topology) -> PortProvider:
    """Deterministic dimension-order (XY) routing: a single port per entry."""

    def provider(current: int, destination: int) -> Tuple[int, ...]:
        return (topology.dimension_order_port(current, destination),)

    provider.sign_invariant = True
    return provider


def _turn_model_provider(
    topology: Topology, forbidden: Callable[[int, Tuple[int, ...]], bool]
) -> PortProvider:
    """Shared machinery for 2-D turn-model providers.

    ``forbidden(port, signs)`` returns True when the turn model disallows
    using ``port`` given the remaining per-dimension signs; the provider
    keeps every minimal port that is not forbidden, falling back to the
    full minimal set if the restriction would leave no port (which cannot
    happen for the three classic turn models but guards custom ones).
    """

    def provider(current: int, destination: int) -> Tuple[int, ...]:
        if current == destination:
            return (LOCAL_PORT,)
        signs = topology.relative_signs(current, destination)
        candidates = topology.minimal_ports(current, destination)
        allowed = tuple(port for port in candidates if not forbidden(port, signs))
        return allowed if allowed else candidates

    # ``forbidden`` sees only the signs and the minimal ports, which are
    # themselves a function of the signs.
    provider.sign_invariant = True
    return provider


def north_last_provider(topology: Topology) -> PortProvider:
    """North-Last partially adaptive routing for 2-D meshes (Turn Model).

    A message may only travel North (+Y) when no other productive
    direction remains, i.e. turns out of the North direction are forbidden
    so North must be the last direction used.  This is the algorithm used
    in the paper's Fig. 7 economical-storage programming example.
    """
    if topology.n_dims != 2:
        raise ValueError("the North-Last turn model is defined for 2-D meshes")
    north = port_for(1, positive=True)

    def forbidden(port: int, signs: Tuple[int, ...]) -> bool:
        # +Y is forbidden while an X correction is still pending.
        return port == north and signs[0] != 0

    return _turn_model_provider(topology, forbidden)


def west_first_provider(topology: Topology) -> PortProvider:
    """West-First partially adaptive routing for 2-D meshes (Turn Model).

    Any travel toward the West (-X) must happen before every other
    direction, therefore -X is the only permitted port while a westward
    correction remains.
    """
    if topology.n_dims != 2:
        raise ValueError("the West-First turn model is defined for 2-D meshes")
    west = port_for(0, positive=False)

    def forbidden(port: int, signs: Tuple[int, ...]) -> bool:
        # While a westward hop is pending, only the West port is allowed.
        return signs[0] < 0 and port != west

    return _turn_model_provider(topology, forbidden)


def negative_first_provider(topology: Topology) -> PortProvider:
    """Negative-First partially adaptive routing for n-D meshes (Turn Model).

    All hops in negative directions must be completed before any hop in a
    positive direction is taken.
    """

    def forbidden(port: int, signs: Tuple[int, ...]) -> bool:
        dimension, sign = port_direction(port)
        any_negative_pending = any(s < 0 for s in signs)
        return any_negative_pending and sign > 0

    return _turn_model_provider(topology, forbidden)
