"""Seeded randomized property tests for router invariants.

Rather than asserting exact numbers, these tests check the *laws* the
router must obey under any traffic -- and check them against both
cores, so the flat core cannot satisfy them by construction quirks the
reference object routers would not share:

* **flit conservation** -- every injected message is delivered exactly
  once (no loss, no duplication), and a drained network holds no flits;
* **credit conservation** -- after draining, every output virtual
  channel's credit count returns to the full buffer depth and no
  channel is left allocated;
* **forwarding accounting** -- the routers' crossbar counters equal the
  flit-hops actually traversed by the delivered messages;
* **arbiter fairness** -- a round-robin arbiter never starves a
  continuously requesting slot, and the sorted-request reduction the
  flat core inlines is decision-for-decision equal to the general grant;
* **in-order delivery** -- with deterministic routing and a single
  virtual channel per port there is one FIFO path per (source,
  destination, VC), so messages of a pair must eject in creation order.

Everything is driven by seeded ``random.Random`` instances, so failures
reproduce exactly.

The same laws are re-checked against the flat struct-of-arrays core
(``core_mode="flat"``), which re-implements the whole network's hot path
over global arrays: conservation, drained-state emptiness, forwarding
accounting, priority-pointer parity with the object core and the
pending-counter exactness of its four global arrival wheels.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator
from repro.router.arbiter import RoundRobinArbiter

CORE_MODES = ("objects", "flat")


# -- randomized end-to-end runs ------------------------------------------------------


def _random_config(seed: int) -> SimulationConfig:
    """A small, drainable configuration drawn from a seeded RNG."""
    rng = random.Random(seed)
    mesh_dims = rng.choice([(3, 3), (4, 4), (2, 5), (4, 2)])
    vcs = rng.choice([2, 3, 4])
    routing = rng.choice(["duato", "dimension-order", "west-first"])
    square = mesh_dims[0] == mesh_dims[1]
    traffic = rng.choice(
        ["uniform", "transpose", "tornado"] if square else ["uniform", "tornado"]
    )
    if traffic == "tornado" and max(mesh_dims) <= 3:
        # The mesh tornado offset is ``extent // 2 - 1``: on a 3x3 mesh
        # every node is a fixed point and the run would carry no traffic.
        traffic = "uniform"
    return SimulationConfig(
        mesh_dims=mesh_dims,
        vcs_per_port=vcs,
        buffer_depth=rng.choice([2, 3, 5]),
        routing=routing,
        traffic=traffic,
        message_length=rng.choice([1, 4, 8]),
        normalized_load=rng.choice([0.1, 0.25, 0.4]),
        injection=rng.choice(["exponential", "bernoulli"]),
        pipeline=rng.choice(["proud", "la-proud"]),
        warmup_messages=20,
        measure_messages=120,
        seed=seed,
        # These properties introspect the object components (router
        # counters, VC state); the flat-core legs opt in explicitly.
        core_mode="objects",
    )


#: Seeds of the random configurations the conservation laws are checked
#: on, against each core.
CONSERVATION_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)


def _run_with_delivery_log(config: SimulationConfig):
    """Run a simulation recording every delivered message object."""
    simulator = NetworkSimulator(config)
    delivered = []
    original = simulator.stats.record_delivered

    def spy(message, cycle):
        delivered.append(message)
        original(message, cycle)

    simulator.stats.record_delivered = spy
    result = simulator.run()
    return simulator, result, delivered


@pytest.mark.parametrize("seed", CONSERVATION_SEEDS)
def test_flit_and_credit_conservation(seed):
    config = _random_config(seed)
    simulator, result, delivered = _run_with_delivery_log(config)

    # Every created message was delivered exactly once (loads are modest
    # and the cycle budget generous, so the run fully drains).
    stats = simulator.stats
    assert stats.delivered == stats.created, (
        f"flit loss: created {stats.created}, delivered {stats.delivered} "
        f"(seed {seed})"
    )
    seen_ids = [message.message_id for message in delivered]
    assert len(seen_ids) == len(set(seen_ids)), "duplicated delivery"
    assert result.summary.completion_ratio == 1.0

    # The drained network holds nothing: no buffered flits, no in-flight
    # mailbox entries, every input channel back to IDLE.
    network = simulator.network
    assert network.is_idle()

    # Credit conservation: every output VC of every router is free again,
    # and its credit count plus the credits still in flight toward it
    # (the kernel stops the instant the last message is delivered, which
    # can strand the final credit returns in a mailbox) equals the full
    # buffer depth -- credits are never created or destroyed.
    depth = config.buffer_depth
    for router in network.routers:
        in_flight = defaultdict(int)
        for port, vc in router.in_flight_credits():
            in_flight[(port, vc)] += 1
        for port in range(simulator.topology.radix):
            output = router.output_port(port)
            if not output.connected:
                continue
            for vc in output.vcs:
                assert vc.owner is None, (
                    f"router {router.node_id} port {port} VC {vc.vc} still "
                    f"allocated after drain (seed {seed})"
                )
                total = vc.credits + in_flight[(port, vc.vc)]
                assert total == depth, (
                    f"router {router.node_id} port {port} VC {vc.vc} credits "
                    f"{vc.credits} + in-flight {in_flight[(port, vc.vc)]} != "
                    f"{depth} after drain (seed {seed})"
                )

    # Forwarding accounting: each flit of a message crosses the crossbar
    # of every router on its path (ejection included), so the summed
    # router counters equal the summed flit-hops of the delivered set.
    flit_hops = sum(message.length * message.hops for message in delivered)
    forwarded = sum(router.flits_forwarded for router in network.routers)
    assert forwarded == flit_hops


@pytest.mark.parametrize("core_mode", CORE_MODES)
def test_in_order_delivery_per_source_destination_vc(core_mode):
    """Deterministic routing + one VC per port = one FIFO lane per
    (source, destination, VC) triple: ejection order must equal creation
    order within every pair."""
    config = SimulationConfig(
        mesh_dims=(4, 4),
        vcs_per_port=1,
        routing="dimension-order",
        traffic="uniform",
        normalized_load=0.3,
        message_length=4,
        warmup_messages=30,
        measure_messages=250,
        seed=23,
        core_mode=core_mode,
    )
    simulator, result, delivered = _run_with_delivery_log(config)
    assert simulator.stats.delivered == simulator.stats.created

    last_seen = {}
    for message in delivered:
        pair = (message.source, message.destination)
        previous = last_seen.get(pair)
        if previous is not None:
            assert previous.creation_cycle <= message.creation_cycle
            assert previous.message_id < message.message_id, (
                f"pair {pair} delivered message {message.message_id} after "
                f"{previous.message_id} despite earlier creation ({core_mode})"
            )
        last_seen[pair] = message


# -- arbiter properties --------------------------------------------------------------


def test_round_robin_never_starves_a_persistent_requester():
    """A slot that requests in every arbitration round is granted at
    least once every ``num_requesters`` grants, whatever the competing
    request pattern does."""
    rng = random.Random(99)
    num = 5
    arbiter = RoundRobinArbiter(num)
    persistent = 2
    grants_since_persistent = 0
    for _ in range(500):
        others = [slot for slot in range(num) if slot != persistent and rng.random() < 0.8]
        requests = sorted(others + [persistent])
        winner = arbiter.grant(requests)
        assert winner in requests
        if winner == persistent:
            grants_since_persistent = 0
        else:
            grants_since_persistent += 1
            assert grants_since_persistent < num, (
                "round-robin starved a continuously requesting slot"
            )


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_grant_sorted_equals_grant(seed):
    """The sorted-request reduction the flat core's switch pass inlines
    must make the identical decision -- and leave the identical priority
    pointer -- as the general grant, over long random request sequences."""
    rng = random.Random(seed)
    num = rng.choice([2, 4, 5, 8])
    general = RoundRobinArbiter(num)
    fast = RoundRobinArbiter(num)
    for _ in range(400):
        requests = sorted(
            slot for slot in range(num) if rng.random() < rng.choice([0.2, 0.5, 0.9])
        )
        assert general.grant(requests) == fast.grant_sorted(requests)
        assert repr(general) == repr(fast)  # pointer state stays in lockstep


def test_grant_sorted_empty_request_list():
    arbiter = RoundRobinArbiter(4)
    assert arbiter.grant_sorted([]) is None


# -- decision-memo invalidation ------------------------------------------------------


def test_reprogramming_a_table_drops_memoized_decisions():
    """The busy path memoizes routing decisions; tables are software
    programmable, so a post-construction ``reprogram`` must clear the
    shared memo in place (routers hold references to the same dict)."""
    from repro.network.topology import MeshTopology, port_for
    from repro.routing.duato import DuatoFullyAdaptiveRouting
    from repro.tables.economical import EconomicalStorageTable

    topology = MeshTopology((3, 3))
    table = EconomicalStorageTable(topology)
    routing = DuatoFullyAdaptiveRouting(topology, table)
    cache = routing.decision_cache()
    assert cache is routing.decision_cache()  # one shared dict

    node = topology.node_id((1, 1))
    destination = topology.node_id((2, 2))
    before = routing.decide(node, destination)
    cache[(node, destination)] = before
    east, north = port_for(0, True), port_for(1, True)
    assert set(before.adaptive_ports) == {east, north}

    # Deny the +X port for (+, +) at the center node, as a North-Last
    # style programming would.
    table.reprogram(node, (1, 1), (north,))
    assert cache == {}, "reprogramming must clear the decision memo"
    after = routing.decide(node, destination)
    assert set(after.adaptive_ports) == {north}


# -- occupancy-count integrity -------------------------------------------------------


@pytest.mark.parametrize("seed", [41, 42])
def test_occupied_channel_count_zero_after_drain(seed):
    """The incremental occupied-channel count (the router's quiescence
    gate) must be exact: after a drained run it is zero, matching the
    all-IDLE channels."""
    config = _random_config(seed)
    simulator = NetworkSimulator(config)
    simulator.run()
    assert simulator.network.is_idle()
    for router in simulator.network.routers:
        assert router._occupied_channels == 0


# -- flat-core properties ------------------------------------------------------------


@pytest.mark.parametrize("seed", CONSERVATION_SEEDS)
def test_flat_core_flit_and_credit_conservation(seed):
    """The conservation laws hold verbatim on the flat struct-of-arrays
    core: nothing lost or duplicated, the drained arrays all idle, and
    every output VC's credits (plus the in-flight returns stranded when
    the kernel stops) back at the full buffer depth."""
    config = _random_config(seed).variant(core_mode="flat")
    simulator, result, delivered = _run_with_delivery_log(config)

    stats = simulator.stats
    assert stats.delivered == stats.created, (
        f"flit loss: created {stats.created}, delivered {stats.delivered} "
        f"(seed {seed}, flat core)"
    )
    seen_ids = [message.message_id for message in delivered]
    assert len(seen_ids) == len(set(seen_ids)), "duplicated delivery"
    assert result.summary.completion_ratio == 1.0

    core = simulator.core
    assert core is not None
    assert core.is_idle()

    depth = config.buffer_depth
    radix = simulator.topology.radix
    vcs = config.vcs_per_port
    for node in range(config.num_nodes):
        in_flight = defaultdict(int)
        for port, vc in core.in_flight_credits(node):
            in_flight[(port, vc)] += 1
        for port in range(radix):
            if not core._out_connected[node * radix + port]:
                continue
            for vc in range(vcs):
                assert core.output_owner(node, port, vc) == -1, (
                    f"node {node} port {port} VC {vc} still allocated "
                    f"after drain (seed {seed}, flat core)"
                )
                total = core.output_credits(node, port, vc) + in_flight[(port, vc)]
                assert total == depth, (
                    f"node {node} port {port} VC {vc} credits do not "
                    f"conserve: {total} != {depth} (seed {seed}, flat core)"
                )

    flit_hops = sum(message.length * message.hops for message in delivered)
    assert sum(core.flits_forwarded) == flit_hops


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_flat_core_counters_match_object_core(seed):
    """The flat core's per-node crossbar/header counters equal the object
    routers' counters node for node -- not just in aggregate."""
    config = _random_config(seed)
    objects = NetworkSimulator(config.variant(core_mode="objects"))
    flat = NetworkSimulator(config.variant(core_mode="flat"))
    objects.run()
    flat.run()
    core = flat.core
    for node, router in enumerate(objects.network.routers):
        assert core.flits_forwarded[node] == router.flits_forwarded
        assert core.headers_routed[node] == router.headers_routed


def test_flat_core_priority_pointers_match_object_core():
    """After identical runs the flat core's global priority arrays equal
    the pointer positions of the object routers' arbiters -- one
    rotating round-robin priority in two bookkeeping forms, so the
    arbiters of the two cores stay fair in lockstep."""
    config = _random_config(31)
    objects = NetworkSimulator(config.variant(core_mode="objects"))
    flat = NetworkSimulator(config.variant(core_mode="flat"))
    objects.run()
    flat.run()
    core = flat.core
    radix = objects.topology.radix
    for node, router in enumerate(objects.network.routers):
        base = node * radix
        assert core._in_prio[base:base + radix] == [
            arbiter._next_priority for arbiter in router._input_arbiters
        ]
        assert core._out_prio[base:base + radix] == [
            arbiter._next_priority for arbiter in router._output_arbiters
        ]


@pytest.mark.parametrize("seed", [41, 42])
def test_flat_core_membership_lists_empty_after_drain(seed):
    """The flat core's per-node ROUTING/ACTIVE membership lists must be
    exact: after a drained run they are empty, matching all-IDLE state."""
    config = _random_config(seed).variant(core_mode="flat")
    simulator = NetworkSimulator(config)
    simulator.run()
    core = simulator.core
    assert core.is_idle()
    assert all(members == [] for members in core._routing_members)
    assert all(members == [] for members in core._active_members)


# -- flat-core wheel integrity -------------------------------------------------------


@pytest.mark.parametrize("seed", [43, 44, 45])
def test_flat_core_wheels_drained_and_counters_exact(seed):
    """After a drained run every pending counter of the flat core's four
    global arrival wheels equals the entries across its lanes, the flit
    and eject lanes are empty, and the credit lanes hold exactly the
    returns stranded when the kernel stops the instant the last message
    is delivered (what ``in_flight_credits`` reports per node)."""
    config = _random_config(seed).variant(core_mode="flat")
    simulator = NetworkSimulator(config)
    simulator.run()
    core = simulator.core
    assert core.is_idle()
    for pending, lanes in (
        (core._flit_pending, core._flit_lanes),
        (core._credit_pending, core._credit_lanes),
        (core._eject_pending, core._eject_lanes),
        (core._ni_credit_pending, core._ni_credit_lanes),
    ):
        assert pending == sum(len(lane) for lane in lanes)
    assert not any(core._flit_lanes)
    assert not any(core._eject_lanes)
    assert core._credit_pending == sum(
        len(core.in_flight_credits(node)) for node in range(config.num_nodes)
    )


#: (seed, load, message length, link delay, credit delay): a busy point
#: where every counter moves each cycle, and a sparse one with long
#: delays where the activity kernel skips cycles between arrivals.
SLOT_EXACT_POINTS = [(46, 0.6, 8, 2, 3), (47, 0.02, 2, 4, 3)]


@pytest.mark.parametrize(
    ("seed", "load", "length", "link_delay", "credit_delay"),
    SLOT_EXACT_POINTS,
    ids=[f"seed{point[0]}-load{point[1]}" for point in SLOT_EXACT_POINTS],
)
def test_flat_core_lanes_are_slot_exact(
    seed, load, length, link_delay, credit_delay, monkeypatch
):
    """The drain consumes the lane ``cycle % size`` without any arrival
    comparison, which is only correct if every entry in that lane is due
    this very cycle.  Pushes land at most ``size - 1`` cycles ahead, so
    an entry still sitting in the lane of a cycle the kernel skipped was
    due then and missed.  Check at the top of every drain that the lanes
    of all skipped cycles are empty, and at every phase boundary that
    the four pending counters equal their lane totals."""
    from repro.network.flatcore import FlatNetworkCore

    real_deliver = FlatNetworkCore.deliver
    real_evaluate = FlatNetworkCore.evaluate
    last = [-1]
    drains = [0]

    def assert_counters_exact(core, where):
        for pending, lanes in (
            (core._flit_pending, core._flit_lanes),
            (core._credit_pending, core._credit_lanes),
            (core._eject_pending, core._eject_lanes),
            (core._ni_credit_pending, core._ni_credit_lanes),
        ):
            assert pending == sum(len(lane) for lane in lanes), (
                f"pending counter drifted {where} (seed {seed})"
            )

    def checked_deliver(core, cycle):
        drains[0] += 1
        size = core._wheel_size
        for skipped in range(max(last[0] + 1, cycle - size + 1), cycle):
            slot = skipped % size
            for lanes in (
                core._flit_lanes,
                core._credit_lanes,
                core._eject_lanes,
                core._ni_credit_lanes,
            ):
                assert not lanes[slot], (
                    f"lane for skipped cycle {skipped} still holds "
                    f"{len(lanes[slot])} entries at cycle {cycle} (seed {seed})"
                )
        last[0] = cycle
        real_deliver(core, cycle)
        assert_counters_exact(core, f"after deliver({cycle})")
        slot = cycle % size
        assert not core._flit_lanes[slot]
        assert not core._eject_lanes[slot]
        assert not core._ni_credit_lanes[slot]

    def checked_evaluate(core, cycle):
        real_evaluate(core, cycle)
        assert_counters_exact(core, f"after evaluate({cycle})")

    monkeypatch.setattr(FlatNetworkCore, "deliver", checked_deliver)
    monkeypatch.setattr(FlatNetworkCore, "evaluate", checked_evaluate)
    config = _random_config(seed).variant(
        core_mode="flat",
        traffic="uniform",
        normalized_load=load,
        message_length=length,
        link_delay=link_delay,
        credit_delay=credit_delay,
    )
    simulator = NetworkSimulator(config)
    simulator.run()
    assert drains[0] > 0
    assert simulator.stats.delivered == simulator.stats.created
