"""Bit-identical equivalence of the object and flat cores on a router grid.

The flat core may only restructure *how* the per-cycle work is found
and ordered, never *what* it decides: the same virtual channels must be
allocated, the same round-robin grants issued, the same selector and RNG
consultations made -- so a simulation run under ``core_mode="flat"``
must reproduce the ``core_mode="objects"`` reference router field for
field, bit for bit.  These tests sweep a grid of topology x routing x
VC-count x load points (modeled on ``tests/test_kernel_equivalence.py``)
and additionally cross the core axis with the kernel-schedule axis,
since the two two-implementation contracts must compose.

Note the two configurations differ in their ``core_mode`` field, so the
comparison covers everything the simulation *computes* (summary, cycles,
analytics) rather than the raw config-bearing JSON.
"""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator

#: (mesh_dims, routing, vcs_per_port, traffic, load) grid covering square,
#: rectangular and odd-extent meshes (the repo's routing algorithms are
#: mesh-only by design -- tori need a dateline VC discipline), the
#: adaptive and deterministic routers, minimum and paper VC counts,
#: permutation and random patterns, and loads from the contention-free
#: regime up to saturation.
GRID = [
    ((4, 4), "duato", 2, "uniform", 0.2),
    ((4, 4), "duato", 4, "uniform", 0.75),
    ((4, 4), "duato", 4, "shuffle", 0.15),
    ((4, 4), "duato", 3, "transpose", 0.6),
    ((4, 4), "dimension-order", 1, "uniform", 0.3),
    ((4, 4), "dimension-order", 4, "transpose", 0.2),
    ((4, 4), "west-first", 2, "tornado", 0.25),
    ((4, 4), "negative-first", 4, "bit-reversal", 0.4),
    ((5, 3), "duato", 4, "uniform", 0.3),
    ((2, 8), "dimension-order", 2, "tornado", 0.25),
]


def _config(mesh_dims, routing, vcs, traffic, load) -> SimulationConfig:
    return SimulationConfig.tiny(
        mesh_dims=mesh_dims,
        routing=routing,
        vcs_per_port=vcs,
        traffic=traffic,
        normalized_load=load,
        seed=13,
    )


def _run(config: SimulationConfig, core_mode: str, kernel_mode: str = "activity"):
    return NetworkSimulator(
        config.variant(core_mode=core_mode), kernel_mode=kernel_mode
    ).run()


def _assert_equivalent(flat, objects) -> None:
    """Field-for-field equality of everything the simulation computed."""
    expected = objects.summary.as_dict()
    actual = flat.summary.as_dict()
    assert set(actual) == set(expected)
    for field, value in expected.items():
        assert actual[field] == value, (
            f"LatencySummary.{field} diverged under the flat core: "
            f"{actual[field]!r} != {value!r}"
        )
    assert flat.cycles == objects.cycles
    assert flat.zero_load_latency == objects.zero_load_latency
    assert flat.effective_message_rate == objects.effective_message_rate
    # The configs deliberately differ in core_mode only; everything
    # else must round-trip equal.
    assert flat.config.variant(core_mode="objects") == objects.config


@pytest.mark.parametrize(
    ("mesh_dims", "routing", "vcs", "traffic", "load"),
    GRID,
    ids=[
        f"{'x'.join(map(str, dims))}-{r}-vc{v}-{t}-{l}"
        for dims, r, v, t, l in GRID
    ],
)
def test_flat_core_is_bit_identical(mesh_dims, routing, vcs, traffic, load):
    config = _config(mesh_dims, routing, vcs, traffic, load)
    _assert_equivalent(_run(config, "flat"), _run(config, "objects"))


#: Contention-heavy variants: few VCs, shallow buffers and long messages
#: force allocation failures, credit stalls and same-cycle output-VC
#: releases -- the regime where an ordering bug in the flat pass (or a
#: stale membership list) diverges from the reference traversal.
CONTENTION_GRID = [
    {"vcs_per_port": 2, "buffer_depth": 2, "message_length": 8, "normalized_load": 0.9},
    {"vcs_per_port": 2, "buffer_depth": 2, "message_length": 8, "normalized_load": 0.6,
     "traffic": "transpose"},
    {"vcs_per_port": 3, "buffer_depth": 2, "message_length": 8, "normalized_load": 0.9,
     "pipeline": "proud"},
    {"vcs_per_port": 2, "buffer_depth": 5, "message_length": 4, "normalized_load": 0.9,
     "injection": "bernoulli"},
]


@pytest.mark.parametrize(
    "overrides",
    CONTENTION_GRID,
    ids=[
        f"vcs{o['vcs_per_port']}-buf{o['buffer_depth']}-len{o['message_length']}"
        f"-load{o['normalized_load']}"
        for o in CONTENTION_GRID
    ],
)
def test_equivalence_under_vc_contention(overrides):
    config = SimulationConfig.tiny(seed=1).variant(
        measure_messages=150, warmup_messages=20, **overrides
    )
    _assert_equivalent(_run(config, "flat"), _run(config, "objects"))


def test_equivalence_with_rng_drawing_selector():
    """The 'random' selector draws from per-router RNG streams during VC
    allocation; the flat pass must visit ROUTING channels in the exact
    reference order or the draw sequences shift."""
    config = SimulationConfig.tiny(selector="random", normalized_load=0.5, seed=3)
    _assert_equivalent(_run(config, "flat"), _run(config, "objects"))


def test_equivalence_with_history_selector():
    """LRU reads the usage metadata the forward path maintains; the flat
    per-port arrays must show the selector exactly what the router's
    output ports do."""
    config = SimulationConfig.tiny(selector="lru", normalized_load=0.5, seed=7)
    _assert_equivalent(_run(config, "flat"), _run(config, "objects"))


@pytest.mark.parametrize("kernel_mode", ["exhaustive", "activity"])
def test_core_axis_crosses_kernel_axis(kernel_mode):
    """All four (kernel schedule, core schedule) combinations agree on
    one contended point: the two equivalence contracts compose."""
    config = SimulationConfig.tiny(normalized_load=0.6, seed=17)
    flat = _run(config, "flat", kernel_mode)
    objects = _run(config, "objects", kernel_mode)
    _assert_equivalent(flat, objects)
    # And across the kernel axis for the same core, the full JSON
    # (config included) must match, as in test_kernel_equivalence.
    other = "activity" if kernel_mode == "exhaustive" else "exhaustive"
    assert flat.to_json() == _run(config, "flat", other).to_json()
