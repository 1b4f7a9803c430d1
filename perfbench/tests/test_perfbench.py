"""Self-tests of the benchmark harness (not of the simulator).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from perfbench.digest import failed_operations, outputs_digest, simulation_outputs
from perfbench.metrics import SELF_TIME_LAYERS, layer_metrics
from perfbench.probe import Probe, _layer_targets, self_times, subtree_roots

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _tiny_config(**overrides):
    from repro.core.config import SimulationConfig

    base = dict(
        mesh_dims=(4, 4),
        selector="lru",
        normalized_load=0.3,
        message_length=4,
        warmup_messages=10,
        measure_messages=60,
        seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _snapshot():
    """Every attribute the trace-level probe replaces, as raw objects."""
    from repro.core.simulator import NetworkSimulator
    from repro.exec.cache import ResultCache

    owners = [(NetworkSimulator, "__init__"), (NetworkSimulator, "run"), (ResultCache, "get")]
    owners += [(owner, attr) for owner, attr, _name in _layer_targets()]
    return {
        (id(owner), attr): (
            vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
        )
        for owner, attr in owners
    }


def _traced_run(tmp_path):
    """A tiny single simulation plus a cached two-point study, traced."""
    from repro.core.simulator import NetworkSimulator
    from repro.exec.backend import SerialBackend
    from repro.exec.cache import ResultCache
    from repro.scenario.builtin import sweep_study
    from repro.scenario.runner import run_study

    probe = Probe(level="trace", count_flit_hops=True)
    try:
        probe.install()
        with probe.span("bench.wall"):
            single = NetworkSimulator(_tiny_config()).run()
            study = sweep_study(_tiny_config(selector="static-xy"), loads=(0.1, 0.2))
            with probe.span("scenario.run_study"):
                swept = run_study(study, SerialBackend(cache=ResultCache(tmp_path)))
    finally:
        probe.restore()
    return probe, [single, *swept.results]


def test_metric_names_units_and_directions():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_self_times_of_nested_spans():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25).
    start = [0, 10, 15, 50, 200]
    end = [100, 40, 25, 90, 230]
    parent = [-1, 0, 1, 0, -1]
    assert self_times(start, end, parent) == [30, 20, 10, 40, 30]
    assert subtree_roots(parent) == [0, 0, 0, 0, 4]
    assert sum(self_times(start, end, parent)[:4]) == end[0] - start[0]


def test_digest_gate_fails_on_a_perturbed_summary():
    from repro.core.simulator import NetworkSimulator

    result = NetworkSimulator(_tiny_config()).run()
    digest = outputs_digest(simulation_outputs(result))
    reference = {"digests": [digest], "rows_digest": None}
    report = {"digests": [digest], "drained": [True], "rows_digest": None, "warm_ok": None}
    assert failed_operations(report, reference) == 0

    summary = dataclasses.replace(
        result.summary,
        avg_total_latency=result.summary.avg_total_latency + 1e-9,
    )
    perturbed = dataclasses.replace(result, summary=summary)
    report["digests"] = [outputs_digest(simulation_outputs(perturbed))]
    assert failed_operations(report, reference) == 1

    report["digests"] = [digest]
    report["drained"] = [False]
    assert failed_operations(report, reference) == 1


def test_traced_run_restores_originals_and_keeps_outputs(tmp_path):
    from repro.core.simulator import NetworkSimulator
    from repro.registry import REGISTRIES

    for registry in REGISTRIES.values():
        registry.names()
    before = _snapshot()
    probe, traced = _traced_run(tmp_path)
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key

    plain = NetworkSimulator(_tiny_config()).run()
    assert simulation_outputs(traced[0]) == simulation_outputs(plain)

    metrics = layer_metrics(probe, traced)
    assert metrics["routing.decide_calls"] > 0
    assert metrics["selection.select_calls"] > 0
    assert metrics["exec.cache_misses"] == 2
    assert metrics["stats.delivered"] == sum(r.summary.delivered for r in traced)
    self_total = sum(metrics[name] for name in SELF_TIME_LAYERS)
    assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert probe.flit_hops > 0


def test_layer_metrics_cover_the_per_layer_list(tmp_path):
    probe, traced = _traced_run(tmp_path)
    produced = set(layer_metrics(probe, traced)) | {"trace.overhead_ratio"}
    assert produced == {metric["name"] for metric in SPEC["per_layer"]}
