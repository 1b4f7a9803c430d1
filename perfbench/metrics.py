"""Turn one iteration's spans into end-to-end and per-layer measurements.

All layer times below are *self* times (a span's duration minus its
child spans) summed over the ``bench.wall`` subtree, except
``exec.simulate_s``, which is the inclusive time inside
``simulate_config``.  The self times of :data:`SELF_TIME_LAYERS` add up
to ``trace.wall_s`` exactly (integer nanoseconds), which
:func:`layer_metrics` checks.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence

from perfbench.probe import Probe, self_times, subtree_roots

__all__ = ["SELF_TIME_LAYERS", "iteration_metrics", "layer_metrics", "percentile"]

NS = 1e-9

#: Per-layer self-time metric -> the span names whose self time it sums.
#: Together they partition every span recorded under ``bench.wall``.
SELF_TIME_LAYERS: Dict[str, Sequence[str]] = {
    "bench.self_s": ("bench.wall", "bench.count_flit_hops"),
    "scenario.self_s": ("scenario.run_study",),
    "scenario.report_s": ("scenario.report",),
    "exec.self_s": ("exec.run_configs", "exec.simulate"),
    "exec.cache_get_s": ("exec.cache_get",),
    "exec.cache_put_s": ("exec.cache_put",),
    "simulator.self_s": ("simulator.init", "simulator.run"),
    "simulator.budget_s": ("simulator.budget",),
    "topology.build_s": ("topology.build",),
    "tables.program_s": ("tables.program",),
    "network.wire_s": ("network.wire",),
    "flatcore.lower_s": ("flatcore.lower",),
    "workload.dag_build_s": ("workload.dag_build",),
    "kernel.self_s": ("kernel.run",),
    "flatcore.deliver_s": ("flatcore.deliver",),
    "flatcore.evaluate_self_s": ("flatcore.evaluate",),
    "flatcore.next_event_s": ("flatcore.next_event",),
    "routing.self_s": ("routing.decide_cached", "routing.decide"),
    "selection.self_s": ("selection.select", "selection.record_use"),
    "traffic.messages_due_s": ("traffic.messages_due",),
    "workload.messages_due_s": ("workload.messages_due",),
    "workload.on_delivered_s": ("workload.on_delivered",),
    "stats.record_delivered_s": ("stats.record_delivered",),
    "stats.summary_s": ("stats.summary",),
}


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of already sorted values (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return float(sorted_values[rank - 1])


def iteration_metrics(probe: Probe, results: Sequence) -> Dict[str, float]:
    """End-to-end measurements of one iteration, plus the layer
    measurements when the probe traced every layer."""
    metrics: Dict[str, float] = {
        "wall_s": sum(probe.durations("bench.wall")) * NS,
        "setup_s": (
            sum(probe.durations("simulator.init"))
            + sum(probe.durations("simulator.budget"))
        )
        * NS,
        "run_s": sum(probe.durations("simulator.run")) * NS,
    }
    if probe.level == "trace":
        metrics.update(layer_metrics(probe, results))
    return metrics


def layer_metrics(probe: Probe, results: Sequence) -> Dict[str, float]:
    """Per-layer self times, call counts and ratios of one traced iteration."""
    names = probe.names
    own = self_times(probe.start, probe.end, probe.parent)
    roots = subtree_roots(probe.parent)
    wall_id = probe.name_id("bench.wall")
    walls = [i for i, nid in enumerate(probe.name) if nid == wall_id]
    if len(walls) != 1:
        raise ValueError(f"expected one bench.wall span, found {len(walls)}")
    wall = walls[0]

    self_ns: Counter = Counter()
    calls: Counter = Counter()
    evaluate_ns: List[int] = []
    decide_cached_id = probe.name_id("routing.decide_cached")
    misses = 0
    for index, nid in enumerate(probe.name):
        name = names[nid]
        calls[name] += 1
        if roots[index] != wall:
            continue
        self_ns[name] += own[index]
        if name == "flatcore.evaluate":
            evaluate_ns.append(probe.end[index] - probe.start[index])
        elif name == "routing.decide":
            up = probe.parent[index]
            if up >= 0 and probe.name[up] == decide_cached_id:
                misses += 1

    layered = {span for spans in SELF_TIME_LAYERS.values() for span in spans}
    unmapped = sorted(set(self_ns) - layered)
    if unmapped:
        raise ValueError(f"spans without a layer: {unmapped}")
    wall_ns = probe.end[wall] - probe.start[wall]
    attributed = sum(self_ns.values())
    if attributed != wall_ns:
        raise ValueError(
            f"layer self times sum to {attributed} ns, traced wall is {wall_ns} ns"
        )

    metrics: Dict[str, float] = {
        metric: sum(self_ns[span] for span in spans) * NS
        for metric, spans in SELF_TIME_LAYERS.items()
    }
    exec_simulate = sum(probe.durations("exec.simulate"))
    evaluate_ns.sort()
    decide_calls = calls["routing.decide_cached"]
    cycles = sum(result.cycles for result in results)
    visited = calls["flatcore.deliver"]
    metrics.update(
        {
            "trace.wall_s": wall_ns * NS,
            "exec.simulate_s": exec_simulate * NS,
            "exec.cache_hits": probe.counts["exec.cache_hits"],
            "exec.cache_misses": probe.counts["exec.cache_misses"],
            "tables.entries": probe.counts["tables.entries"],
            "flatcore.evaluate_calls": calls["flatcore.evaluate"],
            "flatcore.evaluate_p50_us": percentile(evaluate_ns, 0.50) * 1e-3,
            "flatcore.evaluate_p99_us": percentile(evaluate_ns, 0.99) * 1e-3,
            "kernel.visited_cycles": visited,
            "kernel.skipped_cycles": cycles - visited,
            "routing.decide_calls": decide_calls,
            "routing.decide_misses": misses,
            "routing.decide_hit_ratio": (
                1.0 - misses / decide_calls if decide_calls else 0.0
            ),
            "selection.select_calls": calls["selection.select"],
            "traffic.messages": sum(
                result.summary.created for result in results if result.drain is None
            ),
            "workload.transfers": sum(
                result.drain["transfers"] for result in results if result.drain
            ),
            "stats.delivered": calls["stats.record_delivered"],
        }
    )
    return metrics
