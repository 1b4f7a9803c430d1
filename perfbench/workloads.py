"""The benchmark's workloads and one timed iteration of each.

Every workload is a closed loop of simulations: the benchmark waits for
each simulation before starting the next.  One *iteration* runs the
workload once inside a ``bench.wall`` span (what ``wall_s`` measures);
the sweep workload then reruns its study against the warm cache inside a
separate ``bench.warm`` span.  Each simulation is one operation.

The configurations and the reasons for choosing them are recorded in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional

from perfbench.digest import outputs_digest, rows_text, simulation_outputs
from perfbench.probe import Probe

__all__ = ["DEFAULT_SEED", "WORKLOADS", "run_iteration"]

#: The seed whose output digests are pinned in ``perfbench/pinned.json``.
DEFAULT_SEED = 1


def mesh16_sat_config(seed: int, core_mode: str):
    from repro.core.config import SimulationConfig

    return SimulationConfig(
        mesh_dims=(16, 16),
        routing="duato",
        table="economical",
        pipeline="la-proud",
        selector="lru",
        traffic="transpose",
        normalized_load=0.8,
        message_length=20,
        injection="exponential",
        warmup_messages=200,
        measure_messages=2400,
        seed=seed,
        core_mode=core_mode,
    )


def mesh24_sweep_study(seed: int, core_mode: str):
    from repro.core.config import SimulationConfig
    from repro.scenario.builtin import sweep_study

    base = SimulationConfig(
        mesh_dims=(24, 24),
        routing="duato",
        table="economical",
        pipeline="la-proud",
        selector="static-xy",
        traffic="uniform",
        message_length=20,
        injection="exponential",
        warmup_messages=100,
        measure_messages=400,
        seed=seed,
        core_mode=core_mode,
    )
    return sweep_study(base, loads=(0.02, 0.05, 0.1), name="mesh24-sweep")


def allreduce8_closed_config(seed: int, core_mode: str):
    from repro.core.config import SimulationConfig

    return SimulationConfig(
        mesh_dims=(8, 8),
        workload="allreduce",
        workload_iters=4,
        workload_hidden=256,
        seed=seed,
        core_mode=core_mode,
    )


def _drained(result) -> bool:
    """Whether the simulation finished its work inside the cycle budget."""
    if result.drain is not None:
        return bool(result.drain.get("drained"))
    return result.summary.completion_ratio >= 1.0


def _single(config_of: Callable) -> Callable:
    def execute(probe: Probe, seed: int, core_mode: str, scratch: Path) -> Dict:
        from repro.core.simulator import NetworkSimulator

        config = config_of(seed, core_mode)
        gc.collect()
        with probe.span("bench.wall"):
            result = NetworkSimulator(config).run()
        return {"results": [result], "rows": None, "warm_ok": None}

    return execute


def _sweep(probe: Probe, seed: int, core_mode: str, scratch: Path) -> Dict:
    """Cold ``run_study`` through a fresh cache, then a warm rerun."""
    from repro.exec.backend import SerialBackend
    from repro.exec.cache import ResultCache
    from repro.scenario.runner import run_study

    study = mesh24_sweep_study(seed, core_mode)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
    try:
        gc.collect()
        with probe.span("bench.wall"):
            backend = SerialBackend(cache=ResultCache(cache_dir))
            with probe.span("scenario.run_study"):
                cold = run_study(study, backend)
        cold_text = rows_text(cold)
        gc.collect()
        with probe.span("bench.warm"):
            warm_backend = SerialBackend(cache=ResultCache(cache_dir))
            with probe.span("scenario.run_study"):
                warm = run_study(study, warm_backend)
        warm_ok = (
            backend.simulations_run == len(cold.results)
            and warm_backend.simulations_run == 0
            and rows_text(warm) == cold_text
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"results": list(cold.results), "rows": cold.rows, "warm_ok": warm_ok}


#: Workload name -> iteration body ``execute(probe, seed, core_mode, scratch)``.
WORKLOADS: Dict[str, Callable] = {
    "mesh16-sat": _single(mesh16_sat_config),
    "mesh24-sweep": _sweep,
    "allreduce8-closed": _single(allreduce8_closed_config),
}


def run_iteration(
    workload: str,
    seed: int,
    level: str,
    core_mode: str,
    scratch: Path,
    count_flit_hops: bool = False,
    spans_path: Optional[Path] = None,
) -> Dict[str, object]:
    """Run one iteration of ``workload`` under a freshly installed probe.

    Returns the per-simulation output digests, the drained flags, the
    warm-rerun verdict, the flit-hop count (when counted) and the
    layer measurements; see :mod:`perfbench.metrics` for the latter.
    """
    from perfbench.metrics import iteration_metrics
    from repro.registry import REGISTRIES

    # Import every built-in component module now, so that the lazy
    # registry loads do not land inside a timed region.
    for registry in REGISTRIES.values():
        registry.names()
    probe = Probe(level=level, count_flit_hops=count_flit_hops)
    try:
        probe.install()
        outcome = WORKLOADS[workload](probe, seed, core_mode, scratch)
    finally:
        probe.restore()
    results = outcome["results"]
    report = {
        "digests": [outputs_digest(simulation_outputs(r)) for r in results],
        "drained": [_drained(r) for r in results],
        "rows_digest": (
            outputs_digest(outcome["rows"]) if outcome["rows"] is not None else None
        ),
        "warm_ok": outcome["warm_ok"],
        "cycles": sum(r.cycles for r in results),
        "flit_hops": probe.flit_hops if count_flit_hops else None,
        "measurements": iteration_metrics(probe, results),
    }
    if spans_path is not None:
        probe.write_json(spans_path)
    return report
