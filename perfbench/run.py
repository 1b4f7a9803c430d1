"""Host-time benchmark of the LAPSES simulator: one workload, one run.

Run from the repository root::

    python3 perfbench/run.py --workload mesh16-sat --seed 1 --seconds 30 --trace 0

The run first fixes the reference outputs for ``--seed``: the digests
pinned in ``perfbench/pinned.json`` for the default seed, otherwise one
run of the same workload on the object core (``core_mode="objects"``,
the executable specification).  It then runs iterations of the workload
on the default flat core, each in a fresh interpreter, for about
``--seconds`` seconds, checks every simulation against the reference and
prints the medians over iterations.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics, and
writes the last traced iteration's spans to
``.perfbench/spans-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.digest import failed_operations  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

PINNED = ROOT / "perfbench" / "pinned.json"
SCRATCH = ROOT / ".perfbench"

#: Upper bound on one child interpreter (the slowest, a traced
#: 16x16 saturation run, takes well under a minute).
CHILD_TIMEOUT_S = 120


class IterationFailed(RuntimeError):
    """A child iteration exited non-zero or printed no report."""


def run_child(
    workload: str,
    seed: int,
    level: str,
    core: str,
    count_flit_hops: bool = False,
    spans: Optional[Path] = None,
) -> Dict[str, object]:
    """One iteration in a fresh interpreter; returns its report."""
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "iteration.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--level", level,
        "--core", core,
        "--scratch", str(SCRATCH),
    ]
    if count_flit_hops:
        command.append("--count-flit-hops")
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = (
        source + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else source
    )
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise IterationFailed(
            f"{workload} {level}/{core} iteration exited {completed.returncode}"
        )
    return json.loads(lines[-1])


def reference_for(workload: str, seed: int) -> Dict[str, object]:
    """Reference digests and flit-hop count for ``workload`` at ``seed``."""
    if seed == DEFAULT_SEED:
        pinned = json.loads(PINNED.read_text(encoding="utf-8"))
        if pinned["seed"] != DEFAULT_SEED:
            raise ValueError(f"{PINNED} pins seed {pinned['seed']}, not {DEFAULT_SEED}")
        return pinned["workloads"][workload]
    report = run_child(workload, seed, "measure", "objects", count_flit_hops=True)
    return {
        "digests": report["digests"],
        "rows_digest": report["rows_digest"],
        "flit_hops": report["flit_hops"],
    }


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


class Tally:
    """Operations attempted and failed, plus checks that are not operations."""

    def __init__(self, reference: Mapping[str, object]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.checks_ok = True

    def check(self, report: Mapping[str, object]) -> None:
        self.attempted += len(report["digests"])
        self.failed += failed_operations(report, self.reference)

    def crashed(self) -> None:
        operations = len(self.reference["digests"])
        self.attempted += operations
        self.failed += operations


def repeat(seconds: float, iteration: Callable[[], Dict[str, float]], tally: Tally):
    """Run ``iteration`` while the next one is expected to end within
    ``seconds`` (at least once); medians of its values over iterations."""
    samples: Dict[str, List[float]] = {}
    started = time.monotonic()
    durations: List[float] = []
    while True:
        began = time.monotonic()
        try:
            values = iteration()
        except (IterationFailed, subprocess.TimeoutExpired) as error:
            print(f"perfbench: {error}", file=sys.stderr)
            tally.crashed()
            break
        durations.append(time.monotonic() - began)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
        if time.monotonic() - started + _median(durations) > seconds:
            break
    return {name: _median(values) for name, values in samples.items()}


def measured_iteration(workload: str, seed: int, tally: Tally) -> Dict[str, float]:
    """One untraced iteration: its end-to-end metrics."""
    report = run_child(workload, seed, "measure", "flat")
    tally.check(report)
    values = dict(report["measurements"])
    values["cycles_per_s"] = report["cycles"] / values["run_s"]
    values["flit_hops_per_s"] = tally.reference["flit_hops"] / values["run_s"]
    return values


def traced_iteration(workload: str, seed: int, tally: Tally) -> Dict[str, float]:
    """An untraced then a traced iteration: the traced per-layer metrics
    and the ratio of the two wall times."""
    plain = run_child(workload, seed, "measure", "flat")
    spans = SCRATCH / f"spans-{workload}.json"
    traced = run_child(workload, seed, "trace", "flat", count_flit_hops=True, spans=spans)
    tally.check(plain)
    tally.check(traced)
    if traced["flit_hops"] != tally.reference["flit_hops"]:
        print("perfbench: traced flit-hop count differs from the reference",
              file=sys.stderr)
        tally.checks_ok = False
    values = dict(traced["measurements"])
    values["trace.overhead_ratio"] = (
        values["trace.wall_s"] / plain["measurements"]["wall_s"]
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    SCRATCH.mkdir(exist_ok=True)

    try:
        reference = reference_for(args.workload, args.seed)
    except (IterationFailed, subprocess.TimeoutExpired) as error:
        print(f"perfbench: reference run failed: {error}", file=sys.stderr)
        return 1
    tally = Tally(reference)
    iteration = traced_iteration if args.trace else measured_iteration
    measured = repeat(
        args.seconds, lambda: iteration(args.workload, args.seed, tally), tally
    )
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not measured:
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    metrics = {
        metric["name"]: {"value": measured[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }
    print(f"{args.workload} seed={args.seed}: {tally.attempted} simulations, "
          f"{tally.failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and tally.checks_ok,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
