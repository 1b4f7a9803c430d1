"""Re-pin the reference outputs of the default seed in ``pinned.json``.

Run from the repository root after a change that is meant to alter the
simulated outputs (a bug fix or a model change, never an optimisation)::

    python3 perfbench/pin.py

Each workload runs once on the object core (the executable
specification) and once traced on the flat core; the digests are pinned
only when the two agree bit for bit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.run import PINNED, SCRATCH, run_child  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    pinned = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        spec = run_child(workload, DEFAULT_SEED, "measure", "objects", count_flit_hops=True)
        flat = run_child(workload, DEFAULT_SEED, "trace", "flat", count_flit_hops=True)
        keys = ("digests", "rows_digest", "flit_hops")
        entry = {key: spec[key] for key in keys}
        if {key: flat[key] for key in keys} != entry:
            print(f"pin: {workload}: flat core disagrees with the object core",
                  file=sys.stderr)
            return 1
        if not all(spec["drained"]) or spec["warm_ok"] is False:
            print(f"pin: {workload}: reference run did not complete", file=sys.stderr)
            return 1
        pinned["workloads"][workload] = entry
        print(f"pin: {workload}: {len(entry['digests'])} simulations, "
              f"{entry['flit_hops']} flit-hops")
    PINNED.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
