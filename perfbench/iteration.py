"""Run one benchmark iteration in this process and print its report.

``perfbench/run.py`` starts one fresh interpreter per iteration, so every
iteration is cold (no memoized tables or distances from an earlier one)
and ``peak_rss_mb`` is the peak of the process that ran the workload::

    PYTHONPATH=src python3 perfbench/iteration.py --workload mesh16-sat \\
        --seed 1 --level measure --core flat --scratch .perfbench

The report is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.probe import LEVELS  # noqa: E402
from perfbench.workloads import WORKLOADS, run_iteration  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--level", required=True, choices=LEVELS)
    parser.add_argument("--core", required=True, choices=("flat", "objects"))
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--count-flit-hops", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    report = run_iteration(
        args.workload,
        args.seed,
        level=args.level,
        core_mode=args.core,
        scratch=args.scratch,
        count_flit_hops=args.count_flit_hops,
        spans_path=args.spans,
    )
    # ru_maxrss is in KiB on Linux.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["measurements"]["peak_rss_mb"] = peak_kib / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
