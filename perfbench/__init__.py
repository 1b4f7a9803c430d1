"""Host-time benchmark of the LAPSES simulator (see ``perfbench/NOTES.md``).

Run from the repository root::

    python3 perfbench/run.py --workload mesh16-sat --seed 1 --seconds 30 --trace 0
"""
