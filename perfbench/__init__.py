"""The repository benchmark: seeded workloads, output checks and layer traces.

Run it with ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/README.md``.
"""
