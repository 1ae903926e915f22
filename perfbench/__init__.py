"""The repository benchmark: end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.  ``BENCHMARK.json`` at the root
lists the workloads and metrics; ``perfbench/README.md`` explains them.
"""
