"""Benchmark of the hypersetdb query system: seeded workloads, answer checks,
end-to-end metrics and per-layer metrics from a traced run.  Run it with
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.
"""
