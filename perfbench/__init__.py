"""Serving benchmark for the TeamNet runtime.

Run it from the repository root:

    python3 perfbench/run.py --workload sync_mlp --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` at the repository root names the workloads and the
metrics; ``perfbench/NOTES.md`` explains how each one is measured.
"""
