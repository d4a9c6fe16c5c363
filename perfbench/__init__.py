"""Benchmark of rbell: seeded workloads, correctness gates and traced runs.

``python3 perfbench/run.py --help`` from the root of a checkout.
"""
