"""Benchmark of the cubelens ANALYZE pipeline; run it with ``python3 perfbench/run.py``."""
