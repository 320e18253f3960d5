"""Benchmark harness for nsfem; run it with ``python3 perfbench/run.py``."""
