"""Benchmark harness for the design-rule system (see ``perfbench/run.py``)."""
