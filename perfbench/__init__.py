"""Benchmark of the lawbound package: workloads, runner and tracer."""
