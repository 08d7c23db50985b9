"""Benchmark of the advshare CLI: workloads, correctness checks and layer tracing."""
