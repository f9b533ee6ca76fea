"""Benchmark for lgrpool: generated TU-scale workloads, end-to-end
throughput, and an outside-in per-layer trace. Entry point: run.py."""
