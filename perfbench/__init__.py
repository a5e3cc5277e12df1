"""One-core CDC benchmark for dataxray: backfill, WAL-tail and lake-serving
workloads with an optional traced per-layer breakdown. Entry point: run.py."""
