"""Stable, vectorized key hashing for partition assignment.

The reference splits work by primary-key ranges (RangeSplitUtil.java:14-100,
SingleTableSplitUtil.java:34-130); our engine's single wide shuffle is a hash
partition on ``url`` (SURVEY.md §7.3), so the hash must be

  * deterministic across processes and runs on the same install (checkpointed
    incremental replay re-routes events to the partition that owns the url),
  * vectorized (it runs per batch in the hot path).

Default implementation: polars' 64-bit hash with a fixed seed (vectorized
Rust, deterministic per polars version). Fallback: zlib.crc32 per row (slower,
deterministic forever). The active partitioner id is recorded in the lake's
``_meta.json`` and validated on resume so a changed hash cannot silently
mis-route events (see state/manifest.py).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

try:
    import polars as pl

    _HAVE_POLARS = True
except ImportError:  # pragma: no cover
    _HAVE_POLARS = False


def partitioner_id() -> str:
    """Identity of the active hash implementation, persisted in lake meta."""
    if _HAVE_POLARS:
        return f"polars-ahash-seed0-{pl.__version__}"
    return "crc32"  # pragma: no cover


def hash_strings_u64(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Hash a string/large_string Arrow array to uint64, vectorized."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if _HAVE_POLARS:
        out = pl.from_arrow(arr).hash(seed=0).to_numpy()
        return np.ascontiguousarray(out, dtype=np.uint64)
    return np.fromiter(  # pragma: no cover - fallback path
        (zlib.crc32(s.encode()) if s is not None else 0 for s in arr.to_pylist()),
        dtype=np.uint64,
        count=len(arr),
    )


def partition_of(arr: pa.Array | pa.ChunkedArray, num_partitions: int) -> np.ndarray:
    """Partition id in [0, num_partitions) per row — int32 for cheap shuffle keys."""
    return (hash_strings_u64(arr) % np.uint64(num_partitions)).astype(np.int32)
