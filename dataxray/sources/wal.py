"""WAL-tail / change-log source: pruned, schema-unified Parquet event reads.

The analog of otsstreamreader's bounded change-stream export (SURVEY.md §3.3):
shards ≙ event-log Parquet files covering contiguous txn ranges; the
checkpoint table ≙ lake manifests; resume ≙ skipping files whose whole txn
range is at/below the global low watermark, then filtering the remainder
per-partition inside the merge (exact watermark, ShardCheckpoint skipCount
analog).

Pruning uses Parquet *footer statistics* on ``txn_id`` (no filename
convention, no data read). Schema unification handles additive evolution:
files written before the evolution txn lack the new column; we read every
file against the unified schema so old files yield nulls for it
(pa.unify_schemas — the Ray-native replacement for DataX's schemaless
Records).

Sources are CLUSTER-SAFE addresses, never driver-local constructions: a
plain directory path (shared storage on a real cluster), a ``mocks3://`` /
``s3://`` object-store prefix (resolved through the same backend family as
the lake, state/lakefs.py), or an explicit ``list[EventFile]`` — the form
chunked replay uses so a bounded sub-epoch is just "these files", readable
from every worker node (no /tmp symlink dirs, which only exist on the
driver's filesystem).
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from ..schema import unify

#: str directory (local or scheme://) or an explicit file list
EventSource = "str | list[EventFile]"


@dataclass(frozen=True)
class EventFile:
    path: str  # path as the reading filesystem sees it (no scheme prefix)
    txn_lo: int
    txn_hi: int
    num_rows: int
    nbytes: int = 0
    fs_scheme: str = "file"  # file | mocks3 | s3 — all nodes can reconstruct


def filesystem_for(scheme: str):
    """pyarrow filesystem for an EventFile scheme (None = plain local paths,
    which ray.data / pq handle natively). Workers reconstruct the filesystem
    from the scheme string — nothing driver-local is ever shipped."""
    if scheme == "mocks3":
        from pyarrow.fs import LocalFileSystem

        return LocalFileSystem()
    if scheme == "s3":
        from pyarrow.fs import S3FileSystem

        return S3FileSystem()
    return None


def _source_fs(events_dir: str):
    """(scheme, base_path, pafs|None) for a directory-form source."""
    for scheme in ("mocks3", "s3"):
        pre = scheme + "://"
        if events_dir.startswith(pre):
            return scheme, events_dir[len(pre):], filesystem_for(scheme)
    if events_dir.startswith("file://"):
        return "file", events_dir[len("file://"):], None
    return "file", events_dir, None


def scan_event_files(events_dir: str) -> list[EventFile]:
    """Footer-only scan: (txn_lo, txn_hi, rows, bytes) per file from
    row-group stats. Accepts local dirs and mocks3://, s3:// prefixes."""
    scheme, base, pafs = _source_fs(events_dir)
    if pafs is None:
        paths = sorted(glob.glob(os.path.join(base, "*.parquet")))
        sizes = {p: os.path.getsize(p) for p in paths}
    else:
        from pyarrow.fs import FileSelector, FileType

        info = pafs.get_file_info(base)
        if info.type == FileType.NotFound:
            return []
        infos = pafs.get_file_info(FileSelector(base, recursive=False))
        paths = sorted(i.path for i in infos
                       if i.type == FileType.File and i.path.endswith(".parquet"))
        sizes = {i.path: int(i.size or 0) for i in infos}
    out = []
    for path in paths:
        md = pq.read_metadata(path, filesystem=pafs)
        idx = md.schema.to_arrow_schema().get_field_index("txn_id")
        lo, hi = None, None
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is not None and st.has_min_max:
                lo = st.min if lo is None else min(lo, st.min)
                hi = st.max if hi is None else max(hi, st.max)
        out.append(EventFile(path, lo if lo is not None else 0,
                             hi if hi is not None else 2**62, md.num_rows,
                             nbytes=sizes.get(path, 0), fs_scheme=scheme))
    return out


def resolve_files(source) -> list[EventFile]:
    """Normalize an event source (dir string or EventFile list) to files."""
    if isinstance(source, str):
        return scan_event_files(source)
    return list(source)


def prune_files(files: list[EventFile], low_watermark: int) -> list[EventFile]:
    """Keep files containing any txn > low_watermark."""
    return [f for f in files if f.txn_hi > low_watermark]


def txn_aligned(files: list[EventFile]) -> bool:
    """True when file txn ranges are disjoint — i.e. no transaction is split
    across files. A split txn breaks watermark semantics (a watermark at that
    txn would drop the later half); real WAL segmenters rotate at commit
    boundaries. Misaligned (or corrupt-stat: dirty rows can skew footer
    min/max) file sets disable the uniform-watermark fast path rather than
    failing the job."""
    ordered = sorted(files, key=lambda f: (f.txn_lo, f.path))
    return all(b.txn_lo > a.txn_hi for a, b in zip(ordered, ordered[1:]))


def unified_schema(files: list[EventFile]) -> pa.Schema:
    pafs = filesystem_for(files[0].fs_scheme) if files else None
    return unify([pq.read_schema(f.path, filesystem=pafs) for f in files])


def read_events(
    source,
    low_watermark: int = 0,
    columns: list[str] | None = None,
    in_process: bool = False,
    **read_kwargs,
):
    """ray.data.Dataset of events with txn > low_watermark (file-granular
    pruning here; exact per-partition filtering happens in the merge).
    ``source`` is a directory (local or scheme://) or a pre-scanned
    ``list[EventFile]`` (the chunked-replay form — every path in it must be
    cluster-visible). Returns (dataset, unified_event_schema,
    total_rows_hint, txn_hi) where txn_hi is the max transaction covered by
    the files read — after a successful replay EVERY partition's watermark
    may advance to it, even partitions that saw no rows (they provably have
    no events ≤ txn_hi).

    ``in_process=True`` returns, instead of the Dataset, the pruned files
    themselves, without planning a Ray read: the replay cuts them into
    shares, each read with read_files against the unified schema.
    """
    files = prune_files(resolve_files(source), low_watermark)
    if not files:
        return None, None, 0, low_watermark
    schema = unified_schema(files)
    if in_process:
        data = files
    else:
        import ray.data

        data = ray.data.read_parquet(
            [f.path for f in files], schema=schema, columns=columns,
            filesystem=filesystem_for(files[0].fs_scheme), **read_kwargs)
    if txn_aligned(files):
        txn_hi = max(f.txn_hi for f in files)
    else:  # conservative: no uniform watermark advance on misaligned logs
        import warnings

        warnings.warn(
            "WAL files overlap or split transactions (or dirty rows skew "
            "footer stats); uniform watermark advance disabled for this run",
            stacklevel=2,
        )
        txn_hi = low_watermark
    return data, schema, sum(f.num_rows for f in files), txn_hi


def read_files(files: list[EventFile], schema: pa.Schema):
    """One Arrow table per file of ``files``, read in this process with
    pyarrow against ``schema`` (read_events' unified schema), one file in
    memory at a time."""
    pafs = filesystem_for(files[0].fs_scheme) if files else None
    for f in files:
        yield pq.read_table(f.path, schema=schema, filesystem=pafs,
                            partitioning=None)
