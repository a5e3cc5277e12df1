"""Crawl-dump ingestion: WARC archives → the exactly-once CDC lake.

A web recrawl IS a change stream: every `response` record is an UPSERT of
(url, fetch-time, page). ``warc_ingest`` turns a set of WARC files into
the engine's WAL shape — url, txn_id (µs fetch time: later crawl wins),
op='U', extracted text — and replays it through the normal
url-hash-partitioned LWW merge into a lake, inheriting exactly-once
commits, watermark resume, schema evolution and delta sinks unchanged.

Scale shape: the decode is one task per WARC file (gzip members make
files the split unit — real Common Crawl is ~1 GiB × ~100k files); the
staged WAL write streams (no driver materialization) and then replay's
footer-stat pruning takes over. The staging write costs one extra pass
over the input; a fused decode→merge path could skip it, at the price of
losing replay's file-level txn pruning for resumes — staging keeps the
crash-resume story identical to every other WAL.

Reference analog: DataX jobs pair any reader with any writer through the
framework (JobContainer schedule, `core/.../JobContainer.java`); this is
warcreader × the CDC lake writer composed the same way.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

from .replay import ReplayConfig, replay


def _utf8_lossy(html: pa.ChunkedArray) -> pa.ChunkedArray:
    """Page bytes as text: the fast validating cast when every page is valid
    UTF-8, else a per-page decode with U+FFFD for the invalid bytes (crawled
    pages routinely carry stray Latin-1 or binary bytes, and one of them
    must not fail the whole decode task)."""
    try:
        return pc.cast(html, pa.string())
    except pa.ArrowInvalid:
        return pa.chunked_array([pa.array(
            [None if b is None else b.decode("utf-8", "replace")
             for b in html.to_pylist()], pa.string())])


def warc_to_wal(files: list[str] | str, staging_dir: str,
                extract_text: bool = True, filesystem=None) -> str:
    """Decode WARC file(s) into WAL parquet shards under ``staging_dir``:
    (url, txn_id, seq, op, warc_ts, text, lang) with txn_id = µs fetch
    time (LWW: the later crawl of a url wins) and op='U' (recrawls never
    delete). Streaming: one decode task per file, shards written as they
    complete. ``filesystem`` (e.g. an fsspec one) reads ``files`` from a
    remote store; None reads local paths. A record without a parseable
    WARC-Date gets a null txn_id, which replay's Validate routes to the
    dirty side-channel (``txn_regression``)."""
    from ..functions.text import html_to_text
    from ..sources.warc import read_warc

    ds = read_warc(files, filesystem=filesystem)

    def to_wal(t: pa.Table) -> pa.Table:
        ts = pc.cast(t["warc_ts"], pa.timestamp("us"))
        txn = pc.cast(ts, pa.int64())
        html = _utf8_lossy(t["html"])
        text = html_to_text(html) if extract_text else html
        n = len(t)
        return pa.table({
            "url": pc.cast(t["url"], pa.string()),
            "txn_id": txn,
            "seq": pa.nulls(n, pa.int64()).fill_null(0),
            "op": pa.nulls(n, pa.string()).fill_null("U"),
            "warc_ts": ts,
            "text": text,
            "lang": pa.nulls(n, pa.string()),
        })

    os.makedirs(staging_dir, exist_ok=True)
    ds.map_batches(to_wal, batch_format="pyarrow").write_parquet(staging_dir)
    return staging_dir


def warc_ingest(files: list[str] | str, lake_dir: str, staging_dir: str,
                cfg: ReplayConfig = ReplayConfig(),
                extract_text: bool = True, filesystem=None):
    """WARC crawl dump → CDC lake, end to end: decode+extract to a staged
    WAL, then the standard exactly-once LWW replay. Returns the replay's
    RunReport. Re-running after a crash is safe the same way any replay
    is: the staged WAL is deterministic and the lake's per-partition
    watermarks skip applied work. ``filesystem`` as in warc_to_wal."""
    warc_to_wal(files, staging_dir, extract_text=extract_text,
                filesystem=filesystem)
    return replay(staging_dir, lake_dir, cfg=cfg)
