"""Single-process reference last-writer-wins: pyarrow only, no Ray, no
engine code. Pages ∪ events are sorted once by (url, txn_id, seq); a
snapshot keeps the last row per url at or below a txn cut-off and drops
tombstones. Every correctness check in the benchmark compares against it.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

COLUMNS = ["url", "txn_id", "seq", "op", "text", "lang"]


def _lift_pages(pages: pa.Table) -> pa.Table:
    """Base pages are the oldest write: (txn_id=0, seq=0, op='I')."""
    n = len(pages)
    zeros = pa.array([0] * n, pa.int64())
    return pa.table({
        "url": pages["url"], "txn_id": zeros, "seq": zeros,
        "op": pa.array(["I"] * n, pa.string()),
        "text": pages["text"].cast(pa.large_string()), "lang": pages["lang"],
    })


class Reference:
    def __init__(self, pages_path: str, event_paths: list[str]):
        parts = [_lift_pages(pq.read_table(pages_path, columns=["url", "text", "lang"]))]
        parts += [pq.read_table(p, columns=COLUMNS) for p in event_paths]
        log = pa.concat_tables(parts, promote_options="permissive")
        self.log = log.sort_by([("url", "ascending"), ("txn_id", "ascending"),
                                ("seq", "ascending")])
        self._cache: dict = {}

    def snapshot(self, txn_hi: int | None = None) -> pa.Table:
        """Live rows as of ``txn_hi`` (None = everything), sorted by url."""
        if txn_hi in self._cache:
            return self._cache[txn_hi]
        t = self.log
        if txn_hi is not None:
            t = t.filter(pc.less_equal(t["txn_id"], txn_hi))
        urls = t["url"].combine_chunks()
        last = pc.not_equal(urls[1:], urls[:-1])
        last = pa.concat_arrays([last, pa.array([True])]) if len(t) else last
        t = t.filter(last)
        t = t.filter(pc.not_equal(t["op"], "D")).drop_columns(["op"])
        self._cache[txn_hi] = t
        return t


def lake_matches(lake_table: pa.Table, ref: pa.Table) -> str | None:
    """None when the lake holds exactly the reference rows (same urls, same
    lineage, byte-identical text); otherwise a one-line reason."""
    if len(lake_table) != len(ref):
        return f"row count {len(lake_table)} != reference {len(ref)}"
    if not len(ref):
        return None
    got = lake_table.select(["url", "txn_id", "seq", "text"]).sort_by("url")
    for col in ("url", "txn_id", "seq", "text"):
        a = got[col].combine_chunks()
        b = ref[col].combine_chunks().cast(a.type)
        if not a.equals(b):
            return f"column {col} differs from reference"
    return None
