"""Last-writer-wins merge kernels — the heart of the upsert engine.

The reference delegates keyed LWW to the destination database
(``replace INTO`` / ``ON DUPLICATE KEY UPDATE``,
WriterUtil.getWriteTemplate:110-145; ES ``doc_as_upsert``,
ElasticSearchWriter.java:953-957). We own it: a vectorized
sort-by-(key, txn_id, seq) + take-last-run reduction over Arrow tables.

LWW is an associative, commutative max-by-(txn_id, seq) reduction, which
makes the **batch combiner** sound: reduce every block before the shuffle so
only one row per (url, block) crosses the wire — a huge win at a 70% update
mix, and what keeps a hot url from skewing its partition (SURVEY.md §7.4).
The per-partition merge then reduces the partial winners again.

Tombstones (op='D') must survive partial reduces (a later batch may not know
the url was deleted) and are dropped only in the final materialization.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import OP_DELETE, OP_INSERT, align_table, state_schema

ORDER = [("txn_id", "ascending"), ("seq", "ascending")]
CNT_COL = "_cnt"  # source events collapsed into each combiner winner


def _key_codes(table: pa.Table, key: str) -> np.ndarray:
    return pc.dictionary_encode(table[key].combine_chunks()).indices.to_numpy(
        zero_copy_only=False
    )


def lww_winner_indices(table: pa.Table, key: str = "url",
                       codes: np.ndarray | None = None) -> np.ndarray:
    """Row indices of the winning (max (txn_id, seq)) event per key.

    Key-only reduction: dictionary-encode the key and lexsort just the three
    key/order columns — the wide payload (html!) is never sorted or copied;
    the caller does ONE take of the surviving rows. This is what keeps the
    map phase memory-bandwidth-light at scale (a full-table sort_by rewrites
    every KB-sized row; this touches ~16 bytes/row)."""
    if codes is None:
        codes = _key_codes(table, key)
    txn = table["txn_id"].combine_chunks().to_numpy(zero_copy_only=False)
    seq = table["seq"].combine_chunks().to_numpy(zero_copy_only=False)
    order = np.lexsort((seq, txn, codes))
    sorted_codes = codes[order]
    last = np.empty(len(order), dtype=bool)
    last[:-1] = sorted_codes[1:] != sorted_codes[:-1]
    last[-1] = True
    return order[last]


def lww_reduce(table: pa.Table, key: str = "url") -> pa.Table:
    """Keep the single winning (max (txn_id, seq)) event per key. Output row
    order is unspecified (LWW is a set-valued reduction). Tombstones are
    kept — callers drop them at materialization time only."""
    n = len(table)
    if n <= 1:
        return table
    idx = lww_winner_indices(table, key)
    if len(idx) == n:
        return table  # all keys unique — nothing to reduce, skip the copy
    return table.take(pa.array(np.sort(idx)))


def lww_reduce_counted(table: pa.Table, key: str = "url") -> pa.Table:
    """lww_reduce that also carries ``_cnt``: how many source events each
    winner absorbed (summed across partial reduces). The merge stage sums
    the counts for RunReport.read_succeed_records; the replay drops
    already-applied events before its combiner runs, so they are exact."""
    n = len(table)
    if CNT_COL in table.column_names:
        cnt = table[CNT_COL].combine_chunks().to_numpy(zero_copy_only=False)
        cnt = np.asarray(cnt, dtype=np.int64)
        table = table.drop_columns([CNT_COL])
    else:
        cnt = np.ones(n, dtype=np.int64)
    if n <= 1:
        return table.append_column(CNT_COL, pa.array(cnt))
    codes = _key_codes(table, key)
    idx = np.sort(lww_winner_indices(table, key, codes=codes))
    if len(idx) == n:  # all keys unique — nothing reduced, counts unchanged
        return table.append_column(CNT_COL, pa.array(cnt))
    sums = np.bincount(codes, weights=cnt).astype(np.int64)
    out = table.take(pa.array(idx))
    return out.append_column(CNT_COL, pa.array(sums[codes[idx]]))


def strip_counts(table: pa.Table) -> tuple[pa.Table, int]:
    """Remove ``_cnt`` and return (table, total source events it stood for)."""
    if CNT_COL not in table.column_names:
        return table, len(table)
    total = pc.sum(table[CNT_COL]).as_py() or 0
    return table.drop_columns([CNT_COL]), int(total)


def drop_tombstones(table: pa.Table) -> pa.Table:
    return table.filter(pc.not_equal(table["op"], OP_DELETE))


class BatchCombiner:
    """map_batches pre-shuffle combiner: one surviving event per url per batch.

    counted=True threads the ``_cnt`` absorbed-event column through the
    shuffle (8 bytes/winner) so the merge can report exact applied counts."""

    def __init__(self, key: str = "url", counted: bool = False):
        self.key = key
        self.counted = counted

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.counted:
            return lww_reduce_counted(batch, self.key)
        return lww_reduce(batch, self.key)


def state_as_events(state: pa.Table) -> pa.Table:
    """Lift lake rows back into the event stream at their recorded
    (txn_id, seq) lineage so incremental merge is just another LWW reduce
    over events ∪ state. Base files have no op column (live rows → 'I');
    delta files carry op already, including 'D' tombstones that must keep
    masking older base rows."""
    if "op" in state.column_names:
        op = state["op"].combine_chunks().fill_null(OP_INSERT)
        return state.set_column(state.schema.get_field_index("op"), "op", op)
    op = pa.nulls(len(state), pa.string()).fill_null(OP_INSERT)
    return state.append_column("op", op)


def resolve_state(raw: pa.Table, key: str = "url") -> pa.Table:
    """Materialize a partition from raw base+delta files: LWW over lineage,
    tombstones dropped, op column removed (delta-file read resolution)."""
    if "op" not in raw.column_names:
        return raw  # single resolved base — nothing to do
    t = state_as_events(raw)
    t = drop_tombstones(lww_reduce(t, key))
    return t.drop_columns(["op"])


def merge_partition(
    events: pa.Table,
    state: pa.Table | None,
    target_event_schema: pa.Schema,
    watermark: int,
    key: str = "url",
) -> pa.Table:
    """Final per-partition merge: state ∪ fresh events → new state table.

    ``watermark`` is the partition's committed txn_hi (manifest); events at or
    below it were already applied and are filtered — this is what makes
    re-delivered / replayed batches no-ops (exactly-once, FIXTURES.md §3.3).
    Output schema = state_schema(target_event_schema): payload + lineage
    (txn_id, seq), tombstones resolved.
    """
    if watermark >= 0:
        events = events.filter(pc.greater(events["txn_id"], watermark))
    parts = [align_table(events, target_event_schema)]
    if state is not None and len(state):
        parts.append(align_table(state_as_events(state), target_event_schema))
    merged = lww_reduce(pa.concat_tables(parts), key)
    merged = drop_tombstones(merged)
    return align_table(merged, state_schema(target_event_schema))


CHANGE_COL = "_change_type"


def diff_snapshots(old: pa.Table | None, new: pa.Table | None,
                   key: str = "url", pre_images: bool = False) -> pa.Table:
    """Change rows between two resolved snapshots of the same partition —
    the change-feed kernel (CDF). ``_change_type`` ∈ {insert, update,
    delete}; insert/update rows carry the NEW row's payload, delete rows the
    OLD row's. A key counts as updated exactly when its LWW winner's lineage
    (txn_id, seq) moved — payload equality is never compared (LWW semantics:
    a re-won key IS a change even if the payload round-tripped).

    ``pre_images=True`` emits each update TWICE — ``update_preimage`` with
    the old payload and ``update_postimage`` with the new (Delta-CDF-style)
    — which is what makes the feed ALGEBRAICALLY consumable: a downstream
    sum/count maintains itself by adding post-image/insert rows and
    subtracting pre-image/delete rows, no re-read of unchanged data.

    Vectorized: two pc.index_in membership probes + lineage compares; no
    per-row Python. Snapshots are resolved tables (tombstones already
    dropped), so a key deleted in the window simply vanishes from ``new``.
    """
    def _tag(t: pa.Table, tag: str) -> pa.Table:
        return t.append_column(
            CHANGE_COL, pa.nulls(len(t), pa.string()).fill_null(tag))

    base = new if new is not None else old
    if base is None:
        return pa.table({})
    empty_schema = base.schema.append(pa.field(CHANGE_COL, pa.string()))
    if old is None or len(old) == 0:
        return _tag(new, "insert") if new is not None and len(new) \
            else empty_schema.empty_table()
    if new is None or len(new) == 0:
        return _tag(old, "delete")

    old_keys = old[key].combine_chunks()
    new_keys = new[key].combine_chunks()
    pos = pc.index_in(new_keys, value_set=old_keys)
    inserts = _tag(new.filter(pc.is_null(pos)), "insert")
    matched_new = new.filter(pc.is_valid(pos))
    old_match = old.take(pos.drop_null())
    moved = pc.or_(
        pc.not_equal(matched_new["txn_id"].combine_chunks(),
                     old_match["txn_id"].combine_chunks()),
        pc.not_equal(matched_new["seq"].combine_chunks(),
                     old_match["seq"].combine_chunks()),
    )
    if pre_images:
        updates = pa.concat_tables(
            [_tag(old_match.filter(moved), "update_preimage"),
             _tag(matched_new.filter(moved), "update_postimage")],
            promote_options="permissive")
    else:
        updates = _tag(matched_new.filter(moved), "update")
    gone = pc.is_null(pc.index_in(old_keys, value_set=new_keys))
    deletes = _tag(old.filter(gone), "delete")
    parts = [t for t in (inserts, updates, deletes) if len(t)]
    if not parts:
        return empty_schema.empty_table()
    return pa.concat_tables(parts, promote_options="permissive")
