"""Arrow schemas for the web-page table and the CDC change-event log.

The reference's data model is a positional, schemaless Record of tagged scalar
Columns (Record.java:9-29, Column.java:74-76) with pull-based casts
(Column.java:51-67).  We replace that with explicit Arrow schemas carried by
the Dataset; CDC metadata travels *in the table* as columns (``txn_id``,
``seq``, ``op``) rather than the Record meta map (Record.java:25-27).

Change-event model mirrors the otsstreamreader multi-version record stream:
op-typed records with a monotonic sequence id
(MultiVerModeRecordSender.java:23-28,135-141); our ops are I/U/D and ordering
is total on ``(txn_id, seq)``.

Additive schema evolution: newer event files may carry extra payload columns
(e.g. ``content_hash``); ``unify_schemas``/``align_table`` promote every table
to the union schema with nulls for missing columns — old lake files stay valid.
"""

from __future__ import annotations

import pyarrow as pa

# Payload columns of a web page (the input_hint shape).
PAGE_FIELDS: list[tuple[str, pa.DataType]] = [
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("ms")),
    ("html", pa.large_binary()),
    ("text", pa.large_string()),
    ("lang", pa.string()),
]
PAGE_SCHEMA = pa.schema(PAGE_FIELDS)

# CDC metadata columns. op in {"I", "U", "D"}; (txn_id, seq) is a total order.
OP_INSERT, OP_UPDATE, OP_DELETE = "I", "U", "D"
META_FIELDS: list[tuple[str, pa.DataType]] = [
    ("txn_id", pa.int64()),
    ("seq", pa.int64()),
    ("op", pa.string()),
]

EVENT_SCHEMA = pa.schema([("url", pa.string())] + META_FIELDS + PAGE_FIELDS[1:])

# The additive-evolution column used by fixtures/bench (FIXTURES.md §2).
EVO_FIELD = pa.field("content_hash", pa.string())
EVENT_SCHEMA_EVOLVED = EVENT_SCHEMA.append(EVO_FIELD)

# Internal columns the engine adds.
PART_COL = "_part"  # url-hash partition id


def state_schema(event_schema: pa.Schema) -> pa.Schema:
    """Schema of a materialized lake partition: payload + lineage (txn_id, seq).

    The lake keeps per-row ``txn_id``/``seq`` so an incremental replay can
    compare state rows against (possibly older, re-delivered) events — the
    same reason StarRocks labels / OTS checkpoints exist in the reference.
    ``op`` is dropped: everything materialized is a live row.
    """
    fields = [f for f in event_schema if f.name != "op"]
    return pa.schema(fields)


def unify(schemas: list[pa.Schema]) -> pa.Schema:
    """Additive union of schemas, canonically ordered: url, txn_id, seq, op,
    then payload fields in first-seen order — so every bootstrap/epoch path
    converges on the same layout."""
    merged = pa.unify_schemas(schemas, promote_options="permissive")
    head = ["url"] + [n for n, _ in META_FIELDS]
    fields = [merged.field(n) for n in head if merged.get_field_index(n) != -1]
    fields += [f for f in merged if f.name not in head]
    return pa.schema(fields)


def align_table(table: pa.Table, target: pa.Schema) -> pa.Table:
    """Project ``table`` onto ``target``: add all-null columns for missing
    fields, cast mismatched types, order columns as ``target``."""
    if table.schema.equals(target):
        return table  # common case (no evolution in flight): zero work
    n = len(table)
    cols = []
    for field in target:
        idx = table.schema.get_field_index(field.name)
        if idx == -1:
            cols.append(pa.nulls(n, type=field.type))
        else:
            col = table.column(idx)
            if col.type != field.type:
                col = col.cast(field.type)
            cols.append(col)
    return pa.Table.from_arrays(cols, schema=target)
