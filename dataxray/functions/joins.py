"""Cogroup-based joins Ray Data's native join can't serve yet.

`Dataset.join(join_type="full_outer")` crashes when any hash partition
receives zero blocks from one side: the partition builder yields an empty
table with an EMPTY schema and pyarrow's acero join raises
KeyError(<key column>) (ray/data/_internal/execution/operators/join.py
finalize → pa.Table.join). Sparse sides — filtered or pre-aggregated
inputs — hit this immediately, so the outer-join family here goes through
one Ray groupby (sort shuffle) + per-key cogroup instead: both sides are
lifted to a common schema with a side tag, shuffled once on the key, and
each key group emits the cross product with null fill-in. Same exchange
volume as a hash join; per-key memory is O(|L_k|·|R_k|) — the standard
join-key-skew caveat, same as any hash join's build side.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_SIDE = "_fo_side"
_KEY = "_fo_key"


def full_outer_groupjoin(left, right, left_key: str, right_key: str,
                         left_cols: dict[str, pa.DataType],
                         right_cols: dict[str, pa.DataType],
                         key_out: str = "key"):
    """Distributed FULL OUTER equi-join via cogroup.

    ``left_cols`` / ``right_cols`` map payload column name → Arrow type
    (keys excluded; names must be disjoint — callers rename upfront).
    Returns a Dataset with columns [key_out, *left_cols, *right_cols];
    unmatched sides are null-filled.
    """
    overlap = set(left_cols) & set(right_cols)
    if overlap or key_out in left_cols or key_out in right_cols:
        raise ValueError(f"output column collision: {overlap or key_out}")
    out_cols = list(left_cols) + list(right_cols)

    def lift(side: int, key: str, own: dict, other: dict):
        def fn(t: pa.Table) -> pa.Table:
            cols = {_KEY: t[key].combine_chunks()}
            for c in own:
                cols[c] = t[c].combine_chunks()
            for c, typ in other.items():
                cols[c] = pa.nulls(len(t), typ)
            cols[_SIDE] = pa.array(np.full(len(t), side, dtype=np.int8))
            return pa.table({c: cols[c] for c in
                             [_KEY, *left_cols, *right_cols, _SIDE]})
        return fn

    l = left.map_batches(lift(0, left_key, left_cols, right_cols),
                         batch_format="pyarrow")
    r = right.map_batches(lift(1, right_key, right_cols, left_cols),
                          batch_format="pyarrow")

    def emit(g: pa.Table) -> pa.Table:
        side = g[_SIDE].combine_chunks().to_numpy(zero_copy_only=False)
        li = np.flatnonzero(side == 0)
        ri = np.flatnonzero(side == 1)
        if len(li) == 0 or len(ri) == 0:
            return g.drop_columns([_SIDE]).rename_columns([key_out, *out_cols])
        # matched key: cross product, left payload from left rows, right
        # payload from right rows
        lrep = np.repeat(li, len(ri))
        rrep = np.tile(ri, len(li))
        cols = {key_out: g[_KEY].take(pa.array(lrep))}
        for c in left_cols:
            cols[c] = g[c].take(pa.array(lrep))
        for c in right_cols:
            cols[c] = g[c].take(pa.array(rrep))
        return pa.table(cols)

    return l.union(r).groupby(_KEY).map_groups(emit, batch_format="pyarrow")


def check_copartitioned(lake_a, lake_b) -> None:
    """Refuse two lakes whose bucket i may hold different keys: both must
    report the same partitioner id, partition count and generation (a
    partition evolution on one side silently breaks co-bucketing)."""
    ma, mb = lake_a.meta(), lake_b.meta()
    for field in ("partitioner", "num_partitions"):
        if ma[field] != mb[field]:
            raise ValueError(
                f"co-partitioned lakes need matching {field}: "
                f"{ma[field]!r} != {mb[field]!r}")
    if lake_a.generation() != lake_b.generation():
        raise ValueError(
            "co-partitioned lakes at different generations: "
            f"{lake_a.generation()} != {lake_b.generation()} — evolve both "
            "sides (or neither) first")


def copartitioned_join(lake_a, lake_b, on: str = "url",
                       join_type: str = "inner",
                       columns_a: list[str] | None = None,
                       columns_b: list[str] | None = None,
                       right_suffix: str = "_b"):
    """Storage-partitioned join: two lakes bucketed by the SAME partitioner
    on the join key join with ZERO shuffle — bucket i of A can only match
    bucket i of B, so the plan is one partition job per bucket committed on
    either side, a plain Arrow join of the two projected bucket states
    (jobs_dataset: in the driver or as Ray tasks, by in_driver on the
    projected input). A side with no rows in a bucket reads as an empty
    table of its projected schema, so every ``join_type`` Arrow knows
    (inner, left/right/full outer, semi, anti) holds per bucket and
    therefore overall. At 100 TB this turns the most expensive operation in
    the system (an all-to-all exchange of both sides) into an
    embarrassingly parallel per-partition pass — the lakehouse
    "storage-partitioned join" optimization (Spark SPJ / Iceberg bucket
    joins); the reference engine has no join at all.

    Safety: refuses unless check_copartitioned passes. Returns a Dataset
    with A's columns plus B's (suffixed on collision)."""
    from ..state.manifest import _read_columns, _read_job, jobs_dataset

    check_copartitioned(lake_a, lake_b)
    sides = [(lake, lake._snapshot_files(), cols,
              lake._state_schema(lake.meta()))
             for lake, cols in ((lake_a, columns_a), (lake_b, columns_b))]

    def join_bucket(p: int) -> pa.Table:
        ta, tb = (_read_job(lake, p, files.get(p, []), cols, [], None, schema)
                  for lake, files, cols, schema in sides)
        return ta.join(tb, keys=on, join_type=join_type,
                       right_suffix=right_suffix)

    local = all(lake._in_driver((f for fs_ in files.values() for f in fs_),
                                _read_columns(cols))
                for lake, files, cols, _ in sides)
    parts = sorted({p for _, files, _, _ in sides for p in files})
    return jobs_dataset(join_bucket, [(p,) for p in parts], local)
