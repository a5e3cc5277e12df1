"""Change-feed-driven incremental derivation: keep a downstream aggregate
current by consuming the lake's CDF instead of re-reading the lake.

The reference engine has no derived-view maintenance at all (every DataX
job re-reads its source); a CDC lake makes the incremental form natural:
``Lake.changes(since, pre_images=True)`` emits insert / update_preimage /
update_postimage / delete rows, and any sum/count-class aggregate maintains
itself algebraically — ADD post-image and insert rows, SUBTRACT pre-image
and delete rows. Cost per refresh is O(changed keys), not O(lake): at
10^10 rows with a 0.1% epoch churn the refresh touches 10^7 rows.

Scale shape: the CDF is one partition-local diff task per partition (no
shuffle — both snapshots hash on the same key); the delta aggregation is a
per-batch C-speed partial (pa.TableGroupBy) + tree fan-in; only (group,
count, sum) rows ever reach the driver. The final combine is driver-side
over group-cardinality rows (tiny by construction).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.joins import check_copartitioned
from ..state.manifest import (Lake, _read_columns, _read_job, entries,
                              one_layout, run_partition_jobs)


def _empty_stats(group_col: str) -> pa.Table:
    return pa.table({group_col: pa.array([], pa.string()),
                     "n_docs": pa.array([], pa.int64()),
                     "sum_len": pa.array([], pa.int64())})


def _stats_partial(t: pa.Table, group_col: str, text_col: str,
                   sign: np.ndarray | None = None) -> pa.Table:
    """Per-batch (group, n_docs, sum_len) partial; ``sign`` (±1 per row)
    turns it into a CDF delta partial."""
    if len(t) == 0 or group_col not in t.column_names:
        # a no-change partition diffs to a schemaless empty table
        return _empty_stats(group_col)
    n = len(t)
    ln = pc.fill_null(pc.utf8_length(t[text_col]), 0) \
        .cast(pa.int64()).combine_chunks().to_numpy(zero_copy_only=False)
    s = np.ones(n, dtype=np.int64) if sign is None else sign
    tb = pa.table({group_col: t[group_col],
                   "n_docs": pa.array(s, pa.int64()),
                   "sum_len": pa.array(np.asarray(ln, dtype=np.int64) * s)})
    g = pa.TableGroupBy(tb, [group_col]).aggregate(
        [("n_docs", "sum"), ("sum_len", "sum")])
    return g.rename_columns([group_col, "n_docs", "sum_len"])


def grouped_count_sum(ds, group_col: str = "lang",
                      text_col: str = "text") -> pa.Table:
    """(group, n_docs, sum_len) over a Dataset — tree aggregate, driver sees
    only group-cardinality rows."""
    import ray

    from ..stages.hashagg import tree_aggregate

    out = tree_aggregate(
        ds, [group_col],
        lambda t: _stats_partial(t, group_col, text_col),
        {"n_docs": "sum", "sum_len": "sum"})
    return pa.concat_tables(ray.get(out.to_arrow_refs()))


_SIGN = {"insert": 1, "update_postimage": 1,
         "delete": -1, "update_preimage": -1}


def cdf_delta_stats(changes_ds, group_col: str = "lang",
                    text_col: str = "text") -> pa.Table:
    """Signed (group, n_docs, sum_len) deltas from a pre-image change feed."""
    import ray

    from ..stages.hashagg import tree_aggregate
    from ..stages.merge import CHANGE_COL

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0 or CHANGE_COL not in t.column_names:
            return _empty_stats(group_col)
        ct = t[CHANGE_COL].combine_chunks().to_pylist()
        try:
            sign = np.array([_SIGN[c] for c in ct], dtype=np.int64)
        except KeyError:  # plain 'update' rows mean pre_images was off
            raise ValueError(
                "cdf_delta_stats needs changes(..., pre_images=True): "
                "an 'update' row without its pre-image cannot be subtracted")
        return _stats_partial(t, group_col, text_col, sign)

    out = tree_aggregate(changes_ds, [group_col], partial,
                         {"n_docs": "sum", "sum_len": "sum"})
    return pa.concat_tables(ray.get(out.to_arrow_refs()))


def combine_stats(base: pa.Table, delta: pa.Table,
                  group_col: str = "lang") -> pa.Table:
    """base + delta (driver-side: both are group-cardinality small). Groups
    whose count reaches 0 drop out (all their docs deleted)."""
    both = pa.concat_tables([base, delta], promote_options="permissive")
    g = pa.TableGroupBy(both, [group_col]).aggregate(
        [("n_docs", "sum"), ("sum_len", "sum")])
    g = g.rename_columns([group_col, "n_docs", "sum_len"])
    return g.filter(pc.not_equal(g["n_docs"], 0)).sort_by(group_col)


class MaterializedGroupStats:
    """A PERSISTENT incrementally-maintained view: (group, n_docs, sum_len)
    over the lake, stored beside it and refreshed from the change feed.

    Layout (over the lake's own filesystem backend):
        <lake>/_views/<name>/state.parquet   the aggregate table
        <lake>/_views/<name>/_meta.json      {as_of_txn, generation}

    ``refresh()`` applies only ``changes(since=stored as_of)`` — O(changed
    keys) per epoch — and commits the new state with a single meta PUT
    (manifest pattern: a crash mid-refresh leaves the old consistent view;
    re-running refresh is idempotent because as_of_txn is the label). A
    partition evolution bumps the lake generation; the view detects it and
    REBUILDS (partition ids changed meaning under the diff), which is the
    same self-healing contract as the sidecar indexes.
    """

    def __init__(self, lake: Lake, name: str = "group_stats",
                 group_col: str = "lang", text_col: str = "text"):
        self.lake = lake
        self.name = name
        self.group_col, self.text_col = group_col, text_col
        self.dir = lake._p("_views", name)
        self.meta_path = os.path.join(self.dir, "_meta.json")
        self.state_path = os.path.join(self.dir, "state.parquet")

    def exists(self) -> bool:
        return self.lake.fs.exists(self.meta_path)

    def meta(self) -> dict:
        return self.lake.fs.read_json(self.meta_path)

    def read(self) -> pa.Table:
        return self.lake.fs.read_parquet(self.state_path)

    def _commit(self, table: pa.Table, as_of: int, gen: int) -> None:
        self.lake.fs.makedirs(self.dir)
        self.lake.fs.write_parquet(table, self.state_path,
                                   compression="zstd")
        self.lake.fs.put_json(self.meta_path,
                              {"as_of_txn": as_of, "generation": gen,
                               "group_col": self.group_col,
                               "text_col": self.text_col})

    def refresh(self) -> pa.Table:
        """Bring the view to the lake's current committed snapshot."""
        wm = self.lake.watermarks()
        cur_txn = max(wm.values(), default=-1)
        cur_gen = self.lake.generation()
        if not self.exists() or self.meta().get("generation") != cur_gen:
            # first build, or the lake evolved partitions under the view
            full = grouped_count_sum(
                self.lake.dataset(columns=[self.group_col, self.text_col]),
                self.group_col, self.text_col).sort_by(self.group_col)
            self._commit(full, cur_txn, cur_gen)
            return full
        m = self.meta()
        if m["as_of_txn"] >= cur_txn:
            return self.read()  # already current (idempotent replay)
        out = incremental_group_stats(
            self.lake, since_txn=m["as_of_txn"],
            group_col=self.group_col, text_col=self.text_col,
            base=self.read())
        self._commit(out, cur_txn, cur_gen)
        return out


def incremental_group_stats(lake: Lake, since_txn: int,
                            group_col: str = "lang",
                            text_col: str = "text",
                            base: pa.Table | None = None) -> pa.Table:
    """Current (group, n_docs, sum_len) maintained INCREMENTALLY: aggregate
    the snapshot at ``since_txn`` once (or accept a previously maintained
    ``base``), then apply only the change feed since — never re-reads
    unchanged data. Equals grouped_count_sum(lake.dataset()) by
    construction; the pytest + DuckDB oracle prove it."""
    if base is None:
        base = grouped_count_sum(
            lake.dataset(columns=[group_col, text_col], as_of_txn=since_txn),
            group_col, text_col)
    delta = cdf_delta_stats(
        lake.changes(since_txn=since_txn, pre_images=True),
        group_col, text_col)
    return combine_stats(base, delta, group_col)


# ---------------------------------------------------------------------------
# Windowed variant: time-bucketed aggregates maintained from the change feed
# ---------------------------------------------------------------------------


def _empty_window_stats() -> pa.Table:
    return pa.table({"window": pa.array([], pa.int64()),
                     "n_rows": pa.array([], pa.int64()),
                     "sum_len": pa.array([], pa.int64())})


def _window_partial(t: pa.Table, width_us: int, ts_col: str,
                    text_col: str, sign: np.ndarray | None = None) -> pa.Table:
    """(window, n_rows, sum_len) partial with window = epoch_us // width —
    the same integer bucketing the SQL oracle computes; ``sign`` makes it a
    CDF delta partial."""
    if len(t) == 0 or ts_col not in t.column_names:
        return _empty_window_stats()
    # normalize to µs regardless of the column's stored unit (ms-unit lakes
    # would otherwise bucket 1000× too coarse; SQL epoch_us agrees)
    us = pc.fill_null(
        pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()), 0) \
        .combine_chunks().to_numpy(zero_copy_only=False)
    win = us // width_us
    ln = pc.fill_null(pc.utf8_length(t[text_col]), 0) \
        .cast(pa.int64()).combine_chunks().to_numpy(zero_copy_only=False)
    s = np.ones(len(t), dtype=np.int64) if sign is None else sign
    tb = pa.table({"window": pa.array(win, pa.int64()),
                   "n_rows": pa.array(s, pa.int64()),
                   "sum_len": pa.array(np.asarray(ln, np.int64) * s)})
    g = pa.TableGroupBy(tb, ["window"]).aggregate(
        [("n_rows", "sum"), ("sum_len", "sum")])
    return g.rename_columns(["window", "n_rows", "sum_len"])


def grouped_window_stats(ds, width_us: int, ts_col: str = "warc_ts",
                         text_col: str = "text") -> pa.Table:
    import ray

    from ..stages.hashagg import tree_aggregate

    out = tree_aggregate(
        ds, ["window"],
        lambda t: _window_partial(t, width_us, ts_col, text_col),
        {"n_rows": "sum", "sum_len": "sum"})
    return pa.concat_tables(ray.get(out.to_arrow_refs()))


def cdf_delta_window(changes_ds, width_us: int, ts_col: str = "warc_ts",
                     text_col: str = "text") -> pa.Table:
    import ray

    from ..stages.hashagg import tree_aggregate
    from ..stages.merge import CHANGE_COL

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0 or CHANGE_COL not in t.column_names:
            return _empty_window_stats()
        ct = t[CHANGE_COL].combine_chunks().to_pylist()
        try:
            sign = np.array([_SIGN[c] for c in ct], dtype=np.int64)
        except KeyError:
            raise ValueError(
                "cdf_delta_window needs changes(..., pre_images=True)")
        return _window_partial(t, width_us, ts_col, text_col, sign)

    out = tree_aggregate(changes_ds, ["window"], partial,
                         {"n_rows": "sum", "sum_len": "sum"})
    return pa.concat_tables(ray.get(out.to_arrow_refs()))


def incremental_window_stats(lake: Lake, since_txn: int, width_us: int,
                             ts_col: str = "warc_ts",
                             text_col: str = "text",
                             base: pa.Table | None = None) -> pa.Table:
    """Time-bucketed (window, n_rows, sum_len) over the lake maintained
    from the pre-image change feed — the tumbling-window materialized view:
    per refresh only changed rows' windows adjust (add postimage/insert,
    subtract preimage/delete), O(changed keys) like the grouped variant.
    Windows whose count reaches 0 drop out."""
    if base is None:
        base = grouped_window_stats(
            lake.dataset(columns=[ts_col, text_col], as_of_txn=since_txn),
            width_us, ts_col, text_col)
    delta = cdf_delta_window(
        lake.changes(since_txn=since_txn, pre_images=True),
        width_us, ts_col, text_col)
    both = pa.concat_tables([base, delta], promote_options="permissive")
    g = pa.TableGroupBy(both, ["window"]).aggregate(
        [("n_rows", "sum"), ("sum_len", "sum")])
    g = g.rename_columns(["window", "n_rows", "sum_len"])
    return g.filter(pc.not_equal(g["n_rows"], 0)).sort_by("window")


# ---------------------------------------------------------------------------
# Join-shaped variant: a copartitioned-join-derived aggregate maintained from
# BOTH sides' pre-image change feeds
# ---------------------------------------------------------------------------


def _empty_join_stats() -> pa.Table:
    return pa.table({"lang": pa.array([], pa.string()),
                     "n_pairs": pa.array([], pa.int64()),
                     "sum_len": pa.array([], pa.int64())})


def _join_side(t: pa.Table, text_col: str, lang_col: str | None) -> pa.Table:
    """(url, _len[, lang]) projection of a bucket's rows — the only payload
    the join aggregate needs, so per-bucket join inputs stay tiny."""
    ln = pc.fill_null(pc.utf8_length(t[text_col]), 0).cast(pa.int64())
    cols = {"url": pc.cast(t["url"], pa.string()), "_len": ln}
    if lang_col:
        cols["lang"] = pc.cast(t[lang_col], pa.string())
    return pa.table(cols)


def _pair_agg(a: pa.Table, b: pa.Table, sign: int) -> pa.Table:
    """Inner-join the two (url, _len[, lang]) sides and aggregate to
    (lang, n_pairs, sum_len) with every count/sum multiplied by ``sign`` —
    +1 partials build the view, -1 partials retract old contributions."""
    if len(a) == 0 or len(b) == 0:
        return _empty_join_stats()
    j = a.join(b, keys="url", join_type="inner", right_suffix="_b")
    if len(j) == 0:
        return _empty_join_stats()
    s = np.full(len(j), sign, dtype=np.int64)
    tot = pc.add(j["_len"].combine_chunks().cast(pa.int64()),
                 j["_len_b"].combine_chunks().cast(pa.int64())) \
        .to_numpy(zero_copy_only=False)
    tb = pa.table({"lang": j["lang"],
                   "n_pairs": pa.array(s, pa.int64()),
                   "sum_len": pa.array(np.asarray(tot, np.int64) * s)})
    g = pa.TableGroupBy(tb, ["lang"]).aggregate(
        [("n_pairs", "sum"), ("sum_len", "sum")])
    return g.rename_columns(["lang", "n_pairs", "sum_len"])


def _combine_join_stats(*tables: pa.Table) -> pa.Table:
    """Sum of join-view partials, e.g. base + delta (driver-side,
    group-cardinality rows). Langs whose pair count reaches 0 drop out."""
    both = pa.concat_tables([_empty_join_stats(), *tables],
                            promote_options="permissive")
    g = pa.TableGroupBy(both, ["lang"]).aggregate(
        [("n_pairs", "sum"), ("sum_len", "sum")])
    g = g.rename_columns(["lang", "n_pairs", "sum_len"])
    return g.filter(pc.not_equal(g["n_pairs"], 0)).sort_by("lang")


def joined_group_stats(lake_a: Lake, lake_b: Lake,
                       as_of_a: int | None = None,
                       as_of_b: int | None = None,
                       lang_col: str = "lang",
                       text_a: str = "text",
                       text_b: str = "text") -> pa.Table:
    """Full recompute of the join view: per-lang (n_pairs, sum_len) over the
    storage-partitioned inner join of two co-bucketed lakes. ZERO shuffle —
    bucket i of A can only match bucket i of B, so the plan is one
    join+aggregate partition job per bucket holding data on both sides
    (run_partition_jobs: in the driver or as Ray tasks, by in_driver on the
    projected input). Each side reads only url, its text column and A's
    lang column; the driver only ever sees group-cardinality rows per
    bucket."""
    check_copartitioned(lake_a, lake_b)
    cols_a, cols_b = ["url", text_a, lang_col], ["url", text_b]
    fa, fb = lake_a._snapshot_files(as_of_a), lake_b._snapshot_files(as_of_b)
    sa, sb = (lk._state_schema(lk.meta()) for lk in (lake_a, lake_b))

    def bucket_agg(p: int) -> pa.Table:
        ta = _read_job(lake_a, p, fa[p], cols_a, [], None, sa)
        tb = _read_job(lake_b, p, fb[p], cols_b, [], None, sb)
        return _pair_agg(_join_side(ta, text_a, lang_col),
                         _join_side(tb, text_b, None), 1)

    parts = [p for p in sorted(fa) if fa[p] and fb.get(p)]
    local = (lake_a._in_driver((f for p in parts for f in fa[p]),
                               _read_columns(cols_a))
             and lake_b._in_driver((f for p in parts for f in fb[p]),
                                   _read_columns(cols_b)))
    return _combine_join_stats(
        *run_partition_jobs(bucket_agg, [(p,) for p in parts], local))


def incremental_join_stats(lake_a: Lake, lake_b: Lake,
                           since_a: int, since_b: int,
                           base: pa.Table | None = None,
                           lang_col: str = "lang",
                           text_a: str = "text",
                           text_b: str = "text") -> pa.Table:
    """JOIN-shaped incremental view maintenance: keep the per-lang
    (n_pairs, sum_len) aggregate over A ⋈ B current by consuming BOTH
    lakes' pre-image change feeds instead of re-joining the lakes.

    For the join view the delta of a changed key k is
    ``join(new_a[k], new_b[k]) - join(old_a[k], old_b[k])`` — the classic
    V' = V + ΔA⋈B + A⋈ΔB + ΔA⋈ΔB algebra folded into one signed pass over
    the changed-key set K = keys(ΔA) ∪ keys(ΔB). Because both lakes bucket
    by the same url partitioner, K's bucket on either side is the same
    bucket, so each delta is ONE partition job per TOUCHED partition
    (run_partition_jobs: in the driver or as Ray tasks, by in_driver on
    their snapshots' files; partitions without a data write since are
    pruned by the snapshots, read once here — pure metadata, no data
    read): diff each
    changed side's bucket between its two snapshots, read the two current
    bucket states restricted to K (url, text and lang columns only),
    reconstruct each side's old rows as (current rows for keys that side's
    feed didn't touch) + (that feed's update_preimage/delete rows), then
    emit +new-join-agg and -old-join-agg partials. Cost per refresh is
    O(touched buckets) reads + O(|K|) join work; the driver combines
    group-cardinality rows only.

    Equals joined_group_stats(lake_a, lake_b) by construction; the pytest
    + DuckDB oracle (`cdc_incremental_join`) prove it."""
    from ..stages.merge import CHANGE_COL

    check_copartitioned(lake_a, lake_b)
    if base is None:
        base = joined_group_stats(lake_a, lake_b, as_of_a=since_a,
                                  as_of_b=since_b, lang_col=lang_col,
                                  text_a=text_a, text_b=text_b)
    # per side: the current files of every committed partition, and the
    # files as of ``since`` of each partition whose last data write came
    # after it (its txn_hi moves with every epoch's watermark advance);
    # both snapshots in one layout, or the bucket ids would not match
    files = []
    for lake, since in ((lake_a, since_a), (lake_b, since_b)):
        cur, old = lake.snapshot(), lake.snapshot(since)
        one_layout(lake, old, cur)
        old = lake._files(old)
        files.append((lake._files(cur), {
            p: old.get(p, []) for p, e in entries(cur).items()
            if e["data_txn"] > since}))
    (fa, fa_old), (fb, fb_old) = files
    cols_a, cols_b = ["url", text_a, lang_col], ["url", text_b]
    sa, sb = (lk._state_schema(lk.meta()) for lk in (lake_a, lake_b))

    def bucket_delta(p: int) -> pa.Table:
        da = (lake_a.partition_changes(p, since_a, pre_images=True,
                                       files=(fa_old[p], fa[p]))
              if p in fa_old else None)
        db = (lake_b.partition_changes(p, since_b, pre_images=True,
                                       files=(fb_old[p], fb[p]))
              if p in fb_old else None)

        def feed_urls(d: pa.Table | None) -> pa.Array:
            if d is None or len(d) == 0:
                return pa.array([], pa.string())
            return pc.unique(pc.cast(d["url"].combine_chunks(), pa.string()))

        ua, ub = feed_urls(da), feed_urls(db)
        keys = pc.unique(pa.concat_arrays([ua, ub]))
        if len(keys) == 0:
            return _empty_join_stats()
        cur_a = _read_job(lake_a, p, fa.get(p, []), cols_a, [], keys, sa)
        cur_b = _read_job(lake_b, p, fb.get(p, []), cols_b, [], keys, sb)

        def old_rows(cur: pa.Table, d: pa.Table | None,
                     urls: pa.Array, text_col: str,
                     lcol: str | None) -> pa.Table:
            """This side's pre-change rows for the changed-key set: current
            rows for keys this side's feed didn't touch (unchanged here,
            changed on the OTHER side) + the feed's own pre-images."""
            untouched = cur.filter(pc.invert(pc.is_in(
                pc.cast(cur["url"], pa.string()), value_set=urls)))
            parts = [_join_side(untouched, text_col, lcol)]
            if d is not None and len(d):
                pre = d.filter(pc.is_in(
                    d[CHANGE_COL],
                    value_set=pa.array(["update_preimage", "delete"],
                                       pa.string())))
                parts.append(_join_side(pre, text_col, lcol))
            return pa.concat_tables(parts, promote_options="permissive")

        new_a = _join_side(cur_a, text_a, lang_col)
        new_b = _join_side(cur_b, text_b, None)
        old_a = old_rows(cur_a, da, ua, text_a, lang_col)
        old_b = old_rows(cur_b, db, ub, text_b, None)
        return pa.concat_tables([_pair_agg(new_a, new_b, 1),
                                 _pair_agg(old_a, old_b, -1)])

    touched = sorted(fa_old.keys() | fb_old.keys())
    local = (lake_a._in_driver(f for p in touched for f in
                               (*fa_old.get(p, []), *fa.get(p, [])))
             and lake_b._in_driver(f for p in touched for f in
                                   (*fb_old.get(p, []), *fb.get(p, []))))
    return _combine_join_stats(
        base, *run_partition_jobs(bucket_delta, [(p,) for p in touched], local))


class MaterializedJoinStats:
    """A PERSISTENT incrementally-maintained JOIN view: per-lang
    (n_pairs, sum_len) over A ⋈ B, stored beside lake A and refreshed from
    BOTH lakes' pre-image change feeds.

    Layout (over lake A's filesystem backend):
        <lake_a>/_views/<name>/state.parquet   the aggregate table
        <lake_a>/_views/<name>/_meta.json      {as_of_a, as_of_b,
                                                generation_a, generation_b}

    ``refresh()`` applies only ``changes(since=stored as_of)`` on each
    side — O(changed keys) per epoch — and commits the new state with a
    single meta PUT (manifest pattern: a crash mid-refresh leaves the old
    consistent view; re-running refresh is idempotent because the as_of
    pair is the label). A partition evolution on EITHER lake bumps that
    lake's generation; the view detects it and REBUILDS (co-bucketing
    changed meaning under the diff) — the same self-healing contract as
    MaterializedGroupStats and the sidecar indexes.
    """

    def __init__(self, lake_a: Lake, lake_b: Lake,
                 name: str = "join_stats", lang_col: str = "lang",
                 text_a: str = "text", text_b: str = "text"):
        self.lake_a, self.lake_b = lake_a, lake_b
        self.name = name
        self.lang_col, self.text_a, self.text_b = lang_col, text_a, text_b
        self.dir = lake_a._p("_views", name)
        self.meta_path = os.path.join(self.dir, "_meta.json")
        self.state_path = os.path.join(self.dir, "state.parquet")

    def exists(self) -> bool:
        return self.lake_a.fs.exists(self.meta_path)

    def meta(self) -> dict:
        return self.lake_a.fs.read_json(self.meta_path)

    def read(self) -> pa.Table:
        return self.lake_a.fs.read_parquet(self.state_path)

    def _commit(self, table: pa.Table, as_of_a: int, as_of_b: int) -> None:
        self.lake_a.fs.makedirs(self.dir)
        self.lake_a.fs.write_parquet(table, self.state_path,
                                     compression="zstd")
        self.lake_a.fs.put_json(self.meta_path, {
            "as_of_a": as_of_a, "as_of_b": as_of_b,
            "generation_a": self.lake_a.generation(),
            "generation_b": self.lake_b.generation(),
            "lang_col": self.lang_col,
            "text_a": self.text_a, "text_b": self.text_b})

    def refresh(self) -> pa.Table:
        """Bring the view to both lakes' current committed snapshots."""
        check_copartitioned(self.lake_a, self.lake_b)
        cur_a = max(self.lake_a.watermarks().values(), default=-1)
        cur_b = max(self.lake_b.watermarks().values(), default=-1)
        stale_gen = (self.exists() and (
            self.meta().get("generation_a") != self.lake_a.generation()
            or self.meta().get("generation_b") != self.lake_b.generation()))
        if not self.exists() or stale_gen:
            full = joined_group_stats(self.lake_a, self.lake_b,
                                      lang_col=self.lang_col,
                                      text_a=self.text_a,
                                      text_b=self.text_b)
            self._commit(full, cur_a, cur_b)
            return full
        m = self.meta()
        if m["as_of_a"] >= cur_a and m["as_of_b"] >= cur_b:
            return self.read()  # already current (idempotent replay)
        out = incremental_join_stats(
            self.lake_a, self.lake_b,
            since_a=m["as_of_a"], since_b=m["as_of_b"], base=self.read(),
            lang_col=self.lang_col, text_a=self.text_a, text_b=self.text_b)
        self._commit(out, cur_a, cur_b)
        return out
