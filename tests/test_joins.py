"""Cogroup full outer join (dataxray/functions/joins.py)."""

import numpy as np
import pyarrow as pa
import pytest

from dataxray.functions.joins import full_outer_groupjoin


def _ds(t, blocks=4):
    import ray.data

    return ray.data.from_arrow(t).repartition(blocks)


def test_full_outer_groupjoin_all_row_classes():
    l = pa.table({"k": pa.array([1, 2, 2, 3], pa.int64()),
                  "a": pa.array([10, 20, 21, 30], pa.int64())})
    r = pa.table({"j": pa.array([2, 2, 4], pa.int64()),
                  "b": pa.array([200, 201, 400], pa.int64())})
    out = (full_outer_groupjoin(_ds(l), _ds(r), "k", "j",
                                {"a": pa.int64()}, {"b": pa.int64()})
           .to_pandas().sort_values(["key", "a", "b"], na_position="first")
           .reset_index(drop=True))
    # key 1,3: left-only; key 2: 2x2 cross; key 4: right-only
    assert len(out) == 2 + 4 + 1
    k2 = out[out.key == 2]
    assert sorted(zip(k2.a, k2.b)) == [(20, 200), (20, 201),
                                       (21, 200), (21, 201)]
    assert out[out.key == 4].a.isna().all()
    assert out[out.key.isin([1, 3])].b.isna().all()


def test_full_outer_groupjoin_collision_raises():
    l = pa.table({"k": pa.array([1], pa.int64()), "x": pa.array([1], pa.int64())})
    with pytest.raises(ValueError):
        full_outer_groupjoin(_ds(l, 1), _ds(l, 1), "k", "k",
                             {"x": pa.int64()}, {"x": pa.int64()})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_outer_groupjoin_matches_duckdb(seed):
    """Randomized parity with DuckDB FULL OUTER JOIN, including duplicate
    keys on both sides (cross products) and empty-partition-inducing
    sparsity."""
    import duckdb

    rng = np.random.default_rng(seed)
    nl, nr = int(rng.integers(0, 40)), int(rng.integers(0, 40))
    l = pa.table({"k": pa.array(rng.integers(0, 15, nl), pa.int64()),
                  "a": pa.array(rng.integers(0, 100, nl), pa.int64())})
    r = pa.table({"j": pa.array(rng.integers(5, 20, nr), pa.int64()),
                  "b": pa.array(rng.integers(0, 100, nr), pa.int64())})
    got = (full_outer_groupjoin(_ds(l, 6), _ds(r, 6), "k", "j",
                                {"a": pa.int64()}, {"b": pa.int64()})
           .to_pandas())
    got = got.fillna(-1).astype("int64").sort_values(
        ["key", "a", "b"]).reset_index(drop=True)
    con = duckdb.connect()
    con.register("l", l)
    con.register("r", r)
    want = con.execute(
        "SELECT coalesce(k, j) AS key, coalesce(a, -1) AS a, "
        "coalesce(b, -1) AS b FROM l FULL OUTER JOIN r ON k = j "
        "ORDER BY key, a, b").fetchdf().astype("int64").reset_index(drop=True)
    assert got.equals(want), (len(got), len(want))


def test_copartitioned_join_matches_plain_join(tmp_path, ray_session):
    """Shuffle-free bucket join == the global join, and the partitioner /
    generation guards refuse mis-bucketed inputs."""
    import os

    import pytest

    from dataxray.functions.joins import copartitioned_join
    from dataxray.gen import GenConfig, write_dataset
    from dataxray.pipelines.replay import ReplayConfig, replay
    from dataxray.state.manifest import Lake

    cfg = GenConfig(n_urls=120, n_events=1_000, n_shards=4, html_mean=8)
    src = str(tmp_path / "gen")
    write_dataset(src, cfg, parallel=False)
    la, lb = str(tmp_path / "la"), str(tmp_path / "lb")
    for lk in (la, lb):
        replay(os.path.join(src, "events"), lk,
               pages_path=os.path.join(src, "pages.parquet"),
               cfg=ReplayConfig(num_partitions=4))
    out = copartitioned_join(
        Lake(la), Lake(lb), on="url", join_type="inner",
        columns_a=["url", "txn_id"], columns_b=["url", "txn_id"],
        right_suffix="_b")
    got = out.to_pandas().sort_values("url").reset_index(drop=True)
    a = Lake(la).read_all().to_pandas()
    assert len(got) == len(a)  # same key set on both sides, 1:1 join
    assert (got["txn_id"] == got["txn_id_b"]).all()

    # partition-count mismatch refused
    lc = str(tmp_path / "lc")
    replay(os.path.join(src, "events"), lc,
           pages_path=os.path.join(src, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=8))
    with pytest.raises(ValueError, match="num_partitions"):
        copartitioned_join(Lake(la), Lake(lc))

    # generation mismatch refused even at equal P (evolve one side 4->8->4)
    Lake(lb).evolve_partitions(8)
    Lake(lb).evolve_partitions(4)
    with pytest.raises(ValueError, match="generation"):
        copartitioned_join(Lake(la), Lake(lb))


@pytest.fixture(scope="module")
def sparse_lakes(tmp_path_factory):
    """Two co-bucketed history lakes, each replayed in two epochs: A from a
    generated WAL (every bucket holds rows), B from a hand-written one over
    three of A's urls and two foreign ones (most buckets only watermark
    commits, no rows); its second epoch updates, deletes and inserts one
    url each. Returns (root_a, root_b, since_a, since_b): the roots and
    each lake's watermark after its first epoch."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from dataxray.gen import GenConfig, write_dataset
    from dataxray.pipelines.replay import ReplayConfig, replay
    from dataxray.schema import EVENT_SCHEMA
    from dataxray.state.manifest import Lake

    tmp = tmp_path_factory.mktemp("sparse")
    cfg = ReplayConfig(num_partitions=8, history=True)
    src = str(tmp / "gen")
    write_dataset(src, GenConfig(n_urls=120, n_events=1_000, n_shards=4,
                                 html_mean=8), parallel=False)
    wal_a, root_a = str(tmp / "wal-a"), str(tmp / "lake-a")
    os.makedirs(wal_a)
    since = []
    for shards in (range(0, 2), range(2, 4)):
        for s in shards:
            shutil.copy(os.path.join(src, "events", f"events-{s:05d}.parquet"),
                        wal_a)
        replay(wal_a, root_a, pages_path=os.path.join(src, "pages.parquet"),
               cfg=cfg)
        since.append(min(Lake(root_a).watermarks().values()))

    def events(rows):
        n = len(rows)
        return pa.table({
            "url": [u for u, _, _ in rows], "txn_id": [t for _, t, _ in rows],
            "seq": [0] * n, "op": [op for _, _, op in rows],
            "warc_ts": pa.array([0] * n, pa.timestamp("ms")),
            "html": pa.array([b"<p>b</p>"] * n, pa.large_binary()),
            "text": pa.array([f"b{t}" for _, t, _ in rows], pa.large_string()),
            "lang": ["en"] * n}).cast(EVENT_SCHEMA)

    a_urls = sorted(Lake(root_a).read_all()["url"].to_pylist())
    wal_b, root_b = str(tmp / "wal-b"), str(tmp / "lake-b")
    os.makedirs(wal_b)
    epochs = [[(a_urls[0], 1, "I"), (a_urls[1], 2, "I"), (a_urls[2], 3, "I"),
               ("https://only-b.example/1", 4, "I"),
               ("https://only-b.example/2", 5, "I")],
              [(a_urls[0], 6, "U"), (a_urls[1], 7, "D"), (a_urls[3], 8, "I")]]
    for i, rows in enumerate(epochs):
        pq.write_table(events(rows), os.path.join(wal_b, f"events-{i:05d}.parquet"))
        replay(wal_b, root_b, cfg=cfg)
        if i == 0:
            since_b = min(Lake(root_b).watermarks().values())
    return root_a, root_b, since[0], since_b


def _rows(rows) -> list:
    return sorted(tuple(sorted((k, str(v)) for k, v in r.items())) for r in rows)


def test_copartitioned_join_every_join_type(sparse_lakes, executor):
    """A side with no rows in a bucket joins as an empty table of its
    projected schema: inner and left / right / full outer joins equal
    pa.Table.join of both lakes' read_all(), with the sparse lake on either
    side."""
    from dataxray.functions.joins import copartitioned_join
    from dataxray.state.manifest import Lake

    root_a, root_b, _, _ = sparse_lakes
    cols = ["url", "txn_id", "text"]
    for left, right in ((Lake(root_a), Lake(root_b)),
                        (Lake(root_b), Lake(root_a))):
        tl, tr = (lk.read_all().select(cols) for lk in (left, right))
        for jt in ("inner", "left outer", "right outer", "full outer"):
            got = copartitioned_join(left, right, join_type=jt,
                                     columns_a=cols, columns_b=cols)
            want = tl.join(tr, keys="url", join_type=jt, right_suffix="_b")
            assert _rows(got.take_all()) == _rows(want.to_pylist()), jt


@pytest.mark.parametrize("executor", ["local"], indirect=True)
def test_lake_consumers_start_no_tasks_of_their_own(sparse_lakes, executor,
                                                    tmp_path, monkeypatch):
    """Joins, join views, repartition and export run their partition jobs
    through the lake's one runner: in the driver executor no engine
    function becomes a Ray task (Ray Data still starts its own)."""
    import ray

    from dataxray.functions.joins import copartitioned_join
    from dataxray.pipelines.derive import (incremental_join_stats,
                                           joined_group_stats)
    from dataxray.pipelines.maintenance import export_snapshot, repartition_lake
    from dataxray.state import manifest
    from dataxray.state.manifest import Lake

    def submit_jobs(*args, **kwargs):
        raise AssertionError("a partition job left the driver")

    real_remote = ray.remote

    def engine_fn_refused(fn):
        assert not getattr(fn, "__module__", "").startswith("dataxray"), fn
        return fn

    def remote(*args, **kwargs):
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return real_remote(engine_fn_refused(args[0]))
        deco = real_remote(*args, **kwargs)
        return lambda fn: deco(engine_fn_refused(fn))

    monkeypatch.setattr(manifest, "_submit_jobs", submit_jobs)
    monkeypatch.setattr(ray, "remote", remote)

    root_a, root_b, since_a, since_b = sparse_lakes
    la, lb = Lake(root_a), Lake(root_b)
    full = joined_group_stats(la, lb)
    assert len(full) > 0
    assert incremental_join_stats(la, lb, since_a, since_b).equals(full)
    assert len(copartitioned_join(la, lb).take_all()) == 3  # shared urls
    want = la.read_all().sort_by("url")
    repartition_lake(root_a, str(tmp_path / "rp"), 3)
    assert Lake(str(tmp_path / "rp")).read_all().sort_by("url").equals(want)
    rep = export_snapshot(root_a, str(tmp_path / "ex"), columns=["url"])
    assert (rep["written"], rep["rows"]) == (8, len(want))


def test_lake_lookup_point_get(tmp_path, ray_session):
    """lookup() touches only hashed buckets and returns exactly the live
    requested keys (absent + tombstoned keys yield no row)."""
    import os

    from dataxray.gen import GenConfig, write_dataset
    from dataxray.pipelines.replay import ReplayConfig, replay
    from dataxray.state.manifest import Lake

    cfg = GenConfig(n_urls=100, n_events=800, n_shards=4, html_mean=8)
    src = str(tmp_path / "gen3")
    write_dataset(src, cfg, parallel=False)
    lake_dir = str(tmp_path / "lkup")
    replay(os.path.join(src, "events"), lake_dir,
           pages_path=os.path.join(src, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=8))
    lake = Lake(lake_dir)
    all_rows = lake.read_all().to_pandas().set_index("url")
    live = list(all_rows.index[:5])
    got = lake.lookup(live + ["https://definitely-absent.example/x"]) \
        .to_pandas().set_index("url")
    assert sorted(got.index) == sorted(live)
    for u in live:
        assert got.loc[u, "text"] == all_rows.loc[u, "text"]
    assert len(lake.lookup([])) == 0
    cols = lake.lookup(live, columns=["url", "txn_id"])
    assert cols.column_names == ["url", "txn_id"]
