"""The lake's read paths — ``Lake.dataset``, ``Lake.lookup`` and the change
feed — under both partition-job executors (the ``executor`` fixture pins
``LOCAL_INPUT_BYTES`` so every read runs in the driver, or as Ray tasks)
and on both lake roots. Answers are checked against ``sequential_oracle``;
projected reads must still let tombstones mask older rows, read only the
requested, predicate and key/lineage/op columns, and fill columns that a
partition's files predate with nulls.
"""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from dataxray.gen import GenConfig, generate_event_shard, generate_pages, sequential_oracle
from dataxray.hashing import partition_of
from dataxray.pipelines.replay import ReplayConfig, replay
from dataxray.state import manifest
from dataxray.state.manifest import Lake

CFG = GenConfig(n_urls=240, n_events=2_400, n_shards=4, html_mean=48, zipf_s=1.2)
P = 8
SCHEMES = ["", "mocks3://"]
ABSENT = "https://absent.example/never-written"


def _events(cfg, n_shards):
    return pa.concat_tables([generate_event_shard(cfg, s) for s in range(n_shards)],
                            promote_options="permissive")


def _oracle(cfg, n_shards):
    """Live rows after the pages and the first ``n_shards`` shards."""
    df = sequential_oracle(generate_pages(cfg), _events(cfg, n_shards))
    return df.sort_values("url").reset_index(drop=True)


def _table(ds) -> pa.Table:
    import ray

    parts = [t for t in ray.get(ds.to_arrow_refs()) if len(t)]
    return pa.concat_tables(parts, promote_options="permissive") if parts else pa.table({})


def _write_wal(tmp, name: str, table: pa.Table) -> None:
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(table, os.path.join(tmp, name))


@pytest.fixture(scope="module", params=SCHEMES)
def history_lake(request, tmp_path_factory):
    """A history delta lake: the pages, then one epoch per WAL shard (the
    schema gains content_hash halfway). Returns (root, txn ceiling of each
    epoch). Built once per root; the tests only read it."""
    tmp = tmp_path_factory.mktemp("readlake")
    pages = str(tmp / "pages.parquet")
    pq.write_table(generate_pages(CFG), pages)
    root = request.param + str(tmp / "lake")
    cfg = ReplayConfig(num_partitions=P, sink_mode="delta", history=True,
                       compact_threshold=100)
    replay(None, root, pages_path=pages, cfg=cfg)
    bounds = []
    for s in range(CFG.n_shards):
        ev = generate_event_shard(CFG, s)
        _write_wal(str(tmp / "wal"), f"events-{s:05d}.parquet", ev)
        replay(str(tmp / "wal"), root, cfg=cfg)
        bounds.append(pc.max(ev["txn_id"]).as_py())
    assert all(Lake(root).manifest(p)["n_deltas"] > 0 for p in range(P))
    return root, bounds


def test_projected_scan_keeps_deleted_urls_deleted(history_lake, executor):
    root, _ = history_lake
    want = _oracle(CFG, CFG.n_shards)
    written = set(generate_pages(CFG)["url"].to_pylist())
    deleted = written - set(want["url"])
    assert deleted  # the WAL deletes some urls the pages wrote
    got = _table(Lake(root).dataset(columns=["url", "lang"]))
    assert got.column_names == ["url", "lang"]
    got = got.to_pandas().sort_values("url").reset_index(drop=True)
    assert got["url"].tolist() == want["url"].tolist()
    assert got["lang"].tolist() == want["lang"].tolist()
    assert not deleted & set(got["url"])


def test_predicate_on_unprojected_column(history_lake, executor):
    root, bounds = history_lake
    want = _oracle(CFG, CFG.n_shards)
    want = sorted(want.loc[want["txn_id"] > bounds[1], "url"])
    assert want
    got = _table(Lake(root).dataset(columns=["url"],
                                    predicate=[("txn_id", ">", bounds[1])]))
    assert got.column_names == ["url"]
    assert sorted(got["url"].to_pylist()) == want


def test_projected_scan_as_of_txn(history_lake, executor):
    root, bounds = history_lake
    want = _oracle(CFG, 2)
    got = _table(Lake(root).dataset(columns=["url", "text", "txn_id"],
                                    as_of_txn=bounds[1]))
    got = got.to_pandas().sort_values("url").reset_index(drop=True)
    assert got["url"].tolist() == want["url"].tolist()
    assert got["text"].tolist() == want["text"].tolist()  # byte-identical
    assert got["txn_id"].tolist() == want["txn_id"].tolist()


def test_lookup_absent_keys(history_lake, executor):
    root, bounds = history_lake
    lake = Lake(root)
    want = _oracle(CFG, CFG.n_shards).set_index("url")
    live = list(want.index[::37])
    got = lake.lookup(live + [ABSENT]).to_pandas().set_index("url")
    assert sorted(got.index) == sorted(live)
    for u in live:
        assert got.loc[u, "text"] == want.loc[u, "text"]
    assert len(lake.lookup([ABSENT])) == 0
    # as of an earlier snapshot, projected
    old = _oracle(CFG, 1).set_index("url")
    keys = list(old.index[::41])
    got = lake.lookup(keys + [ABSENT], as_of_txn=bounds[0],
                      columns=["url", "txn_id"])
    assert got.column_names == ["url", "txn_id"]
    assert dict(zip(got["url"].to_pylist(), got["txn_id"].to_pylist())) == \
        {u: old.loc[u, "txn_id"] for u in keys}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_lookup_in_uncommitted_partitions(executor, tmp_path, scheme):
    """Keys that hash to partitions without a manifest return no row."""
    lake = Lake(scheme + str(tmp_path / "lake"))
    urls = [f"https://u{i}.example/" for i in range(64)]
    parts = partition_of(pa.array(urls), 4)
    t = pa.table({"url": urls, "txn_id": pa.array([1] * 64, pa.int64()),
                  "seq": pa.array(range(64), pa.int64()),
                  "text": [f"t{i}" for i in range(64)]})
    lake.init(4, t.schema)
    mine = t.filter(pa.array(parts == 0))
    meta = lake.write_staged("r", 0, mine)
    assert lake.commit([{**meta, "txn_hi": 1, "mode": "rewrite"}], "r") \
        == ["committed"]
    others = [u for u, p in zip(urls, parts) if p != 0]
    assert len(lake.lookup(others)) == 0
    got = lake.lookup(others[:3] + mine["url"].to_pylist()[:2])
    assert sorted(got["url"].to_pylist()) == sorted(mine["url"].to_pylist()[:2])


def test_changes_equals_changes_table(history_lake, executor):
    root, bounds = history_lake
    lake = Lake(root)
    old, new = _oracle(CFG, 1), _oracle(CFG, CFG.n_shards)
    o = dict(zip(old["url"], zip(old["txn_id"], old["seq"])))
    want = set()
    for u, tx, sq in zip(new["url"], new["txn_id"], new["seq"]):
        if u not in o:
            want.add((u, "insert", tx, sq))
        elif o.pop(u) != (tx, sq):
            want.add((u, "update", tx, sq))
    want |= {(u, "delete", tx, sq) for u, (tx, sq) in o.items()}

    def rows(t):
        return set(zip(t["url"].to_pylist(), t["_change_type"].to_pylist(),
                       t["txn_id"].to_pylist(), t["seq"].to_pylist()))

    table = lake.changes_table(since_txn=bounds[0])
    assert rows(table) == want
    assert len(table) == len(want)
    assert rows(_table(lake.changes(since_txn=bounds[0]))) == want


@pytest.mark.parametrize("scheme", SCHEMES)
def test_projection_across_additive_schema_evolution(executor, tmp_path, scheme):
    """One event carrying content_hash lands in one partition of an
    8-partition lake; every other partition's files predate the column, so
    projecting it must read nulls there instead of failing."""
    cfg = GenConfig(n_urls=120, n_events=800, n_shards=2, html_mean=32)
    pages = str(tmp_path / "pages.parquet")
    pq.write_table(generate_pages(cfg), pages)
    wal = str(tmp_path / "wal")
    first = generate_event_shard(cfg, 0)
    assert "content_hash" not in first.column_names
    _write_wal(wal, "events-00000.parquet", first)
    root = scheme + str(tmp_path / "lake")
    rcfg = ReplayConfig(num_partitions=8, sink_mode="delta")
    replay(wal, root, pages_path=pages, cfg=rcfg)
    later = generate_event_shard(cfg, 1)
    one = later.filter(pc.equal(later["op"], "U")).slice(0, 1)
    _write_wal(wal, "events-00001.parquet", one)
    replay(wal, root, cfg=rcfg)

    lake = Lake(root)
    url, ch = one["url"][0].as_py(), one["content_hash"][0].as_py()
    live = len(lake.read_all())
    assert lake.dataset(columns=["url", "content_hash"]).count() == live
    got = _table(lake.dataset(columns=["url", "content_hash"]))
    assert got.column_names == ["url", "content_hash"]
    assert dict(zip(*[got[c].to_pylist() for c in got.column_names]))[url] == ch
    assert got["content_hash"].null_count == live - 1

    other = next(u for u in got["url"].to_pylist()
                 if partition_of(pa.array([u]), 8)[0] != partition_of(pa.array([url]), 8)[0])
    got = lake.lookup([url, other], columns=["url", "content_hash"])
    assert dict(zip(got["url"].to_pylist(), got["content_hash"].to_pylist())) == \
        {url: ch, other: None}


def test_projected_reads_never_read_html(history_lake, monkeypatch):
    """Record the columns of every file read in the driver: a projected scan
    and a projected lookup ask for the projection, the predicate column and
    url/txn_id/seq/op only — never ``html``."""
    root, _ = history_lake
    monkeypatch.setattr(manifest, "LOCAL_INPUT_BYTES", 1 << 40)
    backend = type(Lake(root).fs)
    seen = []
    read = backend.read_parquet

    def recording(self, path, columns=None):
        seen.append(columns)
        return read(self, path, columns)

    monkeypatch.setattr(backend, "read_parquet", recording)
    lake = Lake(root)
    n = lake.dataset(columns=["url"], predicate=[("lang", "==", "en")]).count()
    assert n > 0
    url = lake.read_all()["url"][0].as_py()
    seen.clear()
    lake.dataset(columns=["url"], predicate=[("lang", "==", "en")]).count()
    assert len(lake.lookup([url], columns=["url", "text"])) == 1
    assert seen
    for cols in seen:
        assert set(cols) <= {"url", "txn_id", "seq", "op", "lang", "text"}


def test_large_reads_run_as_tasks(tmp_path, monkeypatch):
    """With the real cutoff: a full scan of a lake whose files hold more
    than LOCAL_INPUT_BYTES runs as Ray tasks, a projection of it in the
    driver, and both give the driver-side answer."""
    cfg = GenConfig(n_urls=400, n_events=0, n_shards=1, html_mean=4096)
    pages = str(tmp_path / "pages.parquet")
    pq.write_table(generate_pages(cfg), pages)
    root = str(tmp_path / "lake")
    replay(None, root, pages_path=pages, cfg=ReplayConfig(num_partitions=P))
    lake = Lake(root)
    assert sum(map(lake.fs.size, lake.all_files())) > manifest.LOCAL_INPUT_BYTES
    want = lake.read_all().sort_by("url")
    decisions = []
    choose = Lake._in_driver

    def recording(self, files, columns=None):
        decisions.append(choose(self, files, columns))
        return decisions[-1]

    monkeypatch.setattr(Lake, "_in_driver", recording)
    full = _table(lake.dataset()).sort_by("url")
    assert decisions == [False]
    assert full["url"].equals(want["url"]) and full["html"].equals(want["html"])
    decisions.clear()
    proj = _table(lake.dataset(columns=["url", "lang"])).sort_by("url")
    assert decisions == [True]
    assert proj.equals(want.select(["url", "lang"]))


def _tables_in(obj) -> int:
    if isinstance(obj, pa.Table):
        return 1
    if isinstance(obj, (list, tuple)):
        return sum(map(_tables_in, obj))
    return 0


def test_distributed_reads_keep_rows_out_of_the_driver(history_lake, distributed,
                                                       monkeypatch):
    """On the task path, dataset() and changes() leave every partition's
    result in the object store: building the Dataset fetches no Arrow table
    into the driver and copies none back, yet it holds the answer, one block
    per partition."""
    import ray
    import ray.data

    root, bounds = history_lake
    lake = Lake(root)
    want_rows = len(lake.read_all())
    want_changes = len(lake.changes_table(since_txn=bounds[0]))
    fetched = []
    get = ray.get

    def spy(refs, *args, **kwargs):
        out = get(refs, *args, **kwargs)
        fetched.append(_tables_in(out))
        return out

    def from_arrow(*args, **kwargs):
        raise AssertionError("driver-side tables turned into a Dataset")

    monkeypatch.setattr(ray, "get", spy)
    monkeypatch.setattr(ray.data, "from_arrow", from_arrow)
    scan = lake.dataset(columns=["url", "lang"])
    feed = lake.changes(since_txn=bounds[0])
    assert fetched and not any(fetched)  # metadata only
    monkeypatch.setattr(ray, "get", get)
    assert scan.num_blocks() == P
    assert scan.count() == want_rows
    assert feed.count() == want_changes


@pytest.mark.parametrize("scheme", SCHEMES)
def test_compact_all_under_both_executors(executor, tmp_path, scheme):
    """compact_all's per-partition jobs (in the driver, or as Ray tasks
    that commit from the worker) fold every delta into one base file and
    leave the resolved lake unchanged."""
    cfg = GenConfig(n_urls=120, n_events=800, n_shards=2, html_mean=32)
    pages = str(tmp_path / "pages.parquet")
    pq.write_table(generate_pages(cfg), pages)
    root = scheme + str(tmp_path / "lake")
    rcfg = ReplayConfig(num_partitions=4, sink_mode="delta", compact_threshold=100)
    replay(None, root, pages_path=pages, cfg=rcfg)
    for s in range(cfg.n_shards):
        _write_wal(str(tmp_path / "wal"), f"events-{s:05d}.parquet",
                   generate_event_shard(cfg, s))
        replay(str(tmp_path / "wal"), root, cfg=rcfg)
    lake = Lake(root)
    before = lake.read_all().sort_by("url")
    assert lake.compact_all() == 4
    assert [lake.manifest(p)["n_deltas"] for p in range(4)] == [0] * 4
    assert lake.read_all().sort_by("url").equals(before)
