"""Delta-mode lake: per-epoch append commits with LWW-on-read resolution and
auto-compaction (the merge-amplification fix for steady-state epochs)."""

import os
import shutil

import pyarrow as pa
import pytest

from dataxray.gen import GenConfig, generate_event_shard, generate_pages, sequential_oracle, write_dataset
from dataxray.pipelines.replay import ReplayConfig, replay
from dataxray.state.manifest import Lake

CFG = GenConfig(n_urls=250, n_events=4_000, n_shards=8, html_mean=32, zipf_s=1.2)

# every test runs on the rename backend ("") AND the no-rename object-store
# backend ("mocks3://" -> lakefs.ObjectLakeFS: put/copy/delete only)
pytestmark = pytest.mark.parametrize("scheme", ["", "mocks3://"])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("deltadata"))
    write_dataset(d, CFG, parallel=False)
    return d


@pytest.fixture(scope="module")
def oracle_df():
    pages = generate_pages(CFG)
    events = pa.concat_tables(
        [generate_event_shard(CFG, s) for s in range(CFG.n_shards)],
        promote_options="permissive")
    return sequential_oracle(pages, events)


def _epoch_replay(data_dir, lake, cfg, tmp_path, n_epochs=8):
    files = sorted(os.listdir(os.path.join(data_dir, "events")))
    staged = str(tmp_path / "stagedwal")
    os.makedirs(staged, exist_ok=True)
    for f in files:
        shutil.copy(os.path.join(data_dir, "events", f), staged)
        replay(staged, lake,
               pages_path=os.path.join(data_dir, "pages.parquet"), cfg=cfg)


def assert_oracle(lake_dir, oracle_df):
    got = Lake(lake_dir).read_all().to_pandas().sort_values("url").reset_index(drop=True)
    assert list(got.columns) == list(oracle_df.columns)
    assert got["url"].tolist() == oracle_df["url"].tolist()
    assert got["text"].tolist() == oracle_df["text"].tolist()
    assert got["txn_id"].tolist() == oracle_df["txn_id"].tolist()


def test_delta_epochs_match_oracle(data_dir, oracle_df, tmp_path, scheme):
    lake = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=4, sink_mode="delta", compact_threshold=100)
    _epoch_replay(data_dir, lake, cfg, tmp_path)
    # deltas actually accumulated (no compaction at threshold 100)
    n_deltas = [Lake(lake).manifest(p).get("n_deltas", 0) for p in range(4)]
    assert max(n_deltas) >= 3
    assert_oracle(lake, oracle_df)


def test_delta_with_compaction_matches_oracle(data_dir, oracle_df, tmp_path, scheme):
    lake = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=4, sink_mode="delta", compact_threshold=3)
    _epoch_replay(data_dir, lake, cfg, tmp_path)
    assert_oracle(lake, oracle_df)
    # compaction kept the file count bounded
    assert all(Lake(lake).num_files(p) <= 3 for p in range(4))


def test_delta_writes_less_than_rewrite(data_dir, tmp_path, scheme):
    """The point of deltas: an epoch writes O(epoch), not O(partition)."""
    lake_d = scheme + str(tmp_path / "ld")
    lake_r = scheme + str(tmp_path / "lr")
    cfg_d = ReplayConfig(num_partitions=4, sink_mode="delta", compact_threshold=100)
    cfg_r = ReplayConfig(num_partitions=4)
    _epoch_replay(data_dir, lake_d, cfg_d, tmp_path / "a")
    _epoch_replay(data_dir, lake_r, cfg_r, tmp_path / "b")
    import json, glob

    def last_commit_rows(lake):
        from dataxray.state import lakefs

        base = lakefs.resolve(lake)[1]  # mocks3 bytes live on local disk
        runs = sorted(glob.glob(os.path.join(base, "_runs", "*.json")),
                      key=os.path.getmtime)
        with open(runs[-1]) as f:
            return json.load(f)["write_succeed_records"]

    assert last_commit_rows(lake_d) < last_commit_rows(lake_r)


def test_dataset_read_resolves_deltas(data_dir, oracle_df, tmp_path, scheme):
    lake = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=4, sink_mode="delta", compact_threshold=100)
    _epoch_replay(data_dir, lake, cfg, tmp_path)
    ds = Lake(lake).dataset()
    rows = ds.take_all()
    assert len(rows) == len(oracle_df)
    got = sorted(r["url"] for r in rows)
    assert got == oracle_df["url"].tolist()


def test_dataset_column_pruning_spans_delta_and_base(data_dir, oracle_df,
                                                     tmp_path, scheme):
    """columns= prunes on both the base read and the delta-resolution path."""
    lake = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=4, sink_mode="delta", compact_threshold=100)
    _epoch_replay(data_dir, lake, cfg, tmp_path)
    ds = Lake(lake).dataset(columns=["url", "txn_id"])
    rows = ds.take_all()
    assert len(rows) == len(oracle_df)
    assert set(rows[0].keys()) == {"url", "txn_id"}
    assert sorted(r["url"] for r in rows) == oracle_df["url"].tolist()


def test_compaction_scheduling_by_delta_bytes(data_dir, tmp_path, scheme):
    """min_delta_bytes gates compaction on accumulated delta volume."""
    lake_dir = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=4, sink_mode="delta", compact_threshold=100)
    _epoch_replay(data_dir, lake_dir, cfg, tmp_path)
    lake = Lake(lake_dir)
    assert any(lake.delta_bytes(p) > 0 for p in range(4))
    # impossible threshold → nothing compacts
    assert lake.compact_all(min_delta_bytes=1 << 40) == 0
    assert all(lake.manifest(p).get("n_deltas", 0) > 0 for p in range(4))
    # 1-byte threshold → everything with deltas compacts
    assert lake.compact_all(min_delta_bytes=1) == 4
    assert all(lake.delta_bytes(p) == 0 for p in range(4))


def test_explicit_compaction(data_dir, oracle_df, tmp_path, scheme):
    """Lake.compact_all resolves deltas into single bases at unchanged
    watermarks; state and subsequent replays are unaffected."""
    lake_dir = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=4, sink_mode="delta", compact_threshold=100)
    _epoch_replay(data_dir, lake_dir, cfg, tmp_path)
    lake = Lake(lake_dir)
    assert any(lake.manifest(p).get("n_deltas", 0) > 0 for p in range(4))
    wm_before = lake.watermarks()
    n = lake.compact_all()
    assert n > 0
    assert lake.watermarks() == wm_before  # compaction never moves watermarks
    assert all(lake.manifest(p).get("n_deltas", 0) == 0 for p in range(4))
    assert all(len(lake.manifest(p)["files"]) == 1 for p in range(4))
    assert_oracle(lake_dir, oracle_df)
    # second compaction: no-op
    assert lake.compact_all() == 0
    # evolution survived the delta/compact cycle byte-for-byte
    got = lake.read_all().to_pandas().sort_values("url").reset_index(drop=True)
    ch = got["content_hash"].where(got["content_hash"].notna(), None).tolist()
    assert ch == oracle_df["content_hash"].tolist()


def test_each_data_file_counted_once(data_dir, tmp_path, scheme):
    """A delta epoch's partitions share one L0 file: all_files() lists it
    once, so the lake's bytes are the distinct files' bytes, and each
    partition's delta_bytes is its own slices' share, which is what
    compact_all(min_delta_bytes=) schedules by."""
    lake_dir = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=4, sink_mode="delta", compact_threshold=100)
    _epoch_replay(data_dir, lake_dir, cfg, tmp_path)
    lake = Lake(lake_dir)
    refs = [f for p in range(4) for f in lake.manifest(p)["files"]]
    distinct = {f if isinstance(f, str) else f["path"] for f in refs}
    assert len(distinct) < len(refs)  # the L0 files are shared
    files = lake.all_files()
    assert len(files) == len(set(files)) == len(distinct)
    assert sum(map(lake.fs.size, files)) == \
        sum(lake.fs.size(lake._p(f)) for f in distinct)
    l0 = {f["path"] for f in refs if isinstance(f, dict)}
    assert all(lake.delta_bytes(p) < sum(lake.fs.size(lake._p(f)) for f in l0)
               for p in range(4))
    # by its own slices: the partitions above the median compact, the rest
    # keep their deltas
    sizes = {p: lake.delta_bytes(p) for p in range(4)}
    cut = sorted(sizes.values())[2]
    assert lake.compact_all(min_delta_bytes=cut) == \
        sum(b >= cut for b in sizes.values())
    assert {p for p in range(4) if lake.manifest(p)["n_deltas"]} == \
        {p for p, b in sizes.items() if b < cut}


def test_large_slices_get_row_groups_of_their_own(tmp_path, scheme,
                                                   monkeypatch):
    """In a shared L0 file, small slices pack into one row group and a
    slice larger than ROW_GROUP_ROWS gets row groups of its own: reading
    its partition decodes only those, and every partition reads back its
    own rows."""
    from dataxray.state import manifest as M

    monkeypatch.setattr(M, "ROW_GROUP_ROWS", 4)
    schema = pa.schema([("url", pa.string()), ("txn_id", pa.int64()),
                        ("seq", pa.int64()), ("op", pa.string())])
    lake = Lake(scheme + str(tmp_path / "lake"))
    lake.init(4, schema)
    sizes = {0: 2, 1: 1, 2: 9, 3: 3}
    rows = {p: pa.table({"url": [f"u{p}-{i}" for i in range(n)],
                         "txn_id": [5] * n, "seq": [0] * n, "op": ["I"] * n},
                        schema=schema) for p, n in sizes.items()}
    staged = lake.write_staged_shared("r", sorted(rows.items()))
    assert len({m["staged"][0] for m in staged}) == 1
    assert [m["slice"] for m in staged] == [
        {"skip": 0, "rows": 2, "rg": [0, 1], "until": 1},
        {"skip": 2, "rows": 1, "rg": [0, 1]},
        {"skip": 0, "rows": 9, "rg": [1, 4]},
        {"skip": 0, "rows": 3, "rg": [4, 5]}]
    # the first commit of a partition with mode delta appends to nothing
    assert lake.commit([{**m, "txn_hi": 5, "mode": "delta"} for m in staged],
                       "r") == ["committed"] * 4
    lake.cleanup_staging("r")
    read = type(lake.fs).read_parquet
    groups = []

    def recording(self, path, columns=None, row_groups=None):
        groups.append(row_groups)
        return read(self, path, columns, row_groups=row_groups)

    monkeypatch.setattr(type(lake.fs), "read_parquet", recording)
    for p, t in rows.items():
        assert lake.read_state_raw(p).equals(t)
    assert groups == [[0], [0], [1, 2, 3], [4]]
