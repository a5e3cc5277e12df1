"""End-to-end CDC replay vs the sequential oracle (FIXTURES.md §3):

1. engine final table == oracle per url, byte-identical `text`;
2. schema equality incl. the promoted content_hash column;
3. re-running committed work changes nothing (exactly-once);
4. epoch-by-epoch resume reaches the same final state;
5. hot-url input (one url owning most events) == oracle;
6. dirty events respect the error budget.
"""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dataxray.errors import ErrorBudgetExceeded, ErrorLimit
from dataxray.gen import GenConfig, generate_event_shard, generate_pages, sequential_oracle, write_dataset
from dataxray.pipelines.replay import ReplayConfig, replay
from dataxray.state.manifest import Lake

CFG = GenConfig(n_urls=300, n_events=3_000, n_shards=6, html_mean=48, zipf_s=1.2)
# Zipf 2: the top url owns ~61 % of the events
HOT_CFG = GenConfig(n_urls=300, n_events=3_000, n_shards=6, html_mean=48, zipf_s=2.0)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("cdcdata"))
    write_dataset(d, CFG, parallel=False)
    return d


def _events(cfg):
    shards = [generate_event_shard(cfg, s) for s in range(cfg.n_shards)]
    return pa.concat_tables(shards, promote_options="permissive")


@pytest.fixture(scope="module")
def oracle_df():
    return sequential_oracle(generate_pages(CFG), _events(CFG))


def lake_df(lake_dir):
    t = Lake(lake_dir).read_all()
    return t.to_pandas().sort_values("url").reset_index(drop=True)


def assert_matches_oracle(lake_dir, oracle_df):
    got = lake_df(lake_dir)
    assert list(got.columns) == list(oracle_df.columns)
    assert len(got) == len(oracle_df)
    assert got["url"].tolist() == oracle_df["url"].tolist()
    # the per-url byte-identity invariant on extracted text (BASELINE.json)
    assert got["text"].tolist() == oracle_df["text"].tolist()
    assert got["txn_id"].tolist() == oracle_df["txn_id"].tolist()
    assert got["html"].tolist() == oracle_df["html"].tolist()
    ch = got["content_hash"].where(got["content_hash"].notna(), None).tolist()
    assert ch == oracle_df["content_hash"].tolist()


def test_full_replay_matches_oracle(data_dir, oracle_df, tmp_path):
    lake = str(tmp_path / "lake")
    rep = replay(os.path.join(data_dir, "events"), lake,
                 pages_path=os.path.join(data_dir, "pages.parquet"),
                 cfg=ReplayConfig(num_partitions=8))
    assert rep.partitions_committed > 0
    assert_matches_oracle(lake, oracle_df)
    # schema evolved: content_hash promoted into lake event schema
    assert "content_hash" in Lake(lake).event_schema().names


def test_replay_is_exactly_once_on_duplicate_delivery(data_dir, oracle_df, tmp_path):
    lake = str(tmp_path / "lake")
    replay(os.path.join(data_dir, "events"), lake,
           pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=8))
    before = lake_df(lake)
    rep2 = replay(os.path.join(data_dir, "events"), lake, cfg=ReplayConfig(num_partitions=8))
    assert rep2.partitions_committed == 0
    after = lake_df(lake)
    assert before.equals(after)
    assert_matches_oracle(lake, oracle_df)


def test_epoch_resume_reaches_same_state(data_dir, oracle_df, tmp_path):
    """Replay shard-by-shard (crash/resume between epochs) == one-shot replay."""
    lake = str(tmp_path / "lake")
    epochs = str(tmp_path / "epochs")
    os.makedirs(epochs)
    files = sorted(os.listdir(os.path.join(data_dir, "events")))
    # bootstrap with pages only
    replay(None, lake, pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=8))
    for i, f in enumerate(files):
        shutil.copy(os.path.join(data_dir, "events", f), os.path.join(epochs, f))
        replay(epochs, lake, cfg=ReplayConfig(num_partitions=8))
    assert_matches_oracle(lake, oracle_df)


@pytest.fixture(scope="module")
def hot_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("hotdata"))
    write_dataset(d, HOT_CFG, parallel=False)
    return d


@pytest.fixture(scope="module")
def hot_oracle():
    return sequential_oracle(generate_pages(HOT_CFG), _events(HOT_CFG))


@pytest.mark.usefixtures("distributed")
def test_salted_path_identical_output(hot_dir, hot_oracle, tmp_path):
    """Hot-url input, the case salting once split up: one url owns most
    events, and the single exchange (the combiner in each split task
    collapses it to one row per block, the merge reduces those partial
    winners again) must still match the oracle, with every event counted
    as applied."""
    events = _events(HOT_CFG)
    top = max(events["url"].value_counts().field("counts").to_pylist())
    assert top > 0.5 * len(events)
    lake = str(tmp_path / "lake_hot")
    rep = replay(os.path.join(hot_dir, "events"), lake,
                 pages_path=os.path.join(hot_dir, "pages.parquet"),
                 cfg=ReplayConfig(num_partitions=8))
    assert_matches_oracle(lake, hot_oracle)
    assert rep.read_succeed_records == HOT_CFG.n_urls + len(events)


@pytest.mark.usefixtures("distributed")
def test_auto_salted_path_identical_output(hot_dir, hot_oracle, tmp_path):
    """Hot-url input delivered one WAL shard per epoch at P=21 (uneven and
    width-1 fan-out groups): each epoch's combiner keeps its own partial
    winner for the hot url, and the lake must still end at the oracle
    state, as it did when per-batch salting decisions varied."""
    lake = str(tmp_path / "lake_hot_epochs")
    epochs = str(tmp_path / "epochs")
    os.makedirs(epochs)
    cfg = ReplayConfig(num_partitions=21)
    replay(None, lake, pages_path=os.path.join(hot_dir, "pages.parquet"), cfg=cfg)
    for f in sorted(os.listdir(os.path.join(hot_dir, "events"))):
        shutil.copy(os.path.join(hot_dir, "events", f), os.path.join(epochs, f))
        replay(epochs, lake, cfg=cfg)
    assert_matches_oracle(lake, hot_oracle)


def test_commit_label_dedup(tmp_path):
    lake = Lake(str(tmp_path / "l"))
    lake.init(2, pa.schema([("url", pa.string()), ("txn_id", pa.int64()),
                            ("seq", pa.int64()), ("op", pa.string())]))
    t = pa.table({"url": ["a"], "txn_id": [3], "seq": [0]})
    m1 = lake.write_staged("r1", 0, t)
    assert lake.commit([{**m1, "txn_hi": 3, "mode": "rewrite"}], "r1") \
        == ["committed"]
    m2 = lake.write_staged("r2", 0, t)
    assert lake.commit([{**m2, "txn_hi": 3, "mode": "rewrite"}], "r2") \
        == ["skipped"]
    assert not os.path.exists(m2["staged"][0])  # the duplicate is dropped
    m3 = {"partition": 0, "txn_hi": 2, "staged": [], "row_count": 1,
          "num_bytes": 0, "mode": "rewrite"}
    assert lake.commit([m3], "r3") == ["skipped"]  # monotonic txn ids
    assert lake.watermarks() == {0: 3}
    assert len(lake.versions()) == 1  # skipped entries write no snapshot


def test_old_format_lake_refused(tmp_path):
    """A lake of the per-partition manifest format (no "format" field in
    _meta.json) is refused with a clear error, not misread."""
    import json

    lake = Lake(str(tmp_path / "l"))
    lake.init(2, pa.schema([("url", pa.string()), ("txn_id", pa.int64())]))
    path = os.path.join(lake.root, "_meta.json")
    with open(path) as f:
        meta = json.load(f)
    del meta["format"]
    with open(path, "w") as f:
        json.dump(meta, f)
    with pytest.raises(RuntimeError, match="format 1 .*new lake root"):
        Lake(lake.root).watermarks()


def test_error_budget_enforced(tmp_path):
    cfg = GenConfig(n_urls=100, n_events=2_000, n_shards=2, dirty_frac=0.05, html_mean=32)
    d = str(tmp_path / "dirty_data")
    write_dataset(d, cfg, parallel=False)
    lake = str(tmp_path / "lake")
    dirty = str(tmp_path / "dirty_out")
    with pytest.raises(ErrorBudgetExceeded):
        replay(os.path.join(d, "events"), lake,
               pages_path=os.path.join(d, "pages.parquet"),
               cfg=ReplayConfig(num_partitions=4, dirty_dir=dirty,
                                error_limit=ErrorLimit(record=10)))
    # budget failure aborts before commit: no manifests written
    assert Lake(lake).watermarks() == {}
    # generous budget: run succeeds and dirty rows are all captured
    lake2 = str(tmp_path / "lake2")
    dirty2 = str(tmp_path / "dirty_out2")
    rep = replay(os.path.join(d, "events"), lake2,
                 pages_path=os.path.join(d, "pages.parquet"),
                 cfg=ReplayConfig(num_partitions=4, dirty_dir=dirty2,
                                  error_limit=ErrorLimit(percentage=0.25)))
    assert rep.total_error_records > 0
    import glob
    n = sum(pq.read_metadata(p).num_rows for p in glob.glob(os.path.join(dirty2, "**", "*.parquet"), recursive=True))
    assert n == rep.total_error_records


def test_dirty_rows_carry_reasons(tmp_path):
    import glob

    cfg = GenConfig(n_urls=50, n_events=500, n_shards=1, dirty_frac=0.2, html_mean=16)
    d = str(tmp_path / "dd")
    write_dataset(d, cfg, parallel=False)
    lake = str(tmp_path / "lake")
    dirty = str(tmp_path / "dirty")
    replay(os.path.join(d, "events"), lake,
           cfg=ReplayConfig(num_partitions=2, dirty_dir=dirty,
                            error_limit=ErrorLimit(percentage=0.9)))
    files = glob.glob(os.path.join(dirty, "**", "*.parquet"), recursive=True)
    assert files
    t = pa.concat_tables([pq.read_table(f) for f in files], promote_options="permissive")
    reasons = set(t["_dirty_reason"].to_pylist())
    assert reasons <= {"null_or_empty_url", "bad_op", "txn_regression", "null_payload"}
    assert len(reasons) >= 2


def test_direct_exchange_matches_oracle(data_dir, oracle_df, tmp_path):
    """The one exchange reaches the oracle state, and re-delivering the same
    WAL through it is a no-op."""
    lake = str(tmp_path / "lake")
    rep = replay(os.path.join(data_dir, "events"), lake,
                 pages_path=os.path.join(data_dir, "pages.parquet"),
                 cfg=ReplayConfig(num_partitions=8))
    assert rep.partitions_committed == 8
    assert_matches_oracle(lake, oracle_df)
    rep2 = replay(os.path.join(data_dir, "events"), lake,
                  cfg=ReplayConfig(num_partitions=8))
    assert rep2.partitions_committed == 0


@pytest.mark.usefixtures("distributed")
def test_single_partition_direct_exchange(data_dir, oracle_df, tmp_path):
    """P=1 is one coarse group of width 1: every split and fan-out task has
    num_returns=1, so Ray hands back bare ObjectRefs, not lists."""
    lake = str(tmp_path / "lake_p1")
    replay(os.path.join(data_dir, "events"), lake,
           pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=1))
    assert_matches_oracle(lake, oracle_df)


@pytest.mark.usefixtures("distributed")
def test_two_level_exchange_matches_oracle(data_dir, oracle_df, tmp_path):
    """Partition counts whose √P grouping leaves a narrow last group reach
    the oracle state: P=21 -> group widths 5,5,5,5,1 and P=7 -> 3,3,1, so
    the fan-out runs both uneven and width-1 (num_returns=1) shapes."""
    from dataxray.stages.exchange import group_edges

    for p, widths in ((21, [5, 5, 5, 5, 1]), (7, [3, 3, 1])):
        assert np.diff(group_edges(p)).tolist() == widths
        lake = str(tmp_path / f"lake_2l_{p}")
        rep = replay(os.path.join(data_dir, "events"), lake,
                     pages_path=os.path.join(data_dir, "pages.parquet"),
                     cfg=ReplayConfig(num_partitions=p))
        assert rep.partitions_committed == p
        assert_matches_oracle(lake, oracle_df)
        rep2 = replay(os.path.join(data_dir, "events"), lake,
                      cfg=ReplayConfig(num_partitions=p))
        assert rep2.partitions_committed == 0


def test_two_level_exchange_unit_semantics(tmp_path):
    """Unit-level: the exchange delivers every row to exactly its _part's
    merge, with empty blocks and a skewed part in the mix, from one coarse
    group (P=1, 2) to several uneven ones (P=3, 13). 37 blocks also make a
    group's fan-out flush mid-stream (REGROUP=16). A list of tables runs
    the same exchange in-process."""
    import ray.data

    from dataxray.schema import PART_COL
    from dataxray.stages.exchange import direct_exchange

    def merge_fn(q, tables):
        tot = sum(int(pa.Table.column(x, "v").combine_chunks()
                      .to_numpy().sum()) for x in tables if len(x))
        return {"partition": q, "sum": tot}

    rng = np.random.default_rng(7)
    for p in (1, 2, 3, 13):
        n = 5000
        hot = min(3, p - 1)
        parts = np.concatenate([rng.integers(0, p, n - 1000),
                                np.full(1000, hot)]).astype(np.int32)
        vals = np.arange(len(parts), dtype=np.int64)
        t = pa.table({PART_COL: pa.array(parts), "v": pa.array(vals)})
        want = {int(q): int(vals[parts == q].sum()) for q in range(p)
                if (parts == q).any()}
        ds = ray.data.from_arrow(t).repartition(37)  # force empty/small blocks
        got = {m["partition"]: m["sum"]
               for m in direct_exchange(ds, p, merge_fn, {})}
        assert got == want, p
        # in-process mode: the same tables, no tasks
        blocks = [t.slice(i, 700) for i in range(0, len(t), 700)] + [t.slice(0, 0)]
        got = {m["partition"]: m["sum"]
               for m in direct_exchange(blocks, p, merge_fn, {})}
        assert got == want, p
