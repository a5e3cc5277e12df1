"""Lake maintenance: repartitioning preserves content + routing; staging GC."""

import os
import time

import pyarrow as pa
import pytest

from dataxray.gen import GenConfig, write_dataset
from dataxray.hashing import partition_of
from dataxray.pipelines.maintenance import repartition_lake, sweep_staging
from dataxray.pipelines.replay import ReplayConfig, replay
from dataxray.state.manifest import Lake


def test_repartition_preserves_content_and_routing(tmp_path):
    d = str(tmp_path / "data")
    cfg = GenConfig(n_urls=150, n_events=1_500, n_shards=3, html_mean=16)
    write_dataset(d, cfg, parallel=False)
    src = str(tmp_path / "lake8")
    replay(os.path.join(d, "events"), src,
           pages_path=os.path.join(d, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=8))
    before = Lake(src).read_all().to_pandas().sort_values("url").reset_index(drop=True)

    dest = str(tmp_path / "lake3")
    out = repartition_lake(src, dest, 3)
    assert out["num_partitions"] == 3
    after = Lake(dest).read_all().to_pandas().sort_values("url").reset_index(drop=True)
    assert before.equals(after)
    # rows actually live in the partition their url hashes to (routing holds
    # for future incremental replays against the new lake)
    for p in range(3):
        t = Lake(dest).resolve(p)
        if t is None or not len(t):
            continue
        assert set(partition_of(t["url"], 3).tolist()) == {p}
    # and incremental replay against the new lake works
    rep = replay(os.path.join(d, "events"), dest, cfg=ReplayConfig(num_partitions=3))
    assert rep.partitions_committed == 0  # fully caught up -> no-op


def test_repartition_refuses_existing_dest(tmp_path):
    src = Lake(str(tmp_path / "src"))
    src.init(2, pa.schema([("url", pa.string()), ("txn_id", pa.int64()),
                           ("seq", pa.int64()), ("op", pa.string())]))
    dest = Lake(str(tmp_path / "dest"))
    dest.init(2, src.event_schema())
    with pytest.raises(FileExistsError):
        repartition_lake(src.root, dest.root, 4)


def test_sweep_staging_age_gated(tmp_path):
    root = str(tmp_path / "lake")
    os.makedirs(os.path.join(root, "_staging", "old-run"))
    os.makedirs(os.path.join(root, "_staging", "fresh-run"))
    old = os.path.join(root, "_staging", "old-run")
    os.utime(old, (time.time() - 7200, time.time() - 7200))
    assert sweep_staging(root, max_age_sec=3600) == 1
    assert not os.path.exists(old)
    assert os.path.exists(os.path.join(root, "_staging", "fresh-run"))


def test_repartition_to_single_partition(tmp_path):
    d = str(tmp_path / "data")
    cfg = GenConfig(n_urls=80, n_events=600, n_shards=2, html_mean=16)
    write_dataset(d, cfg, parallel=False)
    src = str(tmp_path / "src")
    replay(os.path.join(d, "events"), src,
           pages_path=os.path.join(d, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=4))
    before = Lake(src).read_all().to_pandas().sort_values("url").reset_index(drop=True)
    dest = str(tmp_path / "dest")
    repartition_lake(src, dest, 1)
    after = Lake(dest).read_all().to_pandas().sort_values("url").reset_index(drop=True)
    assert before.equals(after)


def test_repartition_under_both_executors(executor, tmp_path):
    """The re-hash (Lake._rehash) gives the same lake in the driver and as
    Ray tasks: same rows, each in the partition its url hashes to, at the
    source's lowest watermark."""
    d = str(tmp_path / "data")
    write_dataset(d, GenConfig(n_urls=80, n_events=600, n_shards=2,
                               html_mean=16), parallel=False)
    src = str(tmp_path / "src")
    replay(os.path.join(d, "events"), src,
           pages_path=os.path.join(d, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=4))
    dest = str(tmp_path / "dest")
    out = repartition_lake(src, dest, 3)
    assert out["txn_hi"] == min(Lake(src).watermarks().values())
    assert Lake(dest).read_all().sort_by("url").equals(
        Lake(src).read_all().sort_by("url"))
    for p in Lake(dest).watermarks():
        assert set(partition_of(Lake(dest).resolve(p)["url"], 3).tolist()) == {p}


@pytest.mark.parametrize("dest_scheme", ["", "mocks3://"])
def test_export_snapshot_resumable(tmp_path, executor, dest_scheme):
    """Export == read_all, to a local or an object-store destination; a
    partial export (some _done markers present) resumes by writing only
    the unmarked buckets; predicate + columns push through."""
    from dataxray.pipelines.maintenance import export_snapshot
    from dataxray.state import lakefs

    cfg = GenConfig(n_urls=120, n_events=1_000, n_shards=4, html_mean=8)
    src = str(tmp_path / "gen")
    write_dataset(src, cfg, parallel=False)
    lake_dir = str(tmp_path / "lake")
    replay(os.path.join(src, "events"), lake_dir,
           pages_path=os.path.join(src, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=6))

    def exported(dest: str) -> pa.Table:
        fs, base = lakefs.resolve(dest)
        names = sorted(n for n in fs.list_names(base)
                       if n.startswith("part-") and n.endswith(".parquet"))
        return pa.concat_tables(
            [fs.read_parquet(os.path.join(base, n)) for n in names],
            promote_options="permissive")

    dest = dest_scheme + str(tmp_path / "out")
    rep = export_snapshot(lake_dir, dest)
    assert rep["written"] == 6 and rep["skipped"] == 0
    want = Lake(lake_dir).read_all()
    assert "url" in exported(dest).column_names
    assert exported(dest).num_rows == want.num_rows == rep["rows"]

    # simulate a crash that lost two outputs: delete files + markers
    fs, base = lakefs.resolve(dest)
    for p in (1, 3):
        fs.delete_file(os.path.join(base, f"part-{p:05d}.parquet"))
        fs.delete_file(os.path.join(base, f"_done-{p:05d}"))
    rep2 = export_snapshot(lake_dir, dest)
    assert rep2["written"] == 2 and rep2["skipped"] == 4
    assert exported(dest).num_rows == want.num_rows

    # projection + predicate
    dest2 = dest_scheme + str(tmp_path / "out2")
    export_snapshot(lake_dir, dest2, columns=["url", "txn_id"],
                    predicate=[("url", ">=", "https://")])
    t2 = exported(dest2)
    assert t2.column_names == ["url", "txn_id"]
    assert t2.num_rows == want.num_rows
