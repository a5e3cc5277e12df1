"""Online partition evolution (Lake.evolve_partitions): re-bucket a LIVE
lake mid-stream with a manifest-recorded epoch boundary.

Contract under test:
1. replay epochs at P1 → evolve to P2 → replay more epochs at P2 ends in
   the same final state as a single-P oracle replay (both directions:
   grow and shrink P);
2. watermarks stay uniform across the boundary (no event replayed twice,
   none skipped);
3. replays against the evolved lake refuse the stale P;
4. history lakes time-travel across the boundary (pre-boundary snapshots
   resolve against the OLD generation's manifests);
5. non-history lakes GC the old generation's files after the flip;
6. a crash before the meta flip leaves the old layout fully live.
"""

import os
import shutil

import pyarrow as pa
import pytest

from dataxray.gen import GenConfig, generate_event_shard, generate_pages, sequential_oracle, write_dataset
from dataxray.pipelines.replay import ReplayConfig, replay
from dataxray.state.manifest import Lake

CFG = GenConfig(n_urls=240, n_events=2_400, n_shards=6, html_mean=40, zipf_s=1.2)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("evodata"))
    write_dataset(d, CFG, parallel=False)
    return d


@pytest.fixture(scope="module")
def oracle_df():
    pages = generate_pages(CFG)
    shards = [generate_event_shard(CFG, s) for s in range(CFG.n_shards)]
    return sequential_oracle(
        pages, pa.concat_tables(shards, promote_options="permissive"))


def _lake_df(lake_dir, **kw):
    t = Lake(lake_dir).read_all(**kw)
    return t.to_pandas().sort_values("url").reset_index(drop=True)


def _replay_epochs(data_dir, lake, epochs_dir, files, p, history=False):
    for f in files:
        shutil.copy(os.path.join(data_dir, "events", f),
                    os.path.join(epochs_dir, f))
        replay(epochs_dir, lake,
               cfg=ReplayConfig(num_partitions=p, history=history))


@pytest.mark.parametrize("p1,p2", [(4, 10), (10, 4)])
def test_evolve_mid_stream_matches_oracle(data_dir, oracle_df, tmp_path,
                                          p1, p2):
    lake = str(tmp_path / "lake")
    epochs = str(tmp_path / "epochs")
    os.makedirs(epochs)
    files = sorted(os.listdir(os.path.join(data_dir, "events")))
    replay(None, lake, pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=p1))
    _replay_epochs(data_dir, lake, epochs, files[:3], p1)

    info = Lake(lake).evolve_partitions(p2)
    assert info["num_partitions"] == p2 and info["generation"] == 1
    lk = Lake(lake)
    assert lk.num_partitions() == p2
    wm = lk.watermarks()
    assert len(wm) == p2
    assert len(set(wm.values())) == 1  # uniform across the boundary

    # stale P now refuses loudly
    with pytest.raises(RuntimeError, match="evolve_partitions"):
        replay(epochs, lake, cfg=ReplayConfig(num_partitions=p1))

    _replay_epochs(data_dir, lake, epochs, files[3:], p2)
    got = _lake_df(lake)
    assert got["url"].tolist() == oracle_df["url"].tolist()
    assert got["text"].tolist() == oracle_df["text"].tolist()
    assert got["txn_id"].tolist() == oracle_df["txn_id"].tolist()


def test_evolve_history_time_travel_across_boundary(data_dir, tmp_path):
    lake = str(tmp_path / "lake")
    epochs = str(tmp_path / "epochs")
    os.makedirs(epochs)
    files = sorted(os.listdir(os.path.join(data_dir, "events")))
    replay(None, lake, pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=4, history=True))
    # capture the lake snapshot (and its commit txn) after each pre-boundary
    # epoch — time travel floors to commit boundaries
    snaps = []
    for f in files[:3]:
        shutil.copy(os.path.join(data_dir, "events", f),
                    os.path.join(epochs, f))
        replay(epochs, lake, cfg=ReplayConfig(num_partitions=4, history=True))
        snaps.append((min(Lake(lake).watermarks().values()), _lake_df(lake)))
    boundary = snaps[-1][0]

    Lake(lake).evolve_partitions(10)
    _replay_epochs(data_dir, lake, epochs, files[3:], 10, history=True)

    lk = Lake(lake)
    assert lk._gen_for_txn(boundary - 1) == 0
    assert lk._gen_for_txn(boundary) == 1
    # pre-boundary snapshots resolve against generation-0 manifests
    for txn, want in snaps[:-1]:
        old = _lake_df(lake, as_of_txn=txn)
        assert old["url"].tolist() == want["url"].tolist()
        assert old["text"].tolist() == want["text"].tolist()
    # the boundary snapshot itself reads through the NEW generation's layout
    at = _lake_df(lake, as_of_txn=boundary)
    assert at["url"].tolist() == snaps[-1][1]["url"].tolist()
    assert at["text"].tolist() == snaps[-1][1]["text"].tolist()
    # change feed ACROSS the boundary: the old snapshot is re-hashed into
    # the new bucketing and diffed — must equal the global url-keyed diff
    since = snaps[0][0]
    feed = lk.changes_table(since_txn=since)
    old_df = _lake_df(lake, as_of_txn=since)
    new_df = _lake_df(lake)
    old_m = {r.url: (r.txn_id, r.seq) for r in old_df.itertuples(index=False)}
    new_m = {r.url: (r.txn_id, r.seq) for r in new_df.itertuples(index=False)}
    want = {(u, "insert") for u in new_m if u not in old_m}
    want |= {(u, "update") for u in new_m
             if u in old_m and new_m[u] != old_m[u]}
    want |= {(u, "delete") for u in old_m if u not in new_m}
    got = set(zip(feed["url"].to_pylist(), feed["_change_type"].to_pylist()))
    assert got == want and want
    # partition-local diff still refuses across the boundary (wrong tool)
    with pytest.raises(ValueError, match="partition_changes"):
        lk.partition_changes(0, since_txn=since)
    # within the new generation the partition-local fast path works
    lk.changes_table(since_txn=boundary)


def test_reads_across_boundary_under_both_executors(executor, data_dir,
                                                    oracle_df, tmp_path):
    """The re-hash (evolve_partitions, cross-generation change feed) and
    as-of lookups, in the driver and as Ray tasks: a lookup as of a
    pre-boundary snapshot hashes with that generation's partition count."""
    import ray

    lake = str(tmp_path / "lake")
    epochs = str(tmp_path / "epochs")
    os.makedirs(epochs)
    files = sorted(os.listdir(os.path.join(data_dir, "events")))
    replay(None, lake, pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=4, history=True))
    _replay_epochs(data_dir, lake, epochs, files[:1], 4, history=True)
    since = min(Lake(lake).watermarks().values())
    old_df = _lake_df(lake)
    _replay_epochs(data_dir, lake, epochs, files[1:2], 4, history=True)

    Lake(lake).evolve_partitions(10)
    _replay_epochs(data_dir, lake, epochs, files[2:], 10, history=True)
    lk = Lake(lake)
    assert lk._gen_for_txn(since) == 0
    got = _lake_df(lake)
    assert got["url"].tolist() == oracle_df["url"].tolist()
    assert got["text"].tolist() == oracle_df["text"].tolist()

    keys = old_df["url"].tolist()[::7]
    found = lk.lookup(keys + ["https://absent.example/x"], as_of_txn=since)
    assert dict(zip(found["url"].to_pylist(), found["text"].to_pylist())) == \
        dict(zip(keys, old_df["text"].tolist()[::7]))

    new_m = {r.url: (r.txn_id, r.seq) for r in got.itertuples(index=False)}
    old_m = {r.url: (r.txn_id, r.seq) for r in old_df.itertuples(index=False)}
    want = {(u, "insert") for u in new_m if u not in old_m}
    want |= {(u, "update") for u in new_m if u in old_m and new_m[u] != old_m[u]}
    want |= {(u, "delete") for u in old_m if u not in new_m}
    feed = lk.changes_table(since_txn=since)
    assert set(zip(feed["url"].to_pylist(), feed["_change_type"].to_pylist())) == want
    ds = [t for t in ray.get(lk.changes(since_txn=since).to_arrow_refs()) if len(t)]
    assert {(u, c) for t in ds for u, c in zip(t["url"].to_pylist(),
                                               t["_change_type"].to_pylist())} == want


def test_evolve_gc_without_history(data_dir, tmp_path):
    lake = str(tmp_path / "lake")
    replay(os.path.join(data_dir, "events"), lake,
           pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=4))
    before = _lake_df(lake)
    assert any(n.startswith("part=") for n in os.listdir(lake))
    Lake(lake).evolve_partitions(8)
    # old generation's data dirs and snapshot are gone
    assert not any(n.startswith("part=") for n in os.listdir(lake))
    assert any(n.startswith("g0001-part=") for n in os.listdir(lake))
    assert not os.path.exists(os.path.join(lake, "_snapshot-g0000.json"))
    assert os.path.exists(os.path.join(lake, "_snapshot-g0001.json"))
    after = _lake_df(lake)
    assert after["url"].tolist() == before["url"].tolist()
    assert after["text"].tolist() == before["text"].tolist()


def test_crash_before_flip_leaves_old_layout_live(data_dir, tmp_path,
                                                  monkeypatch):
    lake = str(tmp_path / "lake")
    replay(os.path.join(data_dir, "events"), lake,
           pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=4))
    before = _lake_df(lake)

    from dataxray.state import lakefs

    real_put = lakefs.LocalLakeFS.put_json

    def crashing_put(self, path, obj):
        if os.path.basename(path) == "_meta.json" and "generation" in obj:
            raise RuntimeError("simulated crash at the flip")
        return real_put(self, path, obj)

    monkeypatch.setattr(lakefs.LocalLakeFS, "put_json", crashing_put)
    with pytest.raises(RuntimeError, match="simulated crash"):
        Lake(lake).evolve_partitions(8)
    monkeypatch.setattr(lakefs.LocalLakeFS, "put_json", real_put)

    lk = Lake(lake)
    assert lk.generation() == 0
    assert lk.num_partitions() == 4
    got = _lake_df(lake)
    assert got["url"].tolist() == before["url"].tolist()
    # re-running after the crash completes cleanly (orphans overwritten)
    lk.evolve_partitions(8)
    assert Lake(lake).num_partitions() == 8
    got = _lake_df(lake)
    assert got["url"].tolist() == before["url"].tolist()
    assert got["text"].tolist() == before["text"].tolist()


def test_evolve_on_object_store_backend(data_dir, tmp_path):
    """Same protocol over put-semantics lakefs (mocks3://) — the flip is a
    single object PUT, finalize is copy+delete, no rename anywhere."""
    root = f"mocks3://{tmp_path / 'olake'}"
    replay(os.path.join(data_dir, "events"), root,
           pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=4))
    before = _lake_df(root)
    info = Lake(root).evolve_partitions(8)
    assert info["num_partitions"] == 8
    after = _lake_df(root)
    assert after["url"].tolist() == before["url"].tolist()
    assert after["text"].tolist() == before["text"].tolist()
