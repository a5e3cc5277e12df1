"""Time travel + change feed + vacuum over history-enabled lakes.

history=True retains every committed manifest version (one immutable JSON
object per commit — object-store safe) and its data files until vacuum():
``read_all(as_of_txn=...)`` resolves the snapshot at any retained commit,
``changes(since_txn)`` is a per-partition snapshot diff (CDF). Oracle is the
single-process ``sequential_oracle`` applied to the event prefix.
"""

import os
import shutil

import pyarrow as pa
import pytest

from dataxray.gen import GenConfig, generate_event_shard, generate_pages, sequential_oracle, write_dataset
from dataxray.pipelines.replay import ReplayConfig, replay
from dataxray.state.manifest import Lake

CFG = GenConfig(n_urls=200, n_events=3_000, n_shards=6, html_mean=32, zipf_s=1.2)
N_PARTS = 4
SHARDS_PER_EPOCH = 2

pytestmark = pytest.mark.parametrize("scheme", ["", "mocks3://"])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("ttdata"))
    write_dataset(d, CFG, parallel=False)
    return d


@pytest.fixture(scope="module")
def shards():
    return [generate_event_shard(CFG, s) for s in range(CFG.n_shards)]


@pytest.fixture(scope="module")
def pages():
    return generate_pages(CFG)


def _oracle_prefix(pages, shards, n_shards):
    ev = pa.concat_tables(shards[:n_shards], promote_options="permissive")
    df = sequential_oracle(pages, ev)
    return df.sort_values("url").reset_index(drop=True)


def _build(data_dir, tmp_path, scheme, sink_mode="rewrite", history=True):
    """Replay the WAL in epochs of SHARDS_PER_EPOCH shards; return
    (lake_root, [epoch txn ceilings])."""
    lake = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=N_PARTS, sink_mode=sink_mode,
                       compact_threshold=100, history=history)
    files = sorted(os.listdir(os.path.join(data_dir, "events")))
    staged = str(tmp_path / "stagedwal")
    os.makedirs(staged, exist_ok=True)
    boundaries = []
    import pyarrow.parquet as pq

    hi = 0
    for i in range(0, len(files), SHARDS_PER_EPOCH):
        for f in files[i : i + SHARDS_PER_EPOCH]:
            shutil.copy(os.path.join(data_dir, "events", f), staged)
            t = pq.read_table(os.path.join(staged, f), columns=["txn_id"])
            hi = max(hi, t["txn_id"].combine_chunks().to_numpy().max())
        replay(staged, lake,
               pages_path=os.path.join(data_dir, "pages.parquet"), cfg=cfg)
        boundaries.append(int(hi))
    return lake, boundaries


def _assert_state(got: pa.Table, want_df):
    g = got.to_pandas().sort_values("url").reset_index(drop=True)
    assert g["url"].tolist() == want_df["url"].tolist()
    assert g["text"].tolist() == want_df["text"].tolist()
    assert g["txn_id"].tolist() == want_df["txn_id"].tolist()


def test_snapshot_as_of_each_epoch(data_dir, pages, shards, tmp_path, scheme):
    lake, bounds = _build(data_dir, tmp_path, scheme)
    L = Lake(lake)
    for k, b in enumerate(bounds):
        want = _oracle_prefix(pages, shards, (k + 1) * SHARDS_PER_EPOCH)
        _assert_state(L.read_all(as_of_txn=b), want)
    # as-of beyond the last commit floors to the current snapshot
    _assert_state(L.read_all(as_of_txn=bounds[-1] * 10), _oracle_prefix(
        pages, shards, CFG.n_shards))


def test_snapshot_as_of_delta_mode(data_dir, pages, shards, tmp_path, scheme):
    lake, bounds = _build(data_dir, tmp_path, scheme, sink_mode="delta")
    L = Lake(lake)
    assert max((L.manifest(p) or {}).get("n_deltas", 0)
               for p in range(N_PARTS)) >= 1
    want = _oracle_prefix(pages, shards, SHARDS_PER_EPOCH)
    _assert_state(L.read_all(as_of_txn=bounds[0]), want)
    _assert_state(L.read_all(), _oracle_prefix(pages, shards, CFG.n_shards))


def test_dataset_as_of_distributed(data_dir, pages, shards, tmp_path, scheme,
                                   monkeypatch):
    """Time travel through Lake.dataset, over a delta-mode lake, under both
    partition-job executors: in the driver, then as Ray tasks (the single
    cutoff LOCAL_INPUT_BYTES raised, then zeroed)."""
    import ray

    from dataxray.state import manifest

    lake, bounds = _build(data_dir, tmp_path, scheme, sink_mode="delta")
    for cutoff in (1 << 40, 0):
        monkeypatch.setattr(manifest, "LOCAL_INPUT_BYTES", cutoff)
        ds = Lake(lake).dataset(as_of_txn=bounds[0])
        t = pa.concat_tables([x for x in ray.get(ds.to_arrow_refs()) if len(x)],
                             promote_options="permissive")
        _assert_state(t, _oracle_prefix(pages, shards, SHARDS_PER_EPOCH))
        # current snapshot via the same path still matches
        ds2 = Lake(lake).dataset()
        t2 = pa.concat_tables([x for x in ray.get(ds2.to_arrow_refs()) if len(x)],
                              promote_options="permissive")
        _assert_state(t2, _oracle_prefix(pages, shards, CFG.n_shards))


def _expected_changes(old_df, new_df):
    old = {r.url: r for r in old_df.itertuples(index=False)}
    new = {r.url: r for r in new_df.itertuples(index=False)}
    out = set()
    for url, r in new.items():
        if url not in old:
            out.add((url, "insert", int(r.txn_id)))
        elif (r.txn_id, r.seq) != (old[url].txn_id, old[url].seq):
            out.add((url, "update", int(r.txn_id)))
    for url, r in old.items():
        if url not in new:
            out.add((url, "delete", int(r.txn_id)))
    return out


def test_change_feed_matches_snapshot_diff(data_dir, pages, shards, tmp_path, scheme):
    lake, bounds = _build(data_dir, tmp_path, scheme)
    old = _oracle_prefix(pages, shards, SHARDS_PER_EPOCH)
    new = _oracle_prefix(pages, shards, CFG.n_shards)
    want = _expected_changes(old, new)
    got = Lake(lake).changes_table(since_txn=bounds[0])
    got_set = set(zip(got["url"].to_pylist(),
                      got["_change_type"].to_pylist(),
                      (int(x) for x in got["txn_id"].to_pylist())))
    assert got_set == want
    # bounded window: epoch1 -> epoch2 only
    mid = _oracle_prefix(pages, shards, 2 * SHARDS_PER_EPOCH)
    got2 = Lake(lake).changes_table(since_txn=bounds[0], until_txn=bounds[1])
    assert set(zip(got2["url"].to_pylist(), got2["_change_type"].to_pylist(),
                   (int(x) for x in got2["txn_id"].to_pylist()))) \
        == _expected_changes(old, mid)


def test_change_feed_from_genesis_is_all_inserts(data_dir, pages, shards, tmp_path, scheme):
    lake, _ = _build(data_dir, tmp_path, scheme)
    got = Lake(lake).changes_table(since_txn=-1)
    assert set(got["_change_type"].to_pylist()) == {"insert"}
    final = _oracle_prefix(pages, shards, CFG.n_shards)
    assert sorted(got["url"].to_pylist()) == final["url"].tolist()


def test_vacuum_drops_old_snapshots_keeps_current(data_dir, pages, shards, tmp_path, scheme):
    lake, bounds = _build(data_dir, tmp_path, scheme)
    L = Lake(lake)
    stats = L.vacuum(retain_last=1)
    assert stats["versions_dropped"] > 0
    assert stats["txn_dirs_removed"] > 0  # rewrite mode: old txn dirs freed
    _assert_state(L.read_all(), _oracle_prefix(pages, shards, CFG.n_shards))
    with pytest.raises(ValueError, match="vacuumed"):
        L.read_all(as_of_txn=bounds[0])


def test_orphan_history_entry_not_trusted(data_dir, pages, shards, tmp_path, scheme):
    """A history copy newer than the current snapshot was never committed
    (the current snapshot's PUT is the commit point) — it must never be
    served, even when its txn_hi is the best match of an as-of read."""
    lake, bounds = _build(data_dir, tmp_path, scheme)
    L = Lake(lake)
    cur = L.snapshot()
    ghost = [{**e, "files": ["part=00000/txn=9999999999/ghost.parquet"]}
             for e in cur["partitions"]]
    orphan = {**cur, "version": cur["version"] + 3, "txn_hi": bounds[-2],
              "partitions": ghost}
    L.fs.put_json(L._history_path(orphan), orphan)
    assert [v["version"] for v in L.versions()][-1] == cur["version"]
    _assert_state(L.read_all(as_of_txn=bounds[-2]),
                  _oracle_prefix(pages, shards, CFG.n_shards - SHARDS_PER_EPOCH))
    _assert_state(L.read_all(as_of_txn=10**9),
                  _oracle_prefix(pages, shards, CFG.n_shards))


def test_history_off_rejects_old_snapshots(data_dir, pages, shards, tmp_path, scheme):
    lake, bounds = _build(data_dir, tmp_path, scheme, history=False)
    L = Lake(lake)
    assert not L.history_enabled()
    # the current commit still answers as-of >= its txn_hi
    _assert_state(L.read_all(as_of_txn=bounds[-1]),
                  _oracle_prefix(pages, shards, CFG.n_shards))
    with pytest.raises(ValueError, match="vacuumed"):
        L.read_all(as_of_txn=bounds[0])


def test_incremental_derivation_equals_full(tmp_path, scheme):
    """Change-feed-driven aggregate maintenance (pipelines.derive): base agg
    at the epoch-1 snapshot + pre-image CDF deltas == full recompute over
    the final snapshot — across inserts, updates AND deletes."""
    import os
    import shutil

    from dataxray.gen import GenConfig, write_dataset
    from dataxray.pipelines.derive import grouped_count_sum, incremental_group_stats
    from dataxray.pipelines.replay import ReplayConfig, replay
    from dataxray.state.manifest import Lake

    cfg = GenConfig(n_urls=200, n_events=2_000, n_shards=4, html_mean=32,
                    zipf_s=1.2)
    d = str(tmp_path / "data")
    write_dataset(d, cfg, parallel=False)
    lake = f"{scheme}{tmp_path / 'lake'}"
    epochs = str(tmp_path / "epochs")
    os.makedirs(epochs)
    files = sorted(os.listdir(os.path.join(d, "events")))
    rcfg = ReplayConfig(num_partitions=8, history=True)
    for f in files[:2]:
        shutil.copy(os.path.join(d, "events", f), os.path.join(epochs, f))
    replay(epochs, lake, pages_path=os.path.join(d, "pages.parquet"), cfg=rcfg)
    thr = min(Lake(lake).watermarks().values())
    for f in files[2:]:
        shutil.copy(os.path.join(d, "events", f), os.path.join(epochs, f))
    replay(epochs, lake, cfg=rcfg)

    lk = Lake(lake)
    # the feed really contains all four change types (pre-image CDF)
    import ray

    feed = pa.concat_tables(
        [t for t in ray.get(lk.changes(since_txn=thr, pre_images=True)
                            .to_arrow_refs()) if len(t)],
        promote_options="permissive")
    kinds = set(feed["_change_type"].to_pylist())
    assert {"update_preimage", "update_postimage"} <= kinds

    inc = incremental_group_stats(lk, since_txn=thr)
    full = grouped_count_sum(lk.dataset(columns=["lang", "text"])) \
        .sort_by("lang")
    assert inc.sort_by("lang").to_pydict() == full.to_pydict()


def test_materialized_view_maintained_across_epochs(tmp_path, scheme):
    """MaterializedGroupStats: refresh() after each epoch == full recompute;
    replayed refresh is a no-op; a partition evolution triggers a rebuild
    (generation mismatch) and stays correct."""
    import os
    import shutil

    from dataxray.gen import GenConfig, write_dataset
    from dataxray.pipelines.derive import MaterializedGroupStats, grouped_count_sum
    from dataxray.pipelines.replay import ReplayConfig, replay
    from dataxray.state.manifest import Lake

    cfg = GenConfig(n_urls=150, n_events=1_500, n_shards=4, html_mean=32,
                    zipf_s=1.2)
    d = str(tmp_path / "data")
    write_dataset(d, cfg, parallel=False)
    lake = f"{scheme}{tmp_path / 'lake'}"
    epochs = str(tmp_path / "epochs")
    os.makedirs(epochs)
    files = sorted(os.listdir(os.path.join(d, "events")))
    rcfg = ReplayConfig(num_partitions=6, history=True)

    view = MaterializedGroupStats(Lake(lake), "lang_stats")
    first = True
    for f in files:
        shutil.copy(os.path.join(d, "events", f), os.path.join(epochs, f))
        replay(epochs, lake,
               pages_path=os.path.join(d, "pages.parquet") if first else None,
               cfg=rcfg)
        first = False
        got = MaterializedGroupStats(Lake(lake), "lang_stats").refresh()
        want = grouped_count_sum(
            Lake(lake).dataset(columns=["lang", "text"])).sort_by("lang")
        assert got.to_pydict() == want.to_pydict()
    # replayed refresh: no lake movement -> identical result, no rebuild
    again = view.refresh()
    assert again.to_pydict() == got.to_pydict()

    if not scheme:  # evolution currently exercised on the local backend
        Lake(lake).evolve_partitions(12)
        got = MaterializedGroupStats(Lake(lake), "lang_stats").refresh()
        want = grouped_count_sum(
            Lake(lake).dataset(columns=["lang", "text"])).sort_by("lang")
        assert got.to_pydict() == want.to_pydict()


def test_incremental_window_stats_equals_full(tmp_path, scheme):
    """Windowed variant: base window agg at epoch-1 + pre-image CDF deltas
    == full window recompute over the final snapshot."""
    import os
    import shutil

    from dataxray.gen import GenConfig, write_dataset
    from dataxray.pipelines.derive import grouped_window_stats, incremental_window_stats
    from dataxray.pipelines.replay import ReplayConfig, replay
    from dataxray.state.manifest import Lake

    cfg = GenConfig(n_urls=150, n_events=1_500, n_shards=4, html_mean=32,
                    zipf_s=1.2)
    d = str(tmp_path / "dataw")
    write_dataset(d, cfg, parallel=False)
    lake = f"{scheme}{tmp_path / 'lakew'}"
    epochs = str(tmp_path / "epochsw")
    os.makedirs(epochs)
    files = sorted(os.listdir(os.path.join(d, "events")))
    rcfg = ReplayConfig(num_partitions=8, history=True)
    for f in files[:2]:
        shutil.copy(os.path.join(d, "events", f), os.path.join(epochs, f))
    replay(epochs, lake, pages_path=os.path.join(d, "pages.parquet"), cfg=rcfg)
    thr = min(Lake(lake).watermarks().values())
    for f in files[2:]:
        shutil.copy(os.path.join(d, "events", f), os.path.join(epochs, f))
    replay(epochs, lake, cfg=rcfg)

    lk = Lake(lake)
    width = 60_000_000  # 1-min buckets (the synthetic ts span is small)
    inc = incremental_window_stats(lk, since_txn=thr, width_us=width)
    full = grouped_window_stats(lk.dataset(columns=["warc_ts", "text"]),
                                width).sort_by("window")
    assert inc.to_pydict() == full.to_pydict()
    assert inc.num_rows > 1  # multiple buckets actually exercised


def test_manifest_as_of_reads_log_versions(tmp_path, scheme):
    """An as-of read finds its snapshot in the version log with one LIST
    and one object read (plus the current snapshot): on a 130-version
    history (rewrite, delta and same-txn compaction commits) it answers
    every as-of txn exactly like a linear scan over versions(), and keeps
    the vacuumed / orphan rules."""
    import numpy as np

    L = Lake(scheme + str(tmp_path / "lake"))
    t = pa.table({"url": ["a"], "txn_id": [1], "seq": [0], "op": ["I"]})
    L.init(1, t.schema, history=True)
    rng = np.random.default_rng(5)
    txn = 0
    for i in range(130):
        if i % 9 == 4:
            mode = "compact"  # same txn_hi as the previous version
        else:
            txn += int(rng.integers(1, 4))
            mode = ("rewrite", "delta")[i % 2]
        meta = L.write_staged(f"r{i}", 0, t)
        assert L.commit([{**meta, "txn_hi": txn, "mode": mode}], f"r{i}") \
            == ["committed"]

    def linear(as_of):
        vs = [v for v in L.versions() if v["txn_hi"] <= as_of]
        return vs[-1] if vs else None

    def counted(as_of):
        """(snapshot answer, JSON reads, LISTs) on a fresh Lake."""
        lk = Lake(L.root)
        n = {"read": 0, "list": 0}
        real_read, real_list = lk.fs.read_json, lk.fs.list_names

        def read_json(path):
            n["read"] += not path.endswith("_meta.json")
            return real_read(path)

        def list_names(path):
            n["list"] += 1
            return real_list(path)

        lk.fs.read_json, lk.fs.list_names = read_json, list_names
        return lk.snapshot(as_of), n["read"], n["list"]

    assert len(L.versions()) == 130
    cur = L.snapshot()
    for as_of in range(-1, txn + 2):
        got, reads, lists = counted(as_of)
        assert got == linear(as_of), as_of
        assert reads <= 2 and lists <= 1, (as_of, reads, lists)
        if as_of >= txn:
            assert (got, reads, lists) == (cur, 1, 0)

    # a crash-orphaned newer version is never served
    orphan = {**cur, "version": cur["version"] + 1, "txn_hi": txn - 1}
    L.fs.put_json(L._history_path(orphan), orphan)
    assert counted(txn - 1)[0] == linear(txn - 1)
    assert counted(txn + 60)[0] == cur
    # vacuumed snapshots raise, retained ones still resolve
    L.vacuum(retain_last=40)
    oldest = L.versions()[0]
    assert len(L.versions()) == 40
    assert counted(oldest["txn_hi"])[0] == linear(oldest["txn_hi"])
    with pytest.raises(ValueError, match="vacuumed"):
        counted(oldest["txn_hi"] - 1)


def test_history_flag_read_once_per_lake(tmp_path, scheme):
    """commit() consults the history flag on every call; it is fixed at
    init, so a Lake reads _meta.json for it at most once."""
    root = scheme + str(tmp_path / "lake")
    t = pa.table({"url": ["a"], "txn_id": [1], "seq": [0], "op": ["I"]})
    Lake(root).init(1, t.schema, history=True)
    L = Lake(root)
    real, meta_reads = L.fs.read_json, []

    def read_json(path):
        if path.endswith("_meta.json"):
            meta_reads.append(path)
        return real(path)

    L.fs.read_json = read_json
    for txn in range(1, 11):
        meta = L.write_staged(f"r{txn}", 0, t)
        L.commit([{**meta, "txn_hi": txn, "mode": "delta"}], f"r{txn}")
    assert len(meta_reads) <= 1
    assert len(L.versions()) == 10


def test_watermark_commits_make_no_txn_dir(pages, shards, tmp_path, scheme,
                                           monkeypatch):
    """An epoch whose events touch one partition of a history lake is ONE
    commit: the other partitions' watermarks advance inside the same
    snapshot, with no commit, file or txn= directory of their own — every
    txn= directory holds at least one file."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    base = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=N_PARTS, history=True)
    pq.write_table(pages, str(tmp_path / "pages.parquet"))
    replay(None, scheme + base, pages_path=str(tmp_path / "pages.parquet"),
           cfg=cfg)
    calls = []
    real = Lake.commit

    def commit(self, staged, run_id, advance_to=None, **kw):
        calls.append((len(staged), advance_to))
        return real(self, staged, run_id, advance_to, **kw)

    monkeypatch.setattr(Lake, "commit", commit)
    ev = shards[0]
    wal = tmp_path / "wal"
    wal.mkdir()
    one = ev.filter(pc.equal(ev["url"], ev["url"][0]))
    pq.write_table(one, str(wal / "events-00000.parquet"))
    replay(str(wal), scheme + base, cfg=cfg)
    hi = pc.max(one["txn_id"]).as_py()
    assert calls == [(1, hi)]
    assert set(Lake(scheme + base).watermarks().values()) == {hi}
    txn_dirs = [os.path.join(d, n) for d, names, _ in os.walk(base)
                for n in names if n.startswith("txn=")]
    assert txn_dirs and all(os.listdir(d) for d in txn_dirs)
