"""The replay's two executors — in the driver (small epochs) and distributed
(Ray Data + raw-task exchange) — must be interchangeable: every scenario
below runs under both (the ``executor`` fixture pins the choice by
monkeypatching ``LOCAL_INPUT_BYTES``) and must reach the same resolved lake
(byte-identical ``text``, same (txn_id, seq) lineage) and the same
RunReport counts, which are derived here from the input alone.
"""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from dataxray.errors import ErrorLimit
from dataxray.gen import (GenConfig, generate_event_shard, generate_pages,
                          sequential_oracle, write_dataset)
from dataxray.hashing import partition_of
from dataxray.pipelines.replay import ReplayConfig, replay
from dataxray.stages.decode import valid_mask
from dataxray.state.manifest import Lake

CFG = GenConfig(n_urls=300, n_events=3_000, n_shards=6, html_mean=48, zipf_s=1.2)
DIRTY_CFG = GenConfig(n_urls=100, n_events=2_000, n_shards=2, html_mean=32,
                      dirty_frac=0.05)
# its replay input (about 1.3 MB) is over the 1 MiB byte cutoff
BIG_CFG = GenConfig(n_urls=300, n_events=600, n_shards=2, html_mean=4096)
P = 8
SCHEMES = ["", "mocks3://"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("execdata"))
    write_dataset(d, CFG, parallel=False)
    return d


@pytest.fixture(scope="module")
def big_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("bigdata"))
    write_dataset(d, BIG_CFG, parallel=False)
    return d


def _one_cpu(monkeypatch, **resources):
    """Make the cluster report one CPU (and ``resources``) to the engine."""
    import ray

    real = ray.cluster_resources()
    monkeypatch.setattr(ray, "cluster_resources",
                        lambda: dict(real, CPU=1.0, **resources))


def _events(cfg, shards=None):
    shards = range(cfg.n_shards) if shards is None else shards
    return pa.concat_tables([generate_event_shard(cfg, s) for s in shards],
                            promote_options="permissive")


def _oracle(cfg):
    ev = _events(cfg)
    return sequential_oracle(generate_pages(cfg), ev.filter(valid_mask(ev)))


def _shard_files(data_dir):
    ev = os.path.join(data_dir, "events")
    return [os.path.join(ev, f) for f in sorted(os.listdir(ev))]


def _wal(tmp_path, files):
    d = tmp_path / "wal"
    d.mkdir(exist_ok=True)
    for f in files:
        shutil.copy(f, d)
    return str(d)


def assert_lake_is(lake_dir, want):
    got = Lake(lake_dir).read_all().to_pandas()
    got = got.sort_values("url").reset_index(drop=True)
    want = want.sort_values("url").reset_index(drop=True)
    assert got["url"].tolist() == want["url"].tolist()
    assert got["text"].tolist() == want["text"].tolist()  # byte-identical
    assert got["txn_id"].tolist() == want["txn_id"].tolist()
    assert got["seq"].tolist() == want["seq"].tolist()
    assert got["html"].tolist() == want["html"].tolist()


def _counts(rep):
    return (rep.read_succeed_records, rep.write_succeed_records,
            rep.partitions_committed, rep.partitions_skipped,
            rep.total_error_records)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_rewrite_sink_then_duplicate_delivery(executor, data_dir, tmp_path, scheme):
    """Bootstrap (pages + every WAL shard, the schema evolving mid-log) in
    one rewrite-sink replay, then deliver the same WAL again: a no-op."""
    lake = scheme + str(tmp_path / "lake")
    events = os.path.join(data_dir, "events")
    rep = replay(events, lake, pages_path=os.path.join(data_dir, "pages.parquet"),
                 cfg=ReplayConfig(num_partitions=P))
    want = _oracle(CFG)
    assert rep.executor == executor
    assert rep.input_bytes > 0
    assert _counts(rep) == (CFG.n_urls + CFG.n_events, len(want), P, 0, 0)
    assert "content_hash" in Lake(lake).event_schema().names
    assert_lake_is(lake, want)

    again = replay(events, lake, cfg=ReplayConfig(num_partitions=P))
    assert _counts(again) == (0, 0, 0, 0, 0)
    assert_lake_is(lake, want)
    # the written run report records the executor, for tools/lake_info.py
    lk = Lake(lake)
    saved = lk.fs.read_json(os.path.join(lk.base, "_runs", f"{rep.run_id}.json"))
    assert (saved["executor"], saved["input_bytes"]) == (executor, rep.input_bytes)


def test_delta_sink_epochs_with_compaction(executor, data_dir, tmp_path):
    """One WAL shard per delta-sink epoch on a history lake, auto-compacting
    every third delta: per-epoch applied counts are each shard's events."""
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=P, sink_mode="delta", history=True,
                       compact_threshold=3)
    boot = replay(None, lake, pages_path=os.path.join(data_dir, "pages.parquet"),
                  cfg=cfg)
    assert boot.executor == executor
    assert boot.read_succeed_records == CFG.n_urls
    files = _shard_files(data_dir)
    modes = set()
    for i, f in enumerate(files):
        rep = replay(_wal(tmp_path, [f]), lake, cfg=cfg)
        assert rep.executor == executor
        assert rep.read_succeed_records == len(generate_event_shard(CFG, i))
        modes |= {Lake(lake).manifest(p)["mode"] for p in range(P)}
    assert {"delta", "rewrite"} <= modes
    assert_lake_is(lake, _oracle(CFG))
    # every epoch's snapshot and change feed stay readable
    assert len(Lake(lake).changes_table(since_txn=0)) > 0


def test_schema_evolution_inside_one_epoch(executor, data_dir, tmp_path):
    """An epoch whose files straddle the additive evolution (a shard without
    content_hash next to shards with it) promotes the lake's schema."""
    lake = str(tmp_path / "lake")
    files = _shard_files(data_dir)
    cfg = ReplayConfig(num_partitions=P)
    replay(_wal(tmp_path, files[:2]), lake,
           pages_path=os.path.join(data_dir, "pages.parquet"), cfg=cfg)
    assert "content_hash" not in Lake(lake).event_schema().names
    rep = replay(_wal(tmp_path, files), lake, cfg=cfg)
    assert rep.executor == executor
    assert "content_hash" in Lake(lake).event_schema().names
    assert rep.read_succeed_records == len(_events(CFG, range(2, CFG.n_shards)))
    want = _oracle(CFG)
    assert rep.write_succeed_records == len(want)
    assert_lake_is(lake, want)


def test_dirty_rows_under_budget(executor, tmp_path):
    """Dirty rows go to the side channel, count against the budget and
    never reach the lake; the valid rows land exactly."""
    d = str(tmp_path / "dirty_data")
    write_dataset(d, DIRTY_CFG, parallel=False)
    raw = _events(DIRTY_CFG)
    n_dirty = len(raw) - pc.sum(valid_mask(raw)).as_py()
    assert n_dirty > 0
    lake = str(tmp_path / "lake")
    rep = replay(os.path.join(d, "events"), lake,
                 pages_path=os.path.join(d, "pages.parquet"),
                 cfg=ReplayConfig(num_partitions=4, dirty_dir=str(tmp_path / "dirty"),
                                  error_limit=ErrorLimit(percentage=0.25)))
    assert rep.executor == executor
    assert rep.total_error_records == n_dirty
    assert rep.read_succeed_records == DIRTY_CFG.n_urls + len(raw) - n_dirty
    assert_lake_is(lake, _oracle(DIRTY_CFG))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_crash_resume(executor, data_dir, tmp_path, monkeypatch, scheme):
    """The driver dies mid-commit, after finalizing 3 of P partitions'
    files: no partition is committed, and the resume applies every page and
    event exactly once."""
    from dataxray.state import manifest as M

    class Crash(BaseException):
        pass

    lake = scheme + str(tmp_path / "lake")
    events = os.path.join(data_dir, "events")
    finalized, real = [], M.failpoint

    def failpoint(name):
        if name == "finalize":
            finalized.append(name)
            if len(finalized) == 3:
                raise Crash

    monkeypatch.setattr(M, "failpoint", failpoint)
    with pytest.raises(Crash):
        replay(events, lake, pages_path=os.path.join(data_dir, "pages.parquet"),
               cfg=ReplayConfig(num_partitions=P))
    monkeypatch.setattr(M, "failpoint", real)
    assert Lake(lake).watermarks() == {}

    rep = replay(events, lake, cfg=ReplayConfig(num_partitions=P))
    assert rep.executor == executor
    want = _oracle(CFG)
    assert rep.partitions_committed == P
    assert rep.read_succeed_records == len(generate_pages(CFG)) + len(_events(CFG))
    assert rep.write_succeed_records == len(want)
    assert_lake_is(lake, want)


@pytest.mark.parametrize("cpus", [1, 4])
def test_executor_rule_follows_cluster_cpus(big_dir, tmp_path, monkeypatch,
                                            cpus):
    """One rule, in_driver: work above the byte cutoff runs in the driver
    when the cluster has one CPU (its tasks could only queue) and as Ray
    tasks when it has more; Ray not being up also means the driver. Both
    a > 1 MiB replay and a full scan of the lake it builds follow it, and
    both reach the same answers."""
    import ray

    from dataxray.state import manifest as M

    assert M.in_driver(M.LOCAL_INPUT_BYTES)
    resources = ray.cluster_resources()
    monkeypatch.setattr(ray, "cluster_resources",
                        lambda: dict(resources, CPU=float(cpus)))
    if cpus > 1:
        monkeypatch.setattr(M, "LOCAL_INPUT_BYTES", 0)
    want = "local" if cpus == 1 else "distributed"
    assert M.in_driver(2 << 20) == (cpus == 1)
    with monkeypatch.context() as m:
        m.setattr(ray, "is_initialized", lambda: False)
        assert M.in_driver(2 << 20)

    lake = str(tmp_path / "lake")
    rep = replay(os.path.join(big_dir, "events"), lake,
                 pages_path=os.path.join(big_dir, "pages.parquet"),
                 cfg=ReplayConfig(num_partitions=P))
    assert rep.input_bytes > 1 << 20
    assert rep.executor == want
    assert_lake_is(lake, _oracle(BIG_CFG))

    decisions = []
    choose = Lake._in_driver

    def recording(self, files, columns=None):
        decisions.append(choose(self, files, columns))
        return decisions[-1]

    monkeypatch.setattr(Lake, "_in_driver", recording)
    blocks = ray.get(Lake(lake).dataset().to_arrow_refs())
    assert decisions == [cpus == 1]
    got = pa.concat_tables([b for b in blocks if len(b)],
                           promote_options="permissive")
    assert sorted(got["url"].to_pylist()) == sorted(_oracle(BIG_CFG)["url"])


def test_one_cpu_reads_over_the_cutoff_put_block_by_block(big_dir, tmp_path,
                                                          monkeypatch):
    """On one CPU a scan or change feed over the byte cutoff runs in the
    driver, but its partition tables are not joined into one table there:
    each block goes into the object store once it reaches Ray Data's target
    block size, so the driver holds at most one block plus one partition's
    table, never the whole read. The blocks hold the same rows."""
    import ray
    import ray.data

    from dataxray.state import manifest as M

    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=P, history=True)
    replay(None, lake, pages_path=os.path.join(big_dir, "pages.parquet"),
           cfg=cfg)
    replay(os.path.join(big_dir, "events"), lake, cfg=cfg)
    lake_bytes = sum(os.path.getsize(os.path.join(r, f))
                     for r, _, fs in os.walk(lake) for f in fs
                     if f.endswith(".parquet"))
    assert lake_bytes > M.LOCAL_INPUT_BYTES
    _one_cpu(monkeypatch)
    cap = 64 << 10
    monkeypatch.setattr(ray.data.DataContext.get_current(),
                        "target_max_block_size", cap)
    tables, puts = [], []  # bytes of every job's table / every put block
    jobs_dataset, put = M.jobs_dataset, ray.put

    def spy_jobs_dataset(fn, jobs, local):
        assert local

        def job(*a):
            t = fn(*a)
            tables.append(t.nbytes)
            return t

        return jobs_dataset(job, jobs, local)

    def spy_put(value, **k):
        if isinstance(value, pa.Table):
            puts.append(value.nbytes)
        return put(value, **k)

    monkeypatch.setattr(M, "jobs_dataset", spy_jobs_dataset)
    monkeypatch.setattr(ray, "put", spy_put)
    feed = Lake(lake).changes_table(since_txn=0)
    for read, want in ((lambda lk: lk.dataset(), _oracle(BIG_CFG)["url"]),
                       (lambda lk: lk.changes(since_txn=0), feed["url"].to_pylist())):
        tables.clear()
        puts.clear()
        got = read(Lake(lake)).to_arrow_refs()
        assert sum(tables) > 4 * cap
        assert 1 < len(puts) == len(got)
        assert max(puts) <= cap + max(tables) < sum(tables)
        rows = pa.concat_tables([b for b in ray.get(got) if len(b)],
                                promote_options="permissive")
        assert sorted(rows["url"].to_pylist()) == sorted(want)


def test_large_driver_replay_warns_against_driver_memory(big_dir, data_dir,
                                                         tmp_path,
                                                         monkeypatch):
    """The driver holds a replay's LWW winners in its heap, which cannot
    spill: a replay over the byte cutoff that runs there only because the
    cluster has one CPU is checked against the node's memory and steered to
    replay_chunked when it may not fit. Small epochs are not checked."""
    import warnings

    import ray

    _one_cpu(monkeypatch, memory=64 << 10)
    monkeypatch.setattr(ray, "available_resources", ray.cluster_resources)
    with pytest.warns(UserWarning, match="driver's memory.*replay_chunked"):
        rep = replay(os.path.join(big_dir, "events"), str(tmp_path / "big"),
                     pages_path=os.path.join(big_dir, "pages.parquet"),
                     cfg=ReplayConfig(num_partitions=P))
    assert rep.executor == "local"
    assert_lake_is(str(tmp_path / "big"), _oracle(BIG_CFG))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = replay(os.path.join(data_dir, "events"), str(tmp_path / "small"),
                     pages_path=os.path.join(data_dir, "pages.parquet"),
                     cfg=ReplayConfig(num_partitions=P))
    assert not [w for w in caught if "replay_chunked" in str(w.message)]
    assert rep.executor == "local"
    assert 4 * rep.input_bytes > 64 << 10  # over the budget, yet not checked


def test_driver_replay_streams_one_wal_file_at_a_time(data_dir, tmp_path,
                                                      monkeypatch):
    """The in-driver write path reads the WAL one file per read call, never
    the whole backlog in one, and folds each partition's buffered slices
    through the combiner as they grow: with one batch per file
    (``batch_size=None``), what a partition holds at any time (the input of
    each fold, and of its final merge) stays within twice its LWW winners
    plus one file's slice. With the default batch size these small files
    are joined into one batch: one combine, no fold."""
    import pyarrow.parquet as pq

    from dataxray.pipelines import replay as R
    from dataxray.schema import PART_COL
    from dataxray.state import manifest as M
    from dataxray.stages.merge import BatchCombiner

    monkeypatch.setattr(M, "LOCAL_INPUT_BYTES", 1 << 40)
    wal_dir = os.path.join(data_dir, "events")
    reads = []
    read_table = pq.read_table

    def spy_read(source, *a, **k):
        if not isinstance(source, str) or source.startswith(wal_dir):
            reads.append(source)
        return read_table(source, *a, **k)

    monkeypatch.setattr(pq, "read_table", spy_read)
    slice_max = np.zeros(P, dtype=np.int64)  # rows one file adds, by partition
    held = []  # (partition, rows) each fold or final merge saw at once
    combine = BatchCombiner.__call__

    def spy_combine(self, batch):
        out = combine(self, batch)
        if PART_COL in batch.column_names:  # the per-file fuse
            counts = np.bincount(out[PART_COL].to_numpy(), minlength=P)
            np.maximum(slice_max, counts, out=slice_max)
        else:  # a fold of one partition's buffered slices
            held.append((int(partition_of(batch["url"], P)[0]), len(batch)))
        return out

    monkeypatch.setattr(BatchCombiner, "__call__", spy_combine)
    merge = R._merge_tables

    def spy_merge(p, tables, **kw):
        held.append((p, sum(map(len, tables))))
        return merge(p, tables, **kw)

    monkeypatch.setattr(R, "_merge_tables", spy_merge)
    pages = os.path.join(data_dir, "pages.parquet")
    rep = replay(wal_dir, str(tmp_path / "lake"), pages_path=pages,
                 cfg=ReplayConfig(num_partitions=P, batch_size=None))
    assert rep.executor == "local"
    assert reads == _shard_files(data_dir)  # one call per file, in order
    want = _oracle(CFG)
    assert_lake_is(str(tmp_path / "lake"), want)

    raw = pa.concat_tables([generate_pages(CFG).select(["url"]),
                            _events(CFG).select(["url"])])
    winners = np.bincount(partition_of(pc.unique(raw["url"]), P), minlength=P)
    assert len(held) > 2 * P  # partitions did fold before their merge
    for p, rows in held:
        assert rows <= 2 * winners[p] + slice_max[p], (p, rows)

    reads.clear()
    held.clear()
    replay(wal_dir, str(tmp_path / "lake2"), pages_path=pages,
           cfg=ReplayConfig(num_partitions=P))
    assert reads == _shard_files(data_dir)
    assert len(held) == P  # the final merges only
    assert_lake_is(str(tmp_path / "lake2"), want)


def test_resume_counts_exactly_the_events_above_each_watermark(
        executor, data_dir, tmp_path, monkeypatch):
    """An epoch commits only 3 of its P partitions and no watermark
    advance, leaving those partitions' watermarks ahead of the rest (as an
    epoch without the uniform advance leaves a partition it brought no
    events); more WAL lands before the resume. The resume reads every file
    above the global low watermark, yet reports exactly the events above
    each event's own partition watermark as applied: events it re-reads
    but had already applied are dropped before the combiner, so they are
    never counted."""
    from dataxray.state import manifest as M

    files = _shard_files(data_dir)
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=P)
    replay(_wal(tmp_path, files[:2]), lake,
           pages_path=os.path.join(data_dir, "pages.parquet"), cfg=cfg)

    real_commit = M.Lake.commit

    def partial_commit(self, staged, run_id, advance_to=None):
        for m in staged[3:]:
            for f in m["staged"]:
                self.fs.delete_file(f)
        return real_commit(self, staged[:3], run_id) + ["skipped"] * (len(staged) - 3)

    monkeypatch.setattr(M.Lake, "commit", partial_commit)
    replay(_wal(tmp_path, files[:4]), lake, cfg=cfg)
    monkeypatch.setattr(M.Lake, "commit", real_commit)
    wm = Lake(lake).watermarks()
    assert len(set(wm.values())) > 1  # non-uniform

    rep = replay(_wal(tmp_path, files), lake, cfg=cfg)
    assert rep.executor == executor
    ev = _events(CFG, range(2, CFG.n_shards))
    ev = ev.filter(valid_mask(ev))
    floor = np.array([wm[p] for p in range(P)])
    above = ev["txn_id"].to_numpy() > floor[partition_of(ev["url"], P)]
    assert rep.read_succeed_records == int(above.sum())
    assert_lake_is(lake, _oracle(CFG))
