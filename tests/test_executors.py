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
P = 8
SCHEMES = ["", "mocks3://"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("execdata"))
    write_dataset(d, CFG, parallel=False)
    return d


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
    """The driver dies after 3 of P commits; the resume re-applies exactly
    the uncommitted partitions' pages and events."""
    from dataxray.state import manifest as M

    lake = scheme + str(tmp_path / "lake")
    events = os.path.join(data_dir, "events")
    real_commit = M.Lake.commit
    calls = {"n": 0}

    def dying_commit(self, *a, **k):
        calls["n"] += 1
        return real_commit(self, *a, **k) if calls["n"] <= 3 else "skipped"

    monkeypatch.setattr(M.Lake, "commit", dying_commit)
    replay(events, lake, pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=ReplayConfig(num_partitions=P))
    monkeypatch.setattr(M.Lake, "commit", real_commit)
    done = set(Lake(lake).watermarks())
    assert len(done) == 3

    rep = replay(events, lake, cfg=ReplayConfig(num_partitions=P))
    assert rep.executor == executor
    pending = lambda t: int((~np.isin(partition_of(t["url"], P),  # noqa: E731
                                      list(done))).sum())
    want = _oracle(CFG)
    assert rep.partitions_committed == P - 3
    assert rep.read_succeed_records == (pending(generate_pages(CFG))
                                        + pending(_events(CFG)))
    assert rep.write_succeed_records == pending(pa.table({"url": want["url"]}))
    assert_lake_is(lake, want)
