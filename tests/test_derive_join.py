"""Join-shaped incremental view (pipelines.derive.incremental_join_stats):
a copartitioned-join-derived aggregate maintained from BOTH lakes' pre-image
change feeds must equal the full re-join, across inserts/updates/deletes on
either side, at O(changed keys) per refresh.

Reference parity note: the reference engine re-reads its source every job
(no derived-view maintenance, no joins); this is the Ray-native surface the
CDC core makes possible.
"""

import os
import shutil

import pyarrow as pa
import pytest

from dataxray.gen import GenConfig, write_dataset
from dataxray.pipelines.derive import (incremental_join_stats,
                                       joined_group_stats)
from dataxray.pipelines.replay import ReplayConfig, replay
from dataxray.state.manifest import Lake

# every test on both lake roots and under both partition-job executors
# (the ``executor`` fixture); the driver runs keep the plain root ids
pytestmark = pytest.mark.parametrize("scheme,executor", [
    pytest.param("", "local", id=""),
    pytest.param("mocks3://", "local", id="mocks3://"),
    pytest.param("", "distributed", id="distributed"),
    pytest.param("mocks3://", "distributed", id="distributed-mocks3://"),
], indirect=["executor"])


def _two_epoch_lake(tmp_path, scheme, name: str, seed: int,
                    num_partitions: int = 8) -> tuple[Lake, int]:
    """Two-epoch history lake from a generated event WAL (same url key
    space for every seed — url ids are [0, n_urls))."""
    cfg = GenConfig(n_urls=150, n_events=1_500, n_shards=4, html_mean=32,
                    zipf_s=1.2, seed=seed)
    d = str(tmp_path / f"data-{name}")
    write_dataset(d, cfg, parallel=False)
    lake = f"{scheme}{tmp_path / ('lake-' + name)}"
    epochs = str(tmp_path / f"epochs-{name}")
    os.makedirs(epochs)
    files = sorted(os.listdir(os.path.join(d, "events")))
    rcfg = ReplayConfig(num_partitions=num_partitions, history=True)
    for f in files[:2]:
        shutil.copy(os.path.join(d, "events", f), os.path.join(epochs, f))
    replay(epochs, lake, pages_path=os.path.join(d, "pages.parquet"),
           cfg=rcfg)
    thr = min(Lake(lake).watermarks().values())
    for f in files[2:]:
        shutil.copy(os.path.join(d, "events", f), os.path.join(epochs, f))
    replay(epochs, lake, cfg=rcfg)
    return Lake(lake), thr


def test_incremental_join_equals_full(tmp_path, scheme, executor):
    """Base join-agg at the epoch-1 snapshots + signed changed-key join
    deltas from both feeds == full re-join of the final states."""
    la, thr_a = _two_epoch_lake(tmp_path, scheme, "a", seed=42)
    lb, thr_b = _two_epoch_lake(tmp_path, scheme, "b", seed=7)

    inc = incremental_join_stats(la, lb, since_a=thr_a, since_b=thr_b)
    full = joined_group_stats(la, lb)
    assert inc.to_pydict() == full.to_pydict()
    assert len(inc) > 0
    assert inc.schema.names == ["lang", "n_pairs", "sum_len"]
    assert inc["n_pairs"].type == pa.int64()

    # churn is real on both sides: each feed carries pre-image updates
    import ray

    for lk, thr in ((la, thr_a), (lb, thr_b)):
        feed = pa.concat_tables(
            [t for t in ray.get(lk.changes(since_txn=thr, pre_images=True)
                                .to_arrow_refs()) if len(t)],
            promote_options="permissive")
        kinds = set(feed["_change_type"].to_pylist())
        assert {"update_preimage", "update_postimage"} <= kinds


def test_incremental_join_noop_delta(tmp_path, scheme, executor):
    """A refresh with since == current watermark applies an empty delta and
    still equals the full join (idempotent replay of the view)."""
    la, _ = _two_epoch_lake(tmp_path, scheme, "na", seed=1)
    lb, _ = _two_epoch_lake(tmp_path, scheme, "nb", seed=2)
    cur_a = max(la.watermarks().values())
    cur_b = max(lb.watermarks().values())
    inc = incremental_join_stats(la, lb, since_a=cur_a, since_b=cur_b)
    full = joined_group_stats(la, lb)
    assert inc.to_pydict() == full.to_pydict()


def test_incremental_join_base_carried_forward(tmp_path, scheme, executor):
    """A maintained view never re-reads its base: passing the epoch-1
    aggregate as ``base`` produces the same result as recomputing it."""
    la, thr_a = _two_epoch_lake(tmp_path, scheme, "ca", seed=3)
    lb, thr_b = _two_epoch_lake(tmp_path, scheme, "cb", seed=4)
    base = joined_group_stats(la, lb, as_of_a=thr_a, as_of_b=thr_b)
    inc = incremental_join_stats(la, lb, since_a=thr_a, since_b=thr_b,
                                 base=base)
    full = joined_group_stats(la, lb)
    assert inc.to_pydict() == full.to_pydict()


def test_incremental_join_diffs_only_written_buckets(tmp_path, scheme,
                                                     executor, monkeypatch):
    """After an epoch that writes one url to each lake (every partition's
    watermark still advances), a refresh diffs that url's one bucket, not
    all 8: buckets are picked by the txn of their last data write. The
    result still equals the full re-join."""
    import pyarrow.parquet as pq

    from dataxray.pipelines import derive

    la, _ = _two_epoch_lake(tmp_path, scheme, "wa", seed=5)
    lb, _ = _two_epoch_lake(tmp_path, scheme, "wb", seed=6)
    since = [lk.snapshot()["txn_hi"] for lk in (la, lb)]
    for lk, name, txn in ((la, "wa", since[0]), (lb, "wb", since[1])):
        epochs = tmp_path / f"epochs-{name}"
        row = pq.read_table(epochs / sorted(os.listdir(epochs))[0]).slice(0, 1)
        for col, value in (("url", "https://example.com/0"),
                           ("txn_id", txn + 1), ("op", "U"),
                           ("text", f"rewritten in {name}")):
            i = row.schema.get_field_index(col)
            row = row.set_column(i, col, pa.array([value], row.schema[i].type))
        pq.write_table(row, epochs / "events-99999.parquet")
        replay(str(epochs), lk.root,
               cfg=ReplayConfig(num_partitions=8, history=True))
        assert set(Lake(lk.root).watermarks().values()) == {txn + 1}
    base = joined_group_stats(la, lb, as_of_a=since[0], as_of_b=since[1])

    jobs, real = [], derive.run_partition_jobs

    def spy(fn, js, local):
        jobs.append(len(js))
        return real(fn, js, local)

    monkeypatch.setattr(derive, "run_partition_jobs", spy)
    inc = incremental_join_stats(la, lb, since_a=since[0], since_b=since[1],
                                 base=base)
    monkeypatch.setattr(derive, "run_partition_jobs", real)
    assert jobs == [1]
    assert inc.to_pydict() == joined_group_stats(la, lb).to_pydict()


def test_incremental_join_refuses_window_across_evolution(tmp_path, scheme,
                                                         executor):
    """A base taken before both lakes evolved is in the old bucketing: its
    bucket p is not the new bucket p, so a refresh across the boundary
    must be refused, not diffed bucket by bucket into a wrong aggregate.
    After the boundary the refresh works again."""
    la, thr_a = _two_epoch_lake(tmp_path, scheme, "ea", seed=5)
    lb, thr_b = _two_epoch_lake(tmp_path, scheme, "eb", seed=6)
    base = joined_group_stats(la, lb, as_of_a=thr_a, as_of_b=thr_b)
    la.evolve_partitions(4)
    lb.evolve_partitions(4)
    with pytest.raises(ValueError, match="partition-evolution boundary"):
        incremental_join_stats(la, lb, since_a=thr_a, since_b=thr_b,
                               base=base)
    since = [lk.snapshot()["txn_hi"] for lk in (la, lb)]
    inc = incremental_join_stats(la, lb, since_a=since[0], since_b=since[1])
    assert inc.to_pydict() == joined_group_stats(la, lb).to_pydict()


def test_join_view_refuses_mismatched_bucketing(tmp_path, scheme, executor):
    """Co-bucketing is load-bearing: different partition counts must be
    refused (a silent mis-bucketed join would drop matches)."""
    la, thr_a = _two_epoch_lake(tmp_path, scheme, "ga", seed=5)
    lb, thr_b = _two_epoch_lake(tmp_path, scheme, "gb", seed=6,
                                num_partitions=4)
    with pytest.raises(ValueError, match="num_partitions"):
        incremental_join_stats(la, lb, since_a=thr_a, since_b=thr_b)
    with pytest.raises(ValueError, match="num_partitions"):
        joined_group_stats(la, lb)


def test_materialized_join_view_across_epochs(tmp_path, scheme, executor):
    """MaterializedJoinStats: refresh() after each epoch == full re-join;
    replayed refresh is a no-op; a partition evolution on the lakes
    triggers a rebuild (generation mismatch) and stays correct."""
    from dataxray.pipelines.derive import MaterializedJoinStats

    # build both lakes epoch-by-epoch so the view really refreshes from
    # the change feeds, not from a one-shot build
    lakes = []
    for name, seed in (("va", 11), ("vb", 12)):
        cfg = GenConfig(n_urls=150, n_events=1_500, n_shards=4,
                        html_mean=32, zipf_s=1.2, seed=seed)
        d = str(tmp_path / f"data-{name}")
        write_dataset(d, cfg, parallel=False)
        lakes.append((name, d,
                      sorted(os.listdir(os.path.join(d, "events")))))
    rcfg = ReplayConfig(num_partitions=8, history=True)

    def apply(name, d, files, upto):
        epochs = str(tmp_path / f"ve-{name}")
        os.makedirs(epochs, exist_ok=True)
        for f in files[:upto]:
            if not os.path.exists(os.path.join(epochs, f)):
                shutil.copy(os.path.join(d, "events", f),
                            os.path.join(epochs, f))
        lake = f"{scheme}{tmp_path / ('vlake-' + name)}"
        replay(epochs, lake,
               pages_path=(os.path.join(d, "pages.parquet")
                           if upto <= 2 else None), cfg=rcfg)
        return Lake(lake)

    # keep ONE Lake object pair for the view's lifetime (generation is
    # cached per object; evolve below must invalidate the view's own pair)
    la = apply(*lakes[0], upto=2)
    lb = apply(*lakes[1], upto=2)
    view = MaterializedJoinStats(la, lb, name="js")
    v1 = view.refresh()  # first build = full at epoch 1
    assert v1.to_pydict() == joined_group_stats(la, lb).to_pydict()

    apply(*lakes[0], upto=4)
    apply(*lakes[1], upto=4)
    v2 = view.refresh()  # incremental from both feeds
    full2 = joined_group_stats(la, lb)
    assert v2.to_pydict() == full2.to_pydict()
    assert view.meta()["as_of_a"] == max(la.watermarks().values())

    v3 = view.refresh()  # idempotent replay: no-op read
    assert v3.to_pydict() == full2.to_pydict()

    # evolve BOTH lakes (a one-sided evolution is refused by the
    # co-bucketing guard) -> generation mismatch -> rebuild
    la.evolve_partitions(4)
    lb.evolve_partitions(4)
    v4 = view.refresh()
    assert v4.to_pydict() == joined_group_stats(la, lb).to_pydict()
    assert view.meta()["generation_a"] == la.generation()
