"""Crash mid-commit, then resume: final state must equal the oracle.

An epoch commits as one snapshot PUT (state/manifest.py), so a crash can
leave an epoch either wholly uncommitted or wholly committed, never in
part. The failpoints of the commit protocol — staged write, finalize,
snapshot PUT, history PUT, GC, staging cleanup — are each crashed at on
both backends, in an epoch of rewrites, in a delta epoch (one shared L0
file), in a mixed epoch (some partitions append to the L0 file while
others compact) and in a compact_all; resume must reach the oracle LWW
state with no lost or duplicate rows and re-fold the base pages when the
bootstrap never committed (bootstrap_pages in lake _meta), and the next
sweep leaves no orphan file. A reader running at each failpoint sees the
whole epoch or none of it."""

import os
import shutil

import pyarrow as pa
import pytest

from dataxray.gen import GenConfig, generate_event_shard, generate_pages, sequential_oracle, write_dataset
from dataxray.pipelines.maintenance import sweep_staging
from dataxray.pipelines.replay import ReplayConfig, replay
from dataxray.state import manifest as M
from dataxray.state.manifest import Lake

CFG = GenConfig(n_urls=400, n_events=4_000, n_shards=4, html_mean=32)

# "mocks3" runs the identical protocol through ObjectLakeFS: staged-object
# put + server-side copy + snapshot PUT, no rename anywhere (lakefs.py)
SCHEMES = ["", "mocks3://"]


class Crash(BaseException):
    """The process dies here: nothing below the failpoint runs."""


def _crash_at(monkeypatch, name: str, hit: int = 1) -> None:
    hits = []

    def failpoint(step):
        if step == name:
            hits.append(step)
            if len(hits) == hit:
                raise Crash(step)

    monkeypatch.setattr(M, "failpoint", failpoint)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("crashdata"))
    write_dataset(d, CFG, parallel=False)
    return d


def _oracle(n_shards: int):
    events = pa.concat_tables(
        [generate_event_shard(CFG, s) for s in range(n_shards)],
        promote_options="permissive")
    return sequential_oracle(generate_pages(CFG), events)


def _state(lake_dir):
    return Lake(lake_dir).read_all().to_pandas().sort_values("url") \
        .reset_index(drop=True)


def _assert_oracle(got, want) -> None:
    assert got["url"].tolist() == want["url"].tolist()
    assert got["text"].tolist() == want["text"].tolist()
    assert got["txn_id"].tolist() == want["txn_id"].tolist()


def _assert_no_duplicates(lake: Lake) -> None:
    """No (url, txn_id, seq) row is stored twice in a partition's files: a
    re-applied epoch would add a second copy that LWW alone would hide."""
    for p, files in lake._snapshot_files().items():
        raw = lake.read_state_raw(p, files=files)
        keys = pa.table({c: raw[c] for c in ("url", "txn_id", "seq")})
        assert len(keys.group_by(["url", "txn_id", "seq"]).aggregate([])) \
            == len(raw), p


def _data_files(lake: Lake) -> set[str]:
    """Every Parquet file on disk outside the lake's ``_``-prefixed
    metadata, staging and run-report directories: the partition and L0
    data directories of every generation."""
    return {rel for d, _, names in os.walk(lake.base) for n in names
            if n.endswith(".parquet")
            and not (rel := os.path.relpath(os.path.join(d, n), lake.base))
            .startswith("_")}


def _assert_no_orphans(lake: Lake) -> None:
    """Every data file on disk belongs to a retained snapshot, and no
    staging is left."""
    assert _data_files(lake) == M._rel_files(lake.versions())
    assert lake.fs.list_names(lake._p("_staging")) == []


def _l0_files(lake: Lake) -> set[str]:
    return {f for f in _data_files(lake) if f.startswith("l0/")}


def _wal(data_dir, tmp_path, shards) -> str:
    wal = tmp_path / "wal"
    wal.mkdir(exist_ok=True)
    for s in shards:
        shutil.copy(os.path.join(data_dir, "events", f"events-{s:05d}.parquet"),
                    wal)
    return str(wal)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_partial_commit_then_resume_matches_oracle(data_dir, tmp_path,
                                                   monkeypatch, scheme):
    """The driver dies after finalizing 3 of the bootstrap's 8 partitions:
    a partly committed epoch cannot exist, so no partition is committed;
    the resume folds the base pages back in and commits all 8."""
    lake_dir = scheme + str(tmp_path / "lake")
    _crash_at(monkeypatch, "finalize", hit=3)
    with pytest.raises(Crash):
        replay(os.path.join(data_dir, "events"), lake_dir,
               pages_path=os.path.join(data_dir, "pages.parquet"),
               cfg=ReplayConfig(num_partitions=8))
    monkeypatch.undo()
    assert Lake(lake_dir).watermarks() == {}

    # resume WITHOUT passing pages — lake meta must supply the bootstrap path
    rep = replay(os.path.join(data_dir, "events"), lake_dir,
                 cfg=ReplayConfig(num_partitions=8))
    assert rep.partitions_committed == 8
    _assert_oracle(_state(lake_dir), _oracle(CFG.n_shards))
    sweep_staging(lake_dir, max_age_sec=0)
    _assert_no_orphans(Lake(lake_dir))


# (failpoint, its hit to crash at, history lake): before the snapshot PUT
# the epoch is lost and redone; from it on the epoch is durable. The epoch
# writes all 8 partitions, so finalize hit 8 is its last staged file: on an
# object store only the kept staged objects mark that crash.
MATRIX = [("staged", 2, True), ("finalize", 1, False), ("finalize", 3, True),
          ("finalize", 8, False), ("snapshot", 1, False), ("snapshot", 1, True),
          ("history", 1, True), ("gc", 1, False), ("cleanup", 1, True)]
DURABLE = {"snapshot", "history", "gc", "cleanup"}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("step,hit,history", MATRIX)
def test_crash_point_matrix(data_dir, tmp_path, monkeypatch, scheme, step,
                            hit, history):
    """Crash a delta-sink epoch (which also compacts partitions at their
    second delta) at each step of its commit, resume, and reach the oracle
    with every event applied exactly once; the next sweep leaves no
    orphan file."""
    lake_dir = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8, sink_mode="delta",
                       compact_threshold=2, history=history)
    wal = _wal(data_dir, tmp_path, [0])
    replay(wal, lake_dir, pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=cfg)
    replay(_wal(data_dir, tmp_path, [1]), lake_dir, cfg=cfg)
    before = Lake(lake_dir).watermarks()
    _wal(data_dir, tmp_path, [2, 3])

    _crash_at(monkeypatch, step, hit)
    with pytest.raises(Crash):
        replay(wal, lake_dir, cfg=cfg)
    monkeypatch.undo()
    durable = step in DURABLE
    assert (Lake(lake_dir).watermarks() != before) == durable
    _assert_oracle(_state(lake_dir), _oracle(4 if durable else 2))

    rep = replay(wal, lake_dir, cfg=cfg)
    new_events = sum(len(generate_event_shard(CFG, s)) for s in (2, 3))
    assert rep.read_succeed_records == (0 if durable else new_events)
    lake = Lake(lake_dir)
    _assert_oracle(_state(lake_dir), _oracle(4))
    _assert_no_duplicates(lake)
    sweep_staging(lake_dir, max_age_sec=0)
    _assert_no_orphans(lake)
    _assert_oracle(_state(lake_dir), _oracle(4))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("history", [False, True])
def test_readers_never_see_a_torn_epoch(data_dir, tmp_path, monkeypatch,
                                        scheme, history):
    """A reader running at any step of a commit — read_all() and a lookup
    of urls spread over every partition — sees exactly the snapshot before
    the epoch or the one after it, never a mix of the two."""
    lake_dir = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8, sink_mode="delta", history=history)
    wal = _wal(data_dir, tmp_path, [0, 1])
    replay(wal, lake_dir, pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=cfg)
    _wal(data_dir, tmp_path, [2, 3])
    old, new = _oracle(2), _oracle(4)
    urls = sorted(new["url"])[::7] + sorted(old["url"])[::11]

    def view(state, looked):
        looked = looked.sort_values("url")
        return (list(zip(state["url"], state["txn_id"])),
                list(zip(looked["url"], looked["txn_id"])))

    want = {k: view(df.sort_values("url"), df[df["url"].isin(urls)])
            for k, df in (("old", old), ("new", new))}
    assert want["old"][0] != want["new"][0] and want["old"][1] != want["new"][1]
    seen = []

    def failpoint(step):
        looked = Lake(lake_dir).lookup(urls, columns=["url", "txn_id"])
        got = view(_state(lake_dir), looked.to_pandas())
        seen.append((step, [k for k, v in want.items() if v == got]))

    monkeypatch.setattr(M, "failpoint", failpoint)
    replay(wal, lake_dir, cfg=cfg)
    monkeypatch.undo()
    steps = {s for s, _ in seen}
    assert {"staged", "finalize", "snapshot", "cleanup"} <= steps
    assert ("history" if history else "gc") in steps
    assert all(m for _, m in seen), [s for s, m in seen if not m]
    # the switch happens at the snapshot PUT: before it old, from it new
    first_new = next(i for i, (s, _) in enumerate(seen) if s == "snapshot")
    assert all(m == ["old"] for _, m in seen[:first_new])
    assert all(m == ["new"] for _, m in seen[first_new:])


# (failpoint, history lake) of a delta epoch: every partition appends its
# slice of ONE shared L0 file, staged and finalized once
DELTA_MATRIX = [("staged", False), ("finalize", True), ("snapshot", False),
                ("history", True), ("gc", False), ("cleanup", False)]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("step,history", DELTA_MATRIX)
def test_crash_point_matrix_delta_epoch(data_dir, tmp_path, monkeypatch,
                                        scheme, step, history):
    """Crash a delta epoch — one staged file, one finalize, every partition
    a slice of it — at each step of its commit; resume reaches the oracle
    with every event applied once, and the next sweep leaves no orphan
    (an L0 file that no snapshot references is one)."""
    lake_dir = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8, sink_mode="delta", history=history)
    wal = _wal(data_dir, tmp_path, [0])
    replay(wal, lake_dir, pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=cfg)
    replay(_wal(data_dir, tmp_path, [1]), lake_dir, cfg=cfg)
    before = Lake(lake_dir).watermarks()
    assert len(_l0_files(Lake(lake_dir))) == 1
    _wal(data_dir, tmp_path, [2, 3])

    steps = []

    def failpoint(name):
        steps.append(name)
        if name == step:
            raise Crash(name)

    monkeypatch.setattr(M, "failpoint", failpoint)
    with pytest.raises(Crash):
        replay(wal, lake_dir, cfg=cfg)
    monkeypatch.undo()
    assert steps.count("staged") == 1 and steps.count("finalize") <= 1
    durable = step in DURABLE
    assert (Lake(lake_dir).watermarks() != before) == durable
    _assert_oracle(_state(lake_dir), _oracle(4 if durable else 2))

    rep = replay(wal, lake_dir, cfg=cfg)
    new_events = sum(len(generate_event_shard(CFG, s)) for s in (2, 3))
    assert rep.read_succeed_records == (0 if durable else new_events)
    lake = Lake(lake_dir)
    assert all(e["n_deltas"] == 2 for e in M.entries(lake.snapshot()).values())
    _assert_oracle(_state(lake_dir), _oracle(4))
    _assert_no_duplicates(lake)
    sweep_staging(lake_dir, max_age_sec=0)
    _assert_no_orphans(lake)
    assert len(_l0_files(lake)) == 2
    _assert_oracle(_state(lake_dir), _oracle(4))


def _half_compacted(lake_dir: str) -> None:
    """Compact about half of the partitions (those with the most delta
    bytes): the others keep their slice of the L0 file."""
    lake = Lake(lake_dir)
    sizes = sorted(lake.delta_bytes(p) for p in range(8))
    assert lake.compact_all(min_delta_bytes=sizes[4]) in range(1, 8)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("step", ["finalize", "snapshot", "gc", "cleanup"])
def test_crash_mixed_epoch(data_dir, tmp_path, monkeypatch, scheme, step):
    """A mixed epoch: the partitions compacted before it append their slice
    of the epoch's L0 file, the others reach compact_threshold and rewrite.
    Crashed at each step of its commit, it resumes to the oracle, and the
    sweep leaves exactly the files the snapshot references: the older L0
    file dies once its last partition is rewritten."""
    lake_dir = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8, sink_mode="delta",
                       compact_threshold=2)
    wal = _wal(data_dir, tmp_path, [0])
    replay(wal, lake_dir, pages_path=os.path.join(data_dir, "pages.parquet"),
           cfg=cfg)
    replay(_wal(data_dir, tmp_path, [1]), lake_dir, cfg=cfg)
    _half_compacted(lake_dir)
    old_l0 = _l0_files(Lake(lake_dir))
    assert len(old_l0) == 1
    _wal(data_dir, tmp_path, [2, 3])

    _crash_at(monkeypatch, step)
    with pytest.raises(Crash):
        replay(wal, lake_dir, cfg=cfg)
    monkeypatch.undo()
    durable = step in DURABLE
    _assert_oracle(_state(lake_dir), _oracle(4 if durable else 2))

    rep = replay(wal, lake_dir, cfg=cfg)
    new_events = sum(len(generate_event_shard(CFG, s)) for s in (2, 3))
    assert rep.read_succeed_records == (0 if durable else new_events)
    lake = Lake(lake_dir)
    modes = {e["mode"] for e in M.entries(lake.snapshot()).values()}
    assert modes == {"delta", "rewrite"}
    _assert_oracle(_state(lake_dir), _oracle(4))
    _assert_no_duplicates(lake)
    sweep_staging(lake_dir, max_age_sec=0)
    _assert_no_orphans(lake)
    new_l0 = _l0_files(lake)
    assert len(new_l0) == 1 and not new_l0 & old_l0


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("step", ["finalize", "snapshot", "gc", "cleanup"])
def test_crash_compact_all(data_dir, tmp_path, monkeypatch, scheme, step):
    """compact_all commits through the same Lake.commit: crashed at each
    step, a re-run (or nothing, once durable) plus a sweep reaches the
    oracle with no orphan. On a lake without history an L0 file stays while
    any partition refers to it and is deleted exactly when its last
    referencing partition is rewritten."""
    lake_dir = scheme + str(tmp_path / "lake")
    cfg = ReplayConfig(num_partitions=8, sink_mode="delta")
    replay(_wal(data_dir, tmp_path, [0]), lake_dir,
           pages_path=os.path.join(data_dir, "pages.parquet"), cfg=cfg)
    for s in (1, 2):
        shutil.rmtree(tmp_path / "wal")
        replay(_wal(data_dir, tmp_path, range(s + 1)), lake_dir, cfg=cfg)
    l0 = _l0_files(Lake(lake_dir))
    assert len(l0) == 2
    _half_compacted(lake_dir)
    lake = Lake(lake_dir)
    assert _l0_files(lake) == l0  # the other partitions still refer to both
    _assert_no_orphans(lake)

    _crash_at(monkeypatch, step)
    with pytest.raises(Crash):
        Lake(lake_dir).compact_all(parallel=False)
    monkeypatch.undo()
    _assert_oracle(_state(lake_dir), _oracle(3))
    sweep_staging(lake_dir, max_age_sec=0)
    if step not in DURABLE:
        assert _l0_files(Lake(lake_dir)) == l0
        assert Lake(lake_dir).compact_all() > 0
    lake = Lake(lake_dir)
    assert all(e["n_deltas"] == 0 for e in M.entries(lake.snapshot()).values())
    assert _l0_files(lake) == set()
    _assert_no_orphans(lake)
    _assert_oracle(_state(lake_dir), _oracle(3))
