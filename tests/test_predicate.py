"""Delta-aware predicate pushdown through Lake.dataset().

Two layers under test (state/predicate.py): parquet footer-stats pruning
of base files and whole delta partitions, and post-LWW-resolve filtering
inside each partition's read job (which must NOT pre-filter lineage — a
tombstone may delete a base row the predicate would otherwise keep)."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from dataxray.state.manifest import Lake
from dataxray.state.predicate import Predicate

pytestmark = pytest.mark.parametrize("scheme", ["", "mocks3://"])


def _commit(lake: Lake, p: int, txn: int, table: pa.Table, mode: str) -> None:
    run = f"t-{p}-{txn}"
    meta = lake.write_staged(run, p, table)
    status = lake.commit([{**meta, "txn_hi": txn, "mode": mode}], run)
    assert status == ["committed"]
    lake.cleanup_staging(run)


def _base_table(p: int, n: int = 25) -> pa.Table:
    """Partition p holds val in [p*100, p*100+n) — disjoint across
    partitions, so footer min/max stats can prune whole files."""
    return pa.table({
        "url": [f"u{p}-{i:03d}" for i in range(n)],
        "txn_id": pa.array([1] * n, pa.int64()),
        "seq": pa.array([0] * n, pa.int64()),
        "val": pa.array([p * 100 + i for i in range(n)], pa.int64()),
    })


@pytest.fixture
def base_lake(tmp_path, scheme):
    root = scheme + str(tmp_path / "lake")
    lake = Lake(root)
    lake.init(4, _base_table(0).schema)
    for p in range(4):
        _commit(lake, p, 1, _base_table(p), "rewrite")
    return lake


def test_base_file_pruning_and_results(ray_session, base_lake):
    pred = [("val", ">=", 300)]
    plan = base_lake.scan_plan(pred)
    assert plan["base_files_total"] == 4
    assert plan["base_files_pruned"] == 3  # only partition 3 can match
    got = base_lake.dataset(predicate=pred).take_all()
    want = base_lake.read_all().filter(pc.greater_equal(pc.field("val"), 300))
    assert sorted(r["url"] for r in got) == sorted(want["url"].to_pylist())
    assert len(got) == 25


def test_equality_and_in_pruning(ray_session, base_lake):
    plan = base_lake.scan_plan([("val", "==", 117)])
    assert plan["base_files_pruned"] == 3
    rows = base_lake.dataset(predicate=[("val", "==", 117)]).take_all()
    assert [r["url"] for r in rows] == ["u1-017"]
    plan = base_lake.scan_plan([("val", "in", [5, 205])])
    assert plan["base_files_pruned"] == 2
    rows = base_lake.dataset(predicate=[("val", "in", [5, 205])]).take_all()
    assert sorted(r["url"] for r in rows) == ["u0-005", "u2-005"]


def test_string_and_conjunction_pruning(ray_session, base_lake):
    # string stats prune too; conjuncts AND together
    pred = [("url", ">=", "u3"), ("val", "<", 310)]
    plan = base_lake.scan_plan(pred)
    assert plan["base_files_pruned"] == 3
    rows = base_lake.dataset(predicate=pred).take_all()
    assert sorted(r["val"] for r in rows) == list(range(300, 310))


def test_columns_with_predicate_on_unprojected_column(ray_session, base_lake):
    """Predicate column need not be in the projection."""
    rows = base_lake.dataset(columns=["url"],
                             predicate=[("val", ">", 320)]).take_all()
    assert set(rows[0].keys()) == {"url"}
    assert len(rows) == 4  # 321..324


@pytest.fixture
def delta_lake(tmp_path, scheme):
    """Partitions 0,1 get a delta epoch (update + tombstone); 2,3 stay
    pure-base. Delta files carry op/lineage; bases are resolved (no op)."""
    root = scheme + str(tmp_path / "lake")
    lake = Lake(root)
    lake.init(4, _base_table(0).schema)
    for p in range(4):
        _commit(lake, p, 1, _base_table(p), "rewrite")
    for p in (0, 1):
        delta = pa.table({
            "url": [f"u{p}-000", f"u{p}-001"],
            "txn_id": pa.array([2, 2], pa.int64()),
            "seq": pa.array([0, 1], pa.int64()),
            "val": pa.array([p * 100 + 50, None], pa.int64()),
            "op": ["U", "D"],  # update u*-000 to val+50, delete u*-001
        })
        _commit(lake, p, 2, delta, "delta")
    assert [lake.manifest(p)["n_deltas"] for p in range(4)] == [1, 1, 0, 0]
    return lake


def test_delta_partition_pruning(ray_session, delta_lake):
    # val < 100 lives only in partition 0: 1 of 2 delta partitions pruned,
    # 2 of 2 base files pruned
    plan = delta_lake.scan_plan([("val", "<", 100)])
    assert plan["delta_parts_total"] == 2
    assert plan["delta_parts_pruned"] == 1
    assert plan["base_files_pruned"] == plan["base_files_total"] == 2


def test_predicate_filters_after_lww_resolve(ray_session, delta_lake):
    """The subtle one: u0-001's BASE row (val=1) matches val<100, but a
    delta tombstone deleted the key — post-resolve filtering must not
    resurrect it. u0-000's base val=0 matches but was updated to 50 (still
    matching); exactly one row per key, at the winning value."""
    rows = delta_lake.dataset(predicate=[("val", "<", 100)]).take_all()
    by_url = {r["url"]: r["val"] for r in rows}
    assert "u0-001" not in by_url          # tombstoned, not resurrected
    assert by_url["u0-000"] == 50          # LWW winner, not the base value
    assert len(rows) == 24                 # 25 base rows - deleted + updated
    # and the resolved-but-filtered-out case: winner moved OUT of range
    rows = delta_lake.dataset(predicate=[("val", "==", 0)]).take_all()
    assert rows == []                      # base had val=0 but winner is 50


def test_dataset_predicate_matches_read_all_filter(ray_session, delta_lake):
    got = delta_lake.dataset(predicate=[("val", ">=", 10), ("val", "<", 210)])
    want = delta_lake.read_all()
    want = want.filter(
        pc.and_(pc.greater_equal(want["val"], 10), pc.less(want["val"], 210)))
    assert sorted(r["url"] for r in got.take_all()) == \
        sorted(want["url"].to_pylist())


def test_file_may_match_conservative(tmp_path, scheme):
    """Missing column → file cannot match (reads as null); unknown op →
    constructor refuses; stats-less file stays readable."""
    root = scheme + str(tmp_path / "lake")
    lake = Lake(root)
    lake.init(1, _base_table(0).schema)
    _commit(lake, 0, 1, _base_table(0), "rewrite")
    f = lake.partition_files(0)[0]
    assert Predicate([("nosuchcol", "==", 1)]).file_may_match(lake.fs, f) \
        is False
    assert Predicate([("val", "!=", 3)]).file_may_match(lake.fs, f) is True
    with pytest.raises(ValueError):
        Predicate([("val", "~", 1)])
