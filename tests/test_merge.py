"""LWW merge kernel unit tests (ref semantics: replace INTO / doc_as_upsert
last-writer-wins, WriterUtil.java:110-167; tombstones per multi-version mode,
MultiVerModeRecordSender.java:58-61)."""

import pyarrow as pa
import pyarrow.compute as pc

from dataxray.schema import EVENT_SCHEMA, align_table
from dataxray.stages.merge import drop_tombstones, lww_reduce, merge_partition, state_as_events


def ev(url, txn, seq, op, text):
    return {"url": url, "txn_id": txn, "seq": seq, "op": op, "warc_ts": None,
            "html": None, "text": text, "lang": "en"}


def tbl(rows):
    return align_table(pa.Table.from_pylist(rows), EVENT_SCHEMA)


def test_lww_reduce_keeps_max_txn_seq():
    t = tbl([ev("a", 1, 0, "I", "t1"), ev("a", 3, 1, "U", "t3"), ev("a", 3, 0, "U", "t3a"),
             ev("b", 2, 0, "I", "b2")])
    out = lww_reduce(t)
    assert out.num_rows == 2
    d = {r["url"]: r for r in out.to_pylist()}
    assert d["a"]["text"] == "t3" and d["a"]["seq"] == 1
    assert d["b"]["text"] == "b2"


def test_lww_reduce_preserves_tombstone_as_winner():
    t = tbl([ev("a", 1, 0, "I", "x"), ev("a", 2, 0, "D", None)])
    out = lww_reduce(t)
    assert out.to_pylist()[0]["op"] == "D"
    assert drop_tombstones(out).num_rows == 0


def test_reinsert_after_delete():
    t = tbl([ev("a", 1, 0, "I", "x"), ev("a", 2, 0, "D", None), ev("a", 3, 0, "I", "back")])
    out = drop_tombstones(lww_reduce(t))
    assert out.to_pylist()[0]["text"] == "back"


def test_merge_partition_watermark_filters_replayed_events():
    state = align_table(
        pa.Table.from_pylist([{"url": "a", "txn_id": 5, "seq": 0, "warc_ts": None,
                               "html": None, "text": "state5", "lang": "en"}]),
        pa.schema([f for f in EVENT_SCHEMA if f.name != "op"]),
    )
    # replayed event txn 4 (< watermark 5) must NOT beat state
    events = tbl([ev("a", 4, 0, "U", "old"), ev("a", 6, 0, "U", "new")])
    out = merge_partition(events, state, EVENT_SCHEMA, watermark=5)
    assert out.to_pylist() == [{"url": "a", "txn_id": 6, "seq": 0, "warc_ts": None,
                                "html": None, "text": "new", "lang": "en"}]


def test_merge_partition_delete_removes_state_row():
    state = align_table(
        pa.Table.from_pylist([{"url": "a", "txn_id": 1, "seq": 0, "warc_ts": None,
                               "html": None, "text": "s", "lang": "en"}]),
        pa.schema([f for f in EVENT_SCHEMA if f.name != "op"]),
    )
    out = merge_partition(tbl([ev("a", 2, 0, "D", None)]), state, EVENT_SCHEMA, watermark=1)
    assert out.num_rows == 0


def test_lww_reduce_of_partial_reduces_equals_one_reduce():
    """Associativity that the pre-shuffle combiner relies on: LWW-reducing
    any split of the events (per block, or by any other key) and reducing
    the partial winners again equals one reduce of everything, with one hot
    url and its tombstones spread over every part."""
    rows = []
    for i in range(200):
        op = "D" if i % 11 == 0 else ("U" if i % 7 else "I")
        rows.append(ev("hot", i + 1, 0, op, None if op == "D" else f"v{i+1}"))
        rows.append(ev(f"u{i%13}", i + 1, 1, "U", f"w{i+1}"))
    t = tbl(rows)
    single = lww_reduce(t).sort_by("url")
    by_txn = [t.filter(pc.equal(pc.bit_wise_and(t["txn_id"], 3), s))
              for s in range(4)]
    by_block = [t.slice(i, 57) for i in range(0, len(t), 57)]
    for parts in (by_txn, by_block):
        partials = [lww_reduce(x) for x in parts]
        assert lww_reduce(pa.concat_tables(partials)).sort_by("url").equals(single)


def test_state_as_events_roundtrip():
    state = align_table(
        pa.Table.from_pylist([{"url": "a", "txn_id": 1, "seq": 0, "warc_ts": None,
                               "html": None, "text": "s", "lang": "en"}]),
        pa.schema([f for f in EVENT_SCHEMA if f.name != "op"]),
    )
    lifted = state_as_events(state)
    assert lifted["op"].to_pylist() == ["I"]
