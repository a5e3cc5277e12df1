"""Property-based correctness: arbitrary event sequences through the full
replay (random epoch splits, random partition counts, spread or hot keys)
must equal the sequential oracle. Complements the fixed fixtures with
hypothesis-driven adversarial cases (re-inserts after delete, multiple
writes per txn, single-url streams, empty epochs)."""

import os

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dataxray.gen import sequential_oracle
from dataxray.pipelines.replay import ReplayConfig, replay
from dataxray.schema import EVENT_SCHEMA, align_table
from dataxray.state.manifest import Lake

URLS = [f"https://h.example/p/{i}" for i in range(8)]


@st.composite
def event_log(draw, hot=False):
    """Events over URLS; hot=True draws most of them (~80 %) from URLS[0]."""
    n = draw(st.integers(min_value=1, max_value=60))
    rows = []
    for i in range(n):
        if hot and draw(st.integers(min_value=0, max_value=4)) > 0:
            url = URLS[0]
        else:
            url = draw(st.sampled_from(URLS))
        op = draw(st.sampled_from(["I", "U", "U", "D"]))
        rows.append({
            "url": url,
            "txn_id": i + 1,
            "seq": 0,
            "op": op,
            "warc_ts": None,
            "html": None,
            "text": None if op == "D" else f"text|{url}|txn={i+1}",
            "lang": None if op == "D" else "en",
        })
    return rows


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), num_partitions=st.sampled_from([1, 2, 4]),
       hot=st.booleans(), epochs=st.integers(min_value=1, max_value=3))
def test_replay_equals_oracle_on_arbitrary_logs(data, num_partitions, hot,
                                                epochs, tmp_path_factory):
    rows = data.draw(event_log(hot))
    tmp = tmp_path_factory.mktemp("prop")
    events = align_table(pa.Table.from_pylist(rows), EVENT_SCHEMA)
    pages = pa.table({
        "url": pa.array([], pa.string()),
        "warc_ts": pa.array([], pa.timestamp("ms")),
        "html": pa.array([], pa.large_binary()),
        "text": pa.array([], pa.large_string()),
        "lang": pa.array([], pa.string()),
    })
    oracle = sequential_oracle(pages, events)

    import pyarrow.parquet as pq

    wal = str(tmp / "wal")
    os.makedirs(wal)
    per = (len(events) + epochs - 1) // epochs
    for e in range(epochs):
        chunk = events.slice(e * per, per)
        if len(chunk):
            pq.write_table(chunk, os.path.join(wal, f"events-{e:05d}.parquet"))
    lake = str(tmp / "lake")
    cfg = ReplayConfig(num_partitions=num_partitions)
    replay(wal, lake, cfg=cfg)

    got = Lake(lake).read_all()
    got_rows = sorted(got.to_pylist(), key=lambda r: r["url"]) if got.num_rows else []
    want = oracle.to_dict("records") if len(oracle) else []
    assert [r["url"] for r in got_rows] == [w["url"] for w in want]
    assert [r["text"] for r in got_rows] == [w["text"] for w in want]
    assert [r["txn_id"] for r in got_rows] == [w["txn_id"] for w in want]
