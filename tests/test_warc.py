"""WARC source (sources/warc.py): ISO 28500 record parsing (plain and
per-record-gzip .warc.gz), HTTP body extraction, type filtering, the
Dataset reader, and the warcreader CLI job surface."""

import gzip
import os
from datetime import datetime

import pyarrow as pa
import pytest

from dataxray.sources.warc import (build_warc_bytes, parse_warc_bytes,
                                   read_warc)

ROWS = [
    {"url": f"https://site{i % 3}.example/p/{i}",
     "warc_ts": datetime(2026, 8, 18, 10, 0, i),
     "html": f"<html><head><title>t{i}</title></head>"
             f"<body>page {i} &amp; text</body></html>".encode()}
    for i in range(7)
]


@pytest.mark.parametrize("gz", [False, True])
def test_roundtrip(gz):
    data = build_warc_bytes(ROWS, gzip_members=gz)
    t = parse_warc_bytes(data)
    assert t["url"].to_pylist() == [r["url"] for r in ROWS]
    assert t["warc_ts"].to_pylist() == [r["warc_ts"] for r in ROWS]
    assert t["html"].to_pylist() == [r["html"] for r in ROWS]
    assert set(t["warc_type"].to_pylist()) == {"response"}


def test_type_filter_and_non_http_payload():
    # interleave a metadata record (dropped by default) and a resource
    # record (non-HTTP payload kept whole when requested)
    meta = (b"WARC/1.0\r\nWARC-Type: metadata\r\n"
            b"WARC-Target-URI: https://m\r\n"
            b"WARC-Date: 2026-08-18T10:00:00Z\r\n"
            b"Content-Length: 3\r\n\r\nxyz\r\n\r\n")
    res = (b"WARC/1.0\r\nWARC-Type: resource\r\n"
           b"WARC-Target-URI: https://r\r\n"
           b"WARC-Date: 2026-08-18T10:00:01Z\r\n"
           b"Content-Length: 4\r\n\r\nblob\r\n\r\n")
    data = meta + build_warc_bytes(ROWS[:2]) + res
    t = parse_warc_bytes(data)
    assert len(t) == 2  # responses only by default
    t2 = parse_warc_bytes(data, keep_types=("response", "resource",
                                            "metadata"))
    assert len(t2) == 4
    by_url = dict(zip(t2["url"].to_pylist(), t2["html"].to_pylist()))
    assert by_url["https://r"] == b"blob"  # non-HTTP payload kept whole
    assert by_url["https://m"] == b"xyz"


def test_malformed_raises():
    with pytest.raises(ValueError, match="malformed WARC"):
        parse_warc_bytes(b"NOT A WARC")
    rec = build_warc_bytes(ROWS[:1])
    with pytest.raises(ValueError, match="Content-Length"):
        parse_warc_bytes(rec.replace(b"Content-Length", b"X-Length"))


def test_read_warc_dataset(tmp_path):
    # 3 shard files, mixed plain / gzip — one decode task per file
    for s in range(3):
        rows = ROWS[s::3]
        data = build_warc_bytes(rows, gzip_members=(s % 2 == 0))
        ext = "warc.gz" if s % 2 == 0 else "warc"
        (tmp_path / f"shard-{s}.{ext}").write_bytes(data)
    ds = read_warc([str(tmp_path / f) for f in sorted(os.listdir(tmp_path))])
    got = ds.take_all()
    assert sorted(r["url"] for r in got) == sorted(r["url"] for r in ROWS)
    by_url = {r["url"]: r for r in got}
    for r in ROWS:
        assert bytes(by_url[r["url"]]["html"]) == r["html"]
        assert by_url[r["url"]]["warc_ts"] == r["warc_ts"]


def test_warcreader_cli_job(tmp_path):
    """warcreader → extractText → parquetwriter end-to-end: the crawl
    archive lands as (url, text) parquet via the config-driven surface."""
    from dataxray.cli import run_job

    (tmp_path / "crawl").mkdir()
    (tmp_path / "crawl" / "c.warc.gz").write_bytes(
        build_warc_bytes(ROWS, gzip_members=True))
    out = str(tmp_path / "out")
    job = {"job": {"content": [{
        "reader": {"name": "warcreader",
                   "parameter": {"path": str(tmp_path / "crawl" / "*.warc.gz"),
                                 "extractText": True,
                                 "column": ["url", "text"]}},
        "writer": {"name": "parquetwriter",
                   "parameter": {"path": out, "writeMode": "truncate"}},
    }]}}
    run_job(job)
    import pyarrow.parquet as pq

    files = [os.path.join(out, f) for f in os.listdir(out)
             if f.endswith(".parquet")]
    t = pa.concat_tables([pq.read_table(f) for f in files])
    assert sorted(t.column_names) == ["text", "url"]
    got = dict(zip(t["url"].to_pylist(), t["text"].to_pylist()))
    assert got[ROWS[0]["url"]] == "t0 page 0 & text"


def test_warc_ingest_to_lake(tmp_path):
    """warc_ingest: crawl shards → staged WAL → exactly-once LWW lake;
    the later crawl of a url wins; re-ingesting is a no-op (watermarks)."""
    from dataxray.pipelines.ingest import warc_ingest
    from dataxray.pipelines.replay import ReplayConfig
    from dataxray.state.manifest import Lake

    # two crawls of the same 3 urls: recrawl updates pages 0 and 2
    crawl1 = [{"url": f"https://s/{i}",
               "warc_ts": datetime(2026, 1, 1, 0, 0, i),
               "html": f"<html><body>v1 page {i}</body></html>".encode()}
              for i in range(3)]
    crawl2 = [{"url": f"https://s/{i}",
               "warc_ts": datetime(2026, 1, 2, 0, 0, i),
               "html": f"<html><body>v2 page {i}</body></html>".encode()}
              for i in (0, 2)]
    (tmp_path / "c1.warc.gz").write_bytes(build_warc_bytes(crawl1, True))
    (tmp_path / "c2.warc").write_bytes(build_warc_bytes(crawl2))
    lake = str(tmp_path / "lake")
    files = [str(tmp_path / "c1.warc.gz"), str(tmp_path / "c2.warc")]
    rep = warc_ingest(files, lake, str(tmp_path / "stage1"),
                      cfg=ReplayConfig(num_partitions=4))
    assert rep.write_succeed_records == 3
    state = Lake(lake).read_all().sort_by("url")
    texts = dict(zip(state["url"].to_pylist(), state["text"].to_pylist()))
    assert texts == {"https://s/0": "v2 page 0", "https://s/1": "v1 page 1",
                     "https://s/2": "v2 page 2"}

    # idempotent re-ingest: fresh staging, same WARC input → watermarks
    # skip everything, state unchanged
    warc_ingest(files, lake, str(tmp_path / "stage2"),
                cfg=ReplayConfig(num_partitions=4))
    state2 = Lake(lake).read_all().sort_by("url")
    assert state2.to_pydict() == state.to_pydict()


def test_warcreader_lakewriter_cli_job(tmp_path):
    """Config-driven crawl→lake CDC job: warcreader × lakewriter composes
    through the same whole-pipeline special case as walreader."""
    from dataxray.cli import run_job
    from dataxray.state.manifest import Lake

    (tmp_path / "crawl").mkdir()
    (tmp_path / "crawl" / "c.warc.gz").write_bytes(
        build_warc_bytes(ROWS, gzip_members=True))
    lake = str(tmp_path / "lake")
    job = {"job": {"content": [{
        "reader": {"name": "warcreader",
                   "parameter": {"path": str(tmp_path / "crawl" / "*"),
                                 "stagingDir": str(tmp_path / "stage")}},
        "writer": {"name": "lakewriter",
                   "parameter": {"path": lake, "numPartitions": 4}},
    }]}}
    run_job(job)
    state = Lake(lake).read_all()
    assert len(state) == len({r["url"] for r in ROWS})
    texts = dict(zip(state["url"].to_pylist(), state["text"].to_pylist()))
    assert texts[ROWS[1]["url"]] == "t1 page 1 & text"
    assert os.listdir(tmp_path / "stage")  # a given stagingDir is kept


def test_warcreader_lakewriter_default_staging_removed(tmp_path, monkeypatch):
    """Without stagingDir the job decodes the crawl into its own temporary
    dir; a successful replay removes it instead of leaking one decoded copy
    of the crawl per run."""
    from dataxray.cli import run_job
    from dataxray.pipelines import ingest
    from dataxray.state.manifest import Lake

    staged = []
    real_warc_to_wal = ingest.warc_to_wal

    def recording_warc_to_wal(files, staging, **kw):
        staged.append(staging)
        return real_warc_to_wal(files, staging, **kw)

    monkeypatch.setattr(ingest, "warc_to_wal", recording_warc_to_wal)
    (tmp_path / "crawl").mkdir()
    (tmp_path / "crawl" / "c.warc.gz").write_bytes(
        build_warc_bytes(ROWS, gzip_members=True))
    lake = str(tmp_path / "lake")
    job = {"job": {"content": [{
        "reader": {"name": "warcreader",
                   "parameter": {"path": str(tmp_path / "crawl" / "*")}},
        "writer": {"name": "lakewriter",
                   "parameter": {"path": lake, "numPartitions": 4}},
    }]}}
    run_job(job)
    assert len(Lake(lake).read_all()) == len({r["url"] for r in ROWS})
    assert len(staged) == 1
    assert not os.path.exists(staged[0])


def test_warc_to_wal_decodes_invalid_utf8_lossily(tmp_path):
    """A response body with bytes that are not UTF-8 (here a stray 0xFF)
    decodes with U+FFFD in their place instead of failing the decode task;
    the valid pages of the same file keep their exact text."""
    import pyarrow.parquet as pq

    from dataxray.pipelines.ingest import warc_to_wal

    bad = {"url": "https://s/bad", "warc_ts": datetime(2026, 1, 1, 0, 0, 9),
           "html": b"<html><body>caf\xff au lait</body></html>"}
    (tmp_path / "c.warc").write_bytes(build_warc_bytes(ROWS[:2] + [bad]))
    out = str(tmp_path / "wal")
    warc_to_wal([str(tmp_path / "c.warc")], out)
    t = pq.read_table(out)
    got = dict(zip(t["url"].to_pylist(), t["text"].to_pylist()))
    assert got["https://s/bad"] == "caf� au lait"
    assert got[ROWS[1]["url"]] == "t1 page 1 & text"


def test_warcreader_lakewriter_reads_through_remote_filesystem(tmp_path, monkeypatch):
    """A CDC warcreader job whose path is a ``scheme://`` URI decodes the
    crawl through the fsspec filesystem the path resolved to, not as local
    paths (file:// is the in-sandbox protocol)."""
    import fsspec

    from dataxray.cli import run_job
    from dataxray.sources import warc
    from dataxray.state.manifest import Lake

    seen = []
    real_read_warc = warc.read_warc

    def spy(paths, *args, **kwargs):
        seen.append(kwargs.get("filesystem"))
        return real_read_warc(paths, *args, **kwargs)

    monkeypatch.setattr(warc, "read_warc", spy)
    (tmp_path / "crawl").mkdir()
    (tmp_path / "crawl" / "c.warc.gz").write_bytes(
        build_warc_bytes(ROWS, gzip_members=True))
    lake = str(tmp_path / "lake")
    job = {"job": {"content": [{
        "reader": {"name": "warcreader",
                   "parameter": {"path": f"file://{tmp_path}/crawl/*",
                                 "stagingDir": str(tmp_path / "stage")}},
        "writer": {"name": "lakewriter",
                   "parameter": {"path": lake, "numPartitions": 4}},
    }]}}
    run_job(job)
    assert len(seen) == 1
    assert isinstance(seen[0], type(fsspec.filesystem("file")))
    assert len(Lake(lake).read_all()) == len({r["url"] for r in ROWS})


def test_undated_warc_records_go_dirty(tmp_path):
    """A record with no WARC-Date header, or one that does not parse, gets
    a null txn_id in the staged WAL; the replay's Validate routes it to the
    dirty side-channel (``txn_regression``), where it counts against the
    error budget, and it never reaches the lake. The dated record lands."""
    import glob

    import pyarrow.parquet as pq

    from dataxray.errors import ErrorBudgetExceeded, ErrorLimit
    from dataxray.pipelines.ingest import warc_to_wal
    from dataxray.pipelines.replay import ReplayConfig, replay
    from dataxray.state.manifest import Lake

    rows = [dict(ROWS[0]),
            dict(ROWS[1], warc_ts="not-a-date"),
            dict(ROWS[2], warc_ts="DROP")]
    data = build_warc_bytes(rows).replace(b"WARC-Date: DROP\r\n", b"")
    assert data.count(b"WARC-Date") == 2
    (tmp_path / "c.warc").write_bytes(data)
    wal = str(tmp_path / "wal")
    warc_to_wal([str(tmp_path / "c.warc")], wal)
    staged = pq.read_table(wal)
    assert staged["txn_id"].null_count == 2

    dirty = tmp_path / "dirty"
    rep = replay(wal, str(tmp_path / "lake"),
                 cfg=ReplayConfig(num_partitions=4, dirty_dir=str(dirty),
                                  error_limit=ErrorLimit(record=2)))
    assert rep.total_error_records == 2
    assert rep.read_succeed_records == 1
    assert Lake(str(tmp_path / "lake")).read_all()["url"].to_pylist() == \
        [ROWS[0]["url"]]
    bad = pq.read_table(glob.glob(str(dirty / "**" / "*.parquet"),
                                  recursive=True))
    assert sorted(bad["url"].to_pylist()) == sorted(r["url"] for r in rows[1:])
    assert set(bad["_dirty_reason"].to_pylist()) == {"txn_regression"}

    # a budget below the two undated records fails the job before commit
    with pytest.raises(ErrorBudgetExceeded):
        replay(wal, str(tmp_path / "lake2"),
               cfg=ReplayConfig(num_partitions=4, dirty_dir=str(dirty),
                                error_limit=ErrorLimit(record=1)))
    assert not Lake(str(tmp_path / "lake2")).watermarks()
