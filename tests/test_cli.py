"""Config-driven job runner tests (job.json surface, Engine/JobContainer
analog — see cli.py header for the mapping table)."""

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

from dataxray.cli import run_job
from dataxray.errors import ErrorBudgetExceeded

SF = "/root/testdata/sf0.001"


def test_stream_to_parquet_with_transforms(tmp_path):
    out = str(tmp_path / "out")
    job = {"job": {
        "setting": {"speed": {"channel": 2}},
        "content": [{
            "reader": {"name": "streamreader", "parameter": {
                "sliceRecordCount": 100,
                "column": [
                    {"name": "k", "type": "long", "random": "0,9"},
                    {"name": "s", "type": "string", "value": "hello-world"},
                ]}},
            "transformer": [
                {"name": "dx_substr", "parameter": {"columnName": "s", "paras": ["0", "5"]}},
            ],
            "writer": {"name": "parquetwriter", "parameter": {"path": out, "writeMode": "truncate"}},
        }]}}
    rep = run_job(job)
    files = glob.glob(out + "/*.parquet")
    t = pq.read_table(files[0] if len(files) == 1 else files)
    total = sum(pq.read_metadata(f).num_rows for f in files)
    assert total == 200  # 2 slices x 100
    assert set(t["s"].to_pylist()) == {"hello"}
    assert rep["content"][0]["splits"] == 2


def test_parquet_to_stream_counts(tmp_path):
    job = {"job": {"content": [{
        "reader": {"name": "parquetreader", "parameter": {
            "path": f"{SF}/nation.parquet", "column": ["n_nationkey", "n_name"]}},
        "writer": {"name": "streamwriter", "parameter": {}},
    }]}}
    rep = run_job(job)
    assert rep["content"][0]["rows"] == 25


def test_dry_run_plans_only(tmp_path):
    out = str(tmp_path / "never")
    job = {"job": {
        "setting": {"dryRun": True},
        "content": [{
            "reader": {"name": "parquetreader", "parameter": {"path": f"{SF}/region.parquet"}},
            "writer": {"name": "parquetwriter", "parameter": {"path": out}},
        }]}}
    rep = run_job(job)
    assert rep["content"][0]["dryRun"] is True
    assert not os.path.exists(out)


def test_write_mode_non_conflict(tmp_path):
    out = str(tmp_path / "occupied")
    os.makedirs(out)
    open(os.path.join(out, "existing"), "w").close()
    job = {"job": {"content": [{
        "reader": {"name": "parquetreader", "parameter": {"path": f"{SF}/region.parquet"}},
        "writer": {"name": "parquetwriter", "parameter": {"path": out, "writeMode": "nonConflict"}},
    }]}}
    with pytest.raises(FileExistsError):
        run_job(job)


def test_error_limit_enforced_via_filter_errors(tmp_path):
    # dx_substr start beyond short strings -> error rows -> budget record=0 trips
    out = str(tmp_path / "o2")
    job = {"job": {
        "setting": {"errorLimit": {"record": 0}},
        "content": [{
            "reader": {"name": "streamreader", "parameter": {
                "sliceRecordCount": 50,
                "column": [{"name": "s", "type": "string", "random": "1,4"}]}},
            "transformer": [
                {"name": "dx_substr", "parameter": {"columnName": "s", "paras": ["3", "2"]}}],
            "writer": {"name": "parquetwriter", "parameter": {"path": out, "writeMode": "truncate"}},
        }]}}
    with pytest.raises(ErrorBudgetExceeded):
        run_job(job)


def test_error_percentage_denominator_with_csv_sink(tmp_path):
    """Clean rows must count toward the percentage denominator even when the
    sink is CSV (no parquet footers to re-scan): 1 dirty / 3 total = 0.33
    passes a 0.5 budget. A sink-dir re-scan would compute 1/1 = 1.0 and fail."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({"k": ["1", "2", "oops"]}), src)
    out = str(tmp_path / "csvout")
    job = {"job": {
        "setting": {"errorLimit": {"percentage": 0.5}},
        "content": [{
            "reader": {"name": "parquetreader", "parameter": {
                "path": src, "cast": {"k": "long"}}},
            "writer": {"name": "csvwriter", "parameter": {"path": out, "writeMode": "truncate"}},
        }]}}
    rep = run_job(job)
    assert rep["content"][0]["totalErrorRecords"] == 1


def test_rate_limit_slows_job(tmp_path):
    import time

    job = {"job": {
        "setting": {"speed": {"channel": 1, "record": 400}},
        "content": [{
            "reader": {"name": "streamreader", "parameter": {
                "sliceRecordCount": 400,
                "column": [{"name": "k", "type": "long", "random": "0,9"}]}},
            "writer": {"name": "streamwriter", "parameter": {}},
        }]}}
    t0 = time.perf_counter()
    rep = run_job(job)
    assert rep["content"][0]["rows"] == 400
    assert time.perf_counter() - t0 >= 0.8  # 400 rows at 400/s ≈ 1s floor


def test_multi_content_runs_parallel(tmp_path):
    """Two content entries execute concurrently (one task pool, like DataX):
    two rate-limited ~2s contents must finish in well under 4s sequential
    time, and reports keep config order."""
    import time

    def content(out):
        return {
            "reader": {"name": "streamreader", "parameter": {
                "sliceRecordCount": 600,
                "column": [{"name": "k", "type": "long", "random": "0,9"}]}},
            "writer": {"name": "streamwriter", "parameter": {}},
        }

    job = {"job": {
        "setting": {"speed": {"channel": 1, "record": 300}},
        "content": [content("a"), content("b")],  # 600 rec @ 300 rec/s ≈ 2 s each
    }}
    # sequential baseline first (also warms the worker pools)
    job["job"]["setting"]["sequentialContent"] = True
    t0 = time.perf_counter()
    rep_seq = run_job(job)
    seq_wall = time.perf_counter() - t0
    assert [c["rows"] for c in rep_seq["content"]] == [600, 600]

    del job["job"]["setting"]["sequentialContent"]
    t0 = time.perf_counter()
    rep = run_job(job)
    par_wall = time.perf_counter() - t0
    assert [c["rows"] for c in rep["content"]] == [600, 600]
    # two ~1s rate-limited contents overlap: clearly under the sequential wall
    assert par_wall < 0.8 * seq_wall, (
        f"contents did not overlap (par {par_wall:.2f}s vs seq {seq_wall:.2f}s)")


def test_csv_compression_codecs(tmp_path):
    """txtfilereader compression surface: gzip/bzip2 via Arrow codecs, zip
    via extraction (UnstructuredStorageReaderUtil.java:111-205); lzo/snappy
    are declared unsupported."""
    import bz2
    import gzip
    import zipfile

    import pytest as _pytest

    data = "a,b\n1,x\n2,y\n"
    paths = {}
    with gzip.open(tmp_path / "t.csv.gz", "wt") as f:
        f.write(data)
    paths["gzip"] = str(tmp_path / "t.csv.gz")
    with bz2.open(tmp_path / "t.csv.bz2", "wt") as f:
        f.write(data)
    paths["bzip2"] = str(tmp_path / "t.csv.bz2")
    with zipfile.ZipFile(tmp_path / "t.zip", "w") as z:
        z.writestr("inner.csv", data)
    paths["zip"] = str(tmp_path / "t.zip")

    for comp, path in paths.items():
        job = {"job": {"content": [{
            "reader": {"name": "csvreader", "parameter": {
                "path": path, "compression": comp}},
            "writer": {"name": "streamwriter", "parameter": {}},
        }]}}
        assert run_job(job)["content"][0]["rows"] == 2, comp

    from dataxray.cli import _reader_csv

    with _pytest.raises(ValueError, match="unsupported compression"):
        _reader_csv({"path": paths["gzip"], "compression": "lzo"}, 1)


def test_fsspec_uri_reader(tmp_path):
    """Remote-filesystem reader paths: scheme:// URIs resolve through fsspec
    (the ftpreader/ossreader analog); file:// is the in-sandbox protocol."""
    import pyarrow.parquet as pq
    import pyarrow as pa

    pq.write_table(pa.table({"k": [1, 2, 3]}), str(tmp_path / "f.parquet"))
    job = {"job": {"content": [{
        "reader": {"name": "parquetreader", "parameter": {
            "path": f"file://{tmp_path}/*.parquet"}},
        "writer": {"name": "streamwriter", "parameter": {}},
    }]}}
    assert run_job(job)["content"][0]["rows"] == 3


def test_replay_rate_limit(tmp_path):
    """speed caps on the replay path (Channel flow-control analog): a
    records_per_sec cap must stretch the epoch wall time."""
    assert _throttled_replay(tmp_path).executor == "local"


@pytest.mark.usefixtures("distributed")
def test_replay_rate_limit_distributed(tmp_path):
    """The cap holds across shards: k = 3 shard tasks (2 WAL files + the
    pages' row group) each keep cap / 3, so the epoch still takes at least
    rows / cap."""
    assert _throttled_replay(tmp_path).executor == "distributed"


def _throttled_replay(tmp_path):
    import time

    from dataxray.gen import GenConfig, write_dataset
    from dataxray.pipelines.replay import ReplayConfig, replay

    d = str(tmp_path / "data")
    write_dataset(d, GenConfig(n_urls=100, n_events=2_000, n_shards=2,
                               html_mean=16), parallel=False)
    t0 = time.perf_counter()
    rep = replay(os.path.join(d, "events"), str(tmp_path / "lake"),
                 pages_path=os.path.join(d, "pages.parquet"),
                 cfg=ReplayConfig(num_partitions=2, records_per_sec=2_000))
    wall = time.perf_counter() - t0
    # 2100 rows at 2000/s → ≥ ~1s of throttle sleep on top of the work
    assert wall >= 1.0
    return rep


def test_reader_level_casts(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import glob

    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({
        "k": ["1", "2", "oops"],
        "when": ["2024-05-05", "2024-05-06 07:08:09", "2024-05-07"],
    }), src)
    out = str(tmp_path / "casted")
    job = {"job": {
        "setting": {"errorLimit": {"percentage": 0.5}},
        "content": [{
            "reader": {"name": "parquetreader", "parameter": {
                "path": src, "cast": {"k": "long", "when": "date"}}},
            "writer": {"name": "parquetwriter", "parameter": {"path": out, "writeMode": "truncate"}},
        }]}}
    rep = run_job(job)
    files = glob.glob(out + "/*.parquet")
    t = pq.read_table(files)
    assert t.schema.field("k").type == pa.int64()
    assert str(t.schema.field("when").type).startswith("timestamp")
    assert t.num_rows == 2 and rep["content"][0]["totalErrorRecords"] == 1


def test_orc_writer_roundtrip(tmp_path):
    """hdfswriter fileType=ORC parity: ORC write via the custom datasink,
    read back with orcreader — data survives the roundtrip."""
    import glob

    import pyarrow.orc as orc

    out = str(tmp_path / "orcout")
    job = {"job": {"content": [{
        "reader": {"name": "parquetreader", "parameter": {
            "path": f"{SF}/nation.parquet", "column": ["n_nationkey", "n_name"]}},
        "writer": {"name": "hdfswriter", "parameter": {
            "path": out, "fileType": "ORC", "writeMode": "truncate"}},
    }]}}
    run_job(job)
    files = glob.glob(out + "/*.orc")
    assert files
    import pyarrow as pa
    t = pa.concat_tables([orc.read_table(f) for f in files])
    assert t.num_rows == 25 and set(t.column_names) == {"n_nationkey", "n_name"}

    job2 = {"job": {"content": [{
        "reader": {"name": "orcreader", "parameter": {"path": out}},
        "writer": {"name": "streamwriter", "parameter": {}},
    }]}}
    assert run_job(job2)["content"][0]["rows"] == 25


def test_text_writer_delimiter_and_compress(tmp_path):
    """txtfilewriter fieldDelimiter + compress surface; gzip files read back
    through csvreader's codec path."""
    import glob
    import gzip

    out = str(tmp_path / "txtout")
    job = {"job": {"content": [{
        "reader": {"name": "parquetreader", "parameter": {
            "path": f"{SF}/region.parquet", "column": ["r_regionkey", "r_name"]}},
        "writer": {"name": "txtfilewriter", "parameter": {
            "path": out, "fieldDelimiter": "\t", "compress": "gzip",
            "writeMode": "truncate"}},
    }]}}
    run_job(job)
    files = glob.glob(out + "/*.csv.gz")
    assert files
    body = "".join(gzip.open(f, "rt").read() for f in files)
    assert "\t" in body and "AFRICA" in body

    with pytest.raises(ValueError, match="unsupported compression"):
        run_job({"job": {"content": [{
            "reader": {"name": "parquetreader", "parameter": {
                "path": f"{SF}/region.parquet"}},
            "writer": {"name": "txtfilewriter", "parameter": {
                "path": str(tmp_path / "x"), "compress": "lzo"}},
        }]}})
