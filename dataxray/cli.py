"""Config-driven job runner — the DataX job.json surface on Ray Data.

Honors the reference's job spec shape (Configuration JSON tree,
Engine.java:122-186 / JobContainer.start, SURVEY.md §3.1):

    {"job": {
       "setting": {
         "speed":      {"channel": 8, "record": 100000, "byte": 1048576},
         "errorLimit": {"record": 0, "percentage": 0.02},
         "dryRun":     false
       },
       "content": [{
         "reader":      {"name": "parquetreader", "parameter": {...}},
         "transformer": [{"name": "dx_substr", "parameter":
                          {"columnIndex": 1, "paras": ["0", "5"]}}],
         "writer":      {"name": "parquetwriter", "parameter": {...}}
       }]
    }}

Readers: parquetreader, csvreader (txtfilereader analog), streamreader
(synthetic generator analog, StreamReader.java:99-171), walreader (the CDC
event source). Writers: parquetwriter / csvwriter (txtfilewriter analog
with fieldDelimiter + gzip/bzip2/zstd compress; writeMode
truncate|append|nonConflict, TxtFileWriter.java:97-197), orcwriter +
hdfswriter (fileType TEXT/ORC/PARQUET dispatch, HdfsWriter.java:66-92),
streamwriter (count/print smoke sink, streamwriter module), lakewriter (the
exactly-once CDC lake sink).

Mappings:
  speed.channel      → per-stage concurrency hint + read parallelism
                       (adjustChannelNumber, JobContainer.java:394-449)
  speed.record/byte  → sleep-based token-bucket stage (Channel.java:148-204
                       flow control; approximated per-task)
  errorLimit         → dirty-parquet side channel + post-run budget check
                       (ErrorRecordChecker.java:18-84)
  dryRun             → preCheck only: resolve reader, print plan, no execution
                       (JobContainer.java:103-106)
  preHandler/postHandler → dotted "pkg.mod:fn" callables
                       (JobContainer.java:308-363)

Run: python -m dataxray.cli --job job.json   (owns its Ray session)
"""

from __future__ import annotations

import argparse
import glob as globmod
import importlib
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa

from .errors import ErrorLimit, check_budget
from .functions.transforms import build_chain


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def _expand_paths(param: dict) -> list[str]:
    paths = param["path"] if isinstance(param["path"], list) else [param["path"]]
    files: list[str] = []
    for p in paths:
        if any(c in p for c in "*?["):
            files.extend(sorted(globmod.glob(p)))
        elif os.path.isdir(p):
            # directory = all its regular files (hdfsreader dir semantics,
            # HdfsReader.java:176-226) — lets a *writer's* output dir feed
            # straight back into the matching reader
            files.extend(sorted(
                os.path.join(p, f) for f in os.listdir(p)
                if os.path.isfile(os.path.join(p, f))))
        else:
            files.append(p)
    return files


def _resolve_reader_paths(param: dict):
    """(files, filesystem): plain paths glob locally; ``scheme://`` paths go
    through fsspec (the ftpreader/ossreader remote-FS analog — any protocol
    fsspec knows: ftp, s3, gs, file, memory, …), with globs expanded by the
    remote filesystem's own listing."""
    paths = param["path"] if isinstance(param["path"], list) else [param["path"]]
    if not any("://" in p for p in paths):
        return _expand_paths(param), None
    schemes = {p.split("://", 1)[0] if "://" in p else "<local>" for p in paths}
    if len(schemes) > 1:
        raise ValueError(
            f"reader path list mixes filesystems {sorted(schemes)}; "
            "use one scheme per content entry")
    import fsspec

    _cache_fsspec_http_probe()  # ray's fs-type probe trips on missing aiohttp
    scheme = paths[0].split("://", 1)[0]
    fs = fsspec.filesystem(scheme)
    files: list[str] = []
    for p in paths:
        body = p.split("://", 1)[1]
        files.extend(sorted(fs.glob(body)) if any(c in body for c in "*?[")
                     else [body])
    return files, fs


def _reader_parquet(param: dict, channels: int):
    import ray.data

    files, fs = _resolve_reader_paths(param)
    return ray.data.read_parquet(files, columns=param.get("column"),
                                 filesystem=fs), len(files)


# DataX compression names → Arrow codec (UnstructuredStorageReaderUtil.java:
# 111-205 reads gzip/bzip2/zip/lzo/snappy; Arrow gives us gzip/bz2/zstd/lz4,
# zip is handled by extraction, lzo/hadoop-snappy have no python codec here)
_CSV_CODECS = {"gzip": "gzip", "bzip2": "bz2", "zstd": "zstd", "lz4": "lz4"}


def _reader_csv(param: dict, channels: int):
    import ray.data

    files, fs = _resolve_reader_paths(param)
    comp = param.get("compression", "auto")
    kwargs = {}
    if comp == "zip":
        # zip members extract locally first (the reference's cycle-reading,
        # UnstructuredStorageReaderUtil.java:160-180) then read as plain CSV.
        # Remote archives are fetched through the resolved filesystem; the
        # extracted members are LOCAL, so fs must not apply to them
        import io
        import tempfile
        import zipfile

        tmp = tempfile.mkdtemp(prefix="dataxray_zip_")
        extracted = []
        for f in files:
            if fs is not None:
                with fs.open(f, "rb") as src:
                    zf = zipfile.ZipFile(io.BytesIO(src.read()))
            else:
                zf = zipfile.ZipFile(f)
            with zf as z:
                for info in z.infolist():
                    if info.is_dir():
                        continue  # a dir entry read as a path would re-read
                        # its members (double-counted rows)
                    z.extract(info, tmp)
                    extracted.append(os.path.join(tmp, info.filename))
        files, fs = extracted, None
    elif comp in _CSV_CODECS:
        kwargs["arrow_open_stream_args"] = {"compression": _CSV_CODECS[comp]}
    elif comp != "auto":
        raise ValueError(
            f"unsupported compression {comp!r}; have "
            f"{sorted(_CSV_CODECS) + ['zip', 'auto']} (lzo/snappy need "
            "codecs absent from this environment)")
    # "auto": Arrow sniffs by extension (.gz/.bz2/.zst/.lz4)
    return ray.data.read_csv(files, filesystem=fs, **kwargs), len(files)


def _reader_stream(param: dict, channels: int):
    """streamreader analog: N slices × sliceRecordCount rows of const /
    seeded-random columns (StreamReader.java:99-171; deterministic here —
    seed = f(42, slice) instead of wall-clock RNG)."""
    import ray.data

    count = int(param["sliceRecordCount"])
    cols = param["column"]
    slices = max(1, channels)

    def gen(batch: pa.Table) -> pa.Table:
        out = {}
        for i, spec in enumerate(cols):
            sl = int(batch["id"][0].as_py())
            rng = np.random.default_rng(np.random.SeedSequence([42, sl, i]))
            n = count
            typ = spec.get("type", "string")
            if "value" in spec:  # constant column
                arr = pa.nulls(n, pa.string()).fill_null(str(spec["value"]))
                if typ == "long":
                    arr = pa.array(np.full(n, int(spec["value"]), np.int64))
                elif typ == "double":
                    arr = pa.array(np.full(n, float(spec["value"]), np.float64))
            elif "random" in spec:
                lo, hi = (int(x) for x in str(spec["random"]).split(","))
                if typ == "long":
                    arr = pa.array(rng.integers(lo, hi + 1, size=n, dtype=np.int64))
                elif typ == "double":
                    arr = pa.array(rng.uniform(lo, hi, size=n))
                elif typ == "bool":
                    arr = pa.array(rng.integers(0, 2, size=n, dtype=np.int64) == 1)
                else:  # random-length string
                    lens = rng.integers(lo, hi + 1, size=n)
                    arr = pa.array(["x" * int(L) for L in lens], pa.string())
            else:
                raise ValueError(f"stream column {i}: need 'value' or 'random'")
            out[spec.get("name", f"col{i}")] = arr
        return pa.table(out)

    ds = ray.data.range(slices, override_num_blocks=slices)
    return ds.map_batches(gen, batch_format="pyarrow", batch_size=1), slices


def _reader_json(param: dict, channels: int):
    import ray.data

    files, fs = _resolve_reader_paths(param)
    return ray.data.read_json(files, filesystem=fs), len(files)


def _reader_orc(param: dict, channels: int):
    """ORC source (hdfsreader ORC mode analog). Ray 2.49 has no read_orc;
    files decode via pyarrow.orc inside read tasks — one task per file, like
    the reference's one-split-per-file HdfsReader (HdfsReader.java:176-226)."""
    import ray.data

    files = _expand_paths(param)

    def load(batch: pa.Table) -> pa.Table:
        import pyarrow.orc as orc

        tables = [orc.ORCFile(f).read() for f in batch["path"].to_pylist()]
        return pa.concat_tables(tables, promote_options="permissive")

    ds = ray.data.from_items([{"path": f} for f in files])
    return ds.map_batches(load, batch_format="pyarrow", batch_size=1), len(files)


def _reader_rdbms(param: dict, channels: int):
    """CommonRdbmsReader analog on sqlite: splitPk range-planned parallel
    SELECTs (sources/rdbms.py)."""
    from .sources import rdbms

    n = int(param.get("numSplits", channels))
    ds = rdbms.read_table(param["path"], param["table"],
                          columns=param.get("column"),
                          split_pk=param.get("splitPk"), num_splits=n,
                          where=param.get("where"),
                          session=param.get("session"))
    return ds, n


def _reader_wal(param: dict, channels: int):
    from .sources import wal

    ds, schema, n, _txn_hi = wal.read_events(param["path"], int(param.get("lowWatermark", 0)))
    if ds is None:
        raise ValueError(f"no event files under {param['path']}")
    return ds, n


def _reader_lake(param: dict, channels: int):
    """Read a dataxray lake's resolved snapshot as a job source: streaming
    Lake.dataset with column projection, (col, op, value) predicate
    pushdown, and optional time travel (asOfTxn) — closes the config loop
    lake → transform chain → any writer."""
    from .state.manifest import Lake

    lake = Lake(param["path"])
    if not lake.exists():
        raise ValueError(f"no lake at {param['path']}")
    pred = [tuple(c) for c in param.get("predicate", [])] or None
    as_of = param.get("asOfTxn")
    ds = lake.dataset(columns=param.get("column"), predicate=pred,
                      as_of_txn=int(as_of) if as_of is not None else None)
    return ds, lake.num_partitions()


def _reader_warc(param: dict, channels: int):
    """WARC / .warc.gz crawl archives (sources/warc.py) → (url, warc_ts,
    html, warc_type) rows; `extractText: true` adds a `text` column via the
    vectorized HTML extractor — the Common-Crawl-native entry into the
    same transform/writer chain every other reader feeds."""
    files, fs = _resolve_reader_paths(param)
    from .sources.warc import read_warc

    keep = tuple(param.get("warcTypes", ["response"]))
    ds = read_warc(files, keep_types=keep, filesystem=fs)
    if param.get("extractText"):
        import pyarrow.compute as _pc

        from .functions.text import html_to_text

        def extract(t):
            html_str = _pc.cast(t["html"], pa.string())
            return t.append_column("text", html_to_text(html_str))

        ds = ds.map_batches(extract, batch_format="pyarrow")
    if param.get("column"):
        ds = ds.select_columns(param["column"])
    return ds, len(files)


READERS = {
    "lakereader": _reader_lake,
    "warcreader": _reader_warc,
    "parquetreader": _reader_parquet,
    "csvreader": _reader_csv,
    "txtfilereader": _reader_csv,
    "streamreader": _reader_stream,
    "jsonreader": _reader_json,
    "orcreader": _reader_orc,
    "walreader": _reader_wal,
    "rdbmsreader": _reader_rdbms,
}


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def _prep_dir(path: str, write_mode: str) -> None:
    """writeMode semantics per TxtFileWriter.java:97-197 / HdfsWriter.java:83-92."""
    if os.path.isdir(path) and os.listdir(path):
        if write_mode == "truncate":
            shutil.rmtree(path)
        elif write_mode == "nonConflict":
            raise FileExistsError(f"writeMode=nonConflict and {path} is not empty")
    os.makedirs(path, exist_ok=True)


def _writer_parquet(ds, param: dict) -> dict:
    path = param["path"]
    _prep_dir(path, param.get("writeMode", "append"))
    ds.write_parquet(path)
    return {"sink": path}


class _OrcDatasink:
    """Per-block ORC files via Ray's file datasink (task-deterministic names,
    retry-safe) — hdfswriter fileType=ORC parity (HdfsHelper.java:369). Ray
    Data has parquet/csv/json sinks but no ORC; pyarrow.orc fills it in."""

    def __new__(cls, path: str):
        from ray.data.datasource import BlockBasedFileDatasink

        class Sink(BlockBasedFileDatasink):
            def __init__(self, p):
                super().__init__(p, file_format="orc")

            def write_block_to_file(self, block, file):
                import pyarrow.orc as orc

                orc.write_table(block.to_arrow(), file)

        return Sink(path)


class _TextDatasink:
    """Delimited-text files with optional whole-file compression —
    txtfilewriter fieldDelimiter/compress parity (TxtFileWriter.java:214-231,
    HdfsHelper.java:289 TEXT). gzip/bz2/zstd ride pyarrow's
    CompressedOutputStream; the csv payload itself is Arrow-written."""

    def __new__(cls, path: str, delimiter: str = ",", compress: str | None = None):
        from ray.data.datasource import BlockBasedFileDatasink

        codec = {None: None, "": None, "gzip": "gzip", "bzip2": "bz2",
                 "zstd": "zstd"}
        if compress not in codec:
            raise ValueError(f"unsupported compression {compress!r} for text "
                             "write (have gzip/bzip2/zstd)")
        suffix = {"gzip": "csv.gz", "bz2": "csv.bz2", "zstd": "csv.zst",
                  None: "csv"}[codec[compress]]

        class Sink(BlockBasedFileDatasink):
            def __init__(self, p):
                super().__init__(p, file_format=suffix)

            def write_block_to_file(self, block, file):
                from pyarrow import csv as _csv

                # pyarrow's filesystem layer compresses by extension
                # (open_output_stream compression='detect'), so the payload
                # here is plain CSV — wrapping a CompressedOutputStream on
                # top would double-compress
                _csv.write_csv(block.to_arrow(), file,
                               _csv.WriteOptions(delimiter=delimiter))

        return Sink(path)


def _writer_csv(ds, param: dict) -> dict:
    path = param["path"]
    _prep_dir(path, param.get("writeMode", "append"))
    delim = param.get("fieldDelimiter", ",")
    compress = param.get("compress")
    if delim == "," and not compress:
        ds.write_csv(path)
    else:
        ds.write_datasink(_TextDatasink(path, delim, compress))
    return {"sink": path}


def _writer_orc(ds, param: dict) -> dict:
    path = param["path"]
    _prep_dir(path, param.get("writeMode", "append"))
    ds.write_datasink(_OrcDatasink(path))
    return {"sink": path}


def _writer_hdfs(ds, param: dict) -> dict:
    """hdfswriter surface: fileType TEXT/ORC/PARQUET dispatch
    (HdfsWriter.java:66-92). Paths may be local or fsspec URIs."""
    ftype = str(param.get("fileType", "parquet")).lower()
    if ftype in ("orc",):
        return _writer_orc(ds, param)
    if ftype in ("text", "csv"):
        return _writer_csv(ds, param)
    if ftype in ("parquet", "par"):
        return _writer_parquet(ds, param)
    raise ValueError(f"unsupported hdfswriter fileType {param.get('fileType')!r}")


def _writer_stream(ds, param: dict) -> dict:
    """streamwriter: count (and optionally print) — the smoke-test sink used
    by the reference's default job (core/src/main/job/job.json)."""
    if param.get("print"):
        # preview from the uncounted upstream: a second execution of the
        # counted stage would double rows into the error-budget denominator
        probe = getattr(ds, "_dataxray_uncounted", ds)
        for row in probe.take(int(param.get("printLimit", 10))):
            print(row)
    return {"rows": ds.count()}


def _writer_lake(ds, param: dict) -> dict:
    """Exactly-once CDC lake sink — handled as a whole-pipeline special case
    in run_job (replay() owns source pruning + shuffle + commit); reaching
    this function means the job didn't pair it with walreader."""
    raise ValueError("lakewriter requires reader walreader (a CDC job)")


def _writer_rdbms(ds, param: dict) -> dict:
    """CommonRdbmsWriter analog on sqlite: transactional batch INSERT with
    writeMode insert|replace|update and row-level dirty fallback."""
    from .sources import rdbms

    schema = None
    if param.get("createTable"):
        # schema probe on the uncounted upstream (see _writer_stream note)
        probe = getattr(ds, "_dataxray_uncounted", ds)
        s = probe.schema()
        schema = getattr(s, "base_schema", None) or pa.schema(
            list(zip(s.names, s.types)))
    rep = rdbms.write_table(
        ds, param["path"], param["table"],
        write_mode=param.get("writeMode", "insert"),
        conflict_pk=param.get("conflictPk"),
        batch_size=int(param.get("batchSize", 2048)),
        pre_sql=param.get("preSql"), post_sql=param.get("postSql"),
        create_from_schema=schema,
        dirty_dir=param.get("dirtyDir"),
        session=param.get("session"),
    )
    return {"sink": param["path"], "rows": rep["rows_written"],
            "rowsFailed": rep["rows_failed"]}


WRITERS = {
    "parquetwriter": _writer_parquet,
    "txtfilewriter": _writer_csv,
    "csvwriter": _writer_csv,
    "orcwriter": _writer_orc,
    "hdfswriter": _writer_hdfs,
    "streamwriter": _writer_stream,
    "lakewriter": _writer_lake,
    "rdbmswriter": _writer_rdbms,
}


# ---------------------------------------------------------------------------
# speed control
# ---------------------------------------------------------------------------


class _RowTally:
    """Driver-owned counter actor: the exact clean-row count for the error
    budget denominator. Each counting task blocks on its add (ray.get) so by
    the time the sink finishes, every increment has been applied — no re-scan
    of the sink dir (which miscounts: csv files have no parquet footer,
    writeMode=append dirs contain pre-existing rows)."""

    def __init__(self):
        import ray

        @ray.remote(num_cpus=0)
        class Tally:
            def __init__(self):
                self.n = 0

            def add(self, k: int) -> None:
                self.n += k

            def get(self) -> int:
                return self.n

        self.actor = Tally.remote()

    def stage(self, ds):
        actor = self.actor

        def count(batch: pa.Table) -> pa.Table:
            import ray

            ray.get(actor.add.remote(len(batch)))
            return batch

        # max_retries=0: a retried counting task would re-add its rows and
        # inflate the error-budget denominator (letting a job that should
        # fail errorLimit.percentage pass). Failing loudly on a lost worker
        # beats silently mis-enforcing the budget contract.
        return ds.map_batches(count, batch_format="pyarrow", max_retries=0)

    def total(self) -> int:
        import ray

        return ray.get(self.actor.get.remote())


from .stages.ratelimit import RateLimiter  # noqa: E402 — shared with replay


# ---------------------------------------------------------------------------
# job runner
# ---------------------------------------------------------------------------


def _cache_fsspec_http_probe() -> None:
    """ray.data path resolution lazily runs `from fsspec.implementations.http
    import HTTPFileSystem` on EVERY read/write; with aiohttp absent that
    import fails every time (failures are never cached), and two threads
    resolving paths concurrently can observe each other's partially
    initialized module — surfacing as a bare ImportError that ray's
    `except ModuleNotFoundError` does NOT catch. Cache a minimal functional
    stub once so the probe succeeds thread-safely; the stub class matches no
    real filesystem instance, which is exactly what ray's isinstance check
    needs, and actual http:// reads would need aiohttp regardless."""
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
    except ModuleNotFoundError:
        import sys
        import types

        mod = types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # noqa: N801 — name is the import contract
            pass

        mod.HTTPFileSystem = HTTPFileSystem
        sys.modules["fsspec.implementations.http"] = mod


def _load_handler(spec: str):
    mod, fn = spec.split(":")
    return getattr(importlib.import_module(mod), fn)


def run_job(job: dict, dry_run: bool = False) -> dict:
    setting = job.get("job", job).get("setting", {})
    contents = job.get("job", job)["content"]
    speed = setting.get("speed", {})
    channels = int(speed.get("channel", 4))
    el = setting.get("errorLimit", {})
    error_limit = ErrorLimit(
        record=el.get("record"), percentage=el.get("percentage")
    )
    dry_run = dry_run or bool(setting.get("dryRun"))

    if pre := setting.get("preHandler"):
        _load_handler(pre)(job)

    def _run_content(content: dict) -> dict:
        rname = content["reader"]["name"]
        wname = content["writer"]["name"]
        if rname not in READERS:
            raise KeyError(f"unknown reader {rname!r}; have {sorted(READERS)}")
        if wname not in WRITERS:
            raise KeyError(f"unknown writer {wname!r}; have {sorted(WRITERS)}")
        t0 = time.perf_counter()

        if wname == "lakewriter" and rname in ("walreader", "warcreader"):
            # whole-pipeline CDC job: replay() owns pruning/shuffle/commit
            from .pipelines.replay import ReplayConfig, replay as run_replay

            rp = content["reader"].get("parameter", {})
            wp = content["writer"].get("parameter", {})
            if dry_run:
                return {"reader": rname, "writer": wname,
                        "lake": wp["path"], "dryRun": True}
            own_staging = None
            if rname == "warcreader":
                # crawl-dump CDC: decode WARC shards to a staged WAL first
                # (pipelines/ingest.py), then the standard replay below
                from .pipelines.ingest import warc_to_wal

                files, fs = _resolve_reader_paths(rp)
                staging = rp.get("stagingDir")
                if not staging:
                    # this run's own scratch copy of the decoded crawl:
                    # removed after a successful replay
                    staging = own_staging = os.path.join(
                        "/tmp", "dataxray_cli_warc", f"stage-{time.time_ns()}")
                warc_to_wal(files, staging,
                            extract_text=rp.get("extractText", True),
                            filesystem=fs)
                rp = dict(rp, path=staging)
            pages_path = wp.get("pagesPath", rp.get("pagesPath"))
            cdc_dirty = wp.get("dirtyDir")
            if cdc_dirty is None and (el.get("record") is not None
                                      or el.get("percentage") is not None):
                # an errorLimit without a dirty channel would silently never
                # fire (budget counts captured rows) — give it a default
                cdc_dirty = os.path.join("/tmp", "dataxray_cli_dirty",
                                         f"cdc-{time.time_ns()}")
            rep = run_replay(
                rp["path"], wp["path"], pages_path=pages_path,
                cfg=ReplayConfig(
                    num_partitions=int(wp.get("numPartitions", 32)),
                    dirty_dir=cdc_dirty,
                    error_limit=error_limit,
                ),
            )
            if own_staging is not None:
                shutil.rmtree(own_staging, ignore_errors=True)
            return {
                "reader": rname, "writer": wname, "lake": wp["path"],
                "partitionsCommitted": rep.partitions_committed,
                "partitionsSkipped": rep.partitions_skipped,
                "txnHi": rep.txn_hi,
                "writeSucceedRecords": rep.write_succeed_records,
                "totalErrorRecords": rep.total_error_records,
                "recordSpeed": round(rep.record_speed, 1),
                "elapsedSec": round(time.perf_counter() - t0, 3),
            }
        ds, n_splits = READERS[rname](content["reader"].get("parameter", {}), channels)

        if dry_run:  # preCheck: plan only (JobContainer.java:103-106,182-279)
            return {
                "reader": rname, "writer": wname, "splits": n_splits,
                "schema": str(ds.schema()), "dryRun": True,
            }

        dirty_dir = None
        # reader-level column casts (the plugin `column` type/format surface:
        # readers declare target types, ColumnCast parses — casts.py)
        cast_spec = content["reader"].get("parameter", {}).get("cast")
        if cast_spec:
            from .functions.casts import CastColumns, CastConfig

            cc = content["reader"]["parameter"].get("castConfig", {})
            dirty_dir = os.path.join("/tmp", "dataxray_cli_dirty", f"{time.time_ns()}")
            ds = ds.map_batches(
                CastColumns(cast_spec,
                            CastConfig(**{k: tuple(v) if k == "extra_formats" else v
                                          for k, v in cc.items()}),
                            dirty_dir=dirty_dir),
                batch_format="pyarrow",
            )
        specs = content.get("transformer", [])
        if specs:
            if dirty_dir is None:
                dirty_dir = os.path.join("/tmp", "dataxray_cli_dirty", f"{time.time_ns()}")
            chain = build_chain(
                [{"name": s["name"], "parameters": s.get("parameter", {})} for s in specs]
            )
            chain.dirty_dir = dirty_dir
            ds = ds.map_batches(chain, batch_format="pyarrow")

        if speed.get("record") or speed.get("byte"):
            ds = ds.map_batches(
                RateLimiter,
                fn_constructor_args=(
                    (float(speed["record"]) / channels) if speed.get("record") else None,
                    (float(speed["byte"]) / channels) if speed.get("byte") else None,
                ),
                batch_format="pyarrow", concurrency=channels, batch_size=4096,
                num_cpus=0.25,  # limiter actors sleep; don't starve the stages
            )

        tally = None
        if dirty_dir is not None:
            tally = _RowTally()
            counted = tally.stage(ds)
            # writers that probe schema or preview rows would EXECUTE the
            # counted stage extra times and inflate the budget denominator —
            # give them the uncounted upstream for those probes
            counted._dataxray_uncounted = ds
            ds = counted
        sink_report = WRITERS[wname](ds, content["writer"].get("parameter", {}))

        n_dirty = 0
        if dirty_dir is not None and os.path.isdir(dirty_dir):
            # denominator = rows processed = clean sink rows + dirty rows
            # (ErrorRecordChecker percentage semantics); clean rows come from
            # the in-pipeline tally, independent of sink format or writeMode
            from .errors import dirty_count

            n_dirty = check_budget(dirty_dir, tally.total() + dirty_count(dirty_dir),
                                   error_limit)
        return {
            "reader": rname, "writer": wname, "splits": n_splits,
            "totalErrorRecords": n_dirty,
            "elapsedSec": round(time.perf_counter() - t0, 3),
            **sink_report,
        }

    # DataX runs every content[] entry in ONE task pool; the analog is a
    # thread per content driving its own Dataset pipeline concurrently (Ray
    # schedules tasks from all of them). Order of reports == config order.
    # setting.sequentialContent=true restores one-at-a-time execution.
    if len(contents) > 1 and not setting.get("sequentialContent"):
        from concurrent.futures import ThreadPoolExecutor

        _cache_fsspec_http_probe()
        with ThreadPoolExecutor(max_workers=min(len(contents), 8)) as ex:
            reports = list(ex.map(_run_content, contents))
    else:
        reports = [_run_content(c) for c in contents]

    if post := setting.get("postHandler"):
        _load_handler(post)(job)
    return {"content": reports}


def main() -> None:
    ap = argparse.ArgumentParser(description="dataxray job runner")
    ap.add_argument("--job", help="path to job.json")
    ap.add_argument("--dry-run", action="store_true")
    # lake maintenance ops (no job.json needed): online re-bucketing,
    # retention, compaction — the operational complement of lake_info
    ap.add_argument("--evolve-lake", metavar="ROOT",
                    help="re-bucket a live lake to --partitions N (online "
                         "partition evolution; manifest-recorded boundary)")
    ap.add_argument("--partitions", type=int)
    ap.add_argument("--vacuum-lake", metavar="ROOT",
                    help="drop history versions beyond --retain N")
    ap.add_argument("--retain", type=int, default=1)
    ap.add_argument("--compact-lake", metavar="ROOT",
                    help="resolve delta-bearing partitions in place")
    args = ap.parse_args()
    maintenance = args.evolve_lake or args.vacuum_lake or args.compact_lake
    if not args.job and not maintenance:
        ap.error("--job required (or a maintenance op)")

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        if maintenance:
            from .state.manifest import Lake

            out = {}
            if args.evolve_lake:
                if not args.partitions:
                    ap.error("--evolve-lake needs --partitions N")
                out["evolve"] = Lake(args.evolve_lake).evolve_partitions(
                    args.partitions)
            if args.compact_lake:
                out["compacted"] = Lake(args.compact_lake).compact_all()
            if args.vacuum_lake:
                out["vacuum"] = Lake(args.vacuum_lake).vacuum(
                    retain_last=args.retain)
            print(json.dumps(out))
            return
        with open(args.job) as f:
            job = json.load(f)
        report = run_job(job, dry_run=args.dry_run)
        print(json.dumps(report))
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
