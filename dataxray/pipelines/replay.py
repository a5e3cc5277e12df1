"""End-to-end CDC replay: WAL tail → validate → url-hash shuffle → LWW merge
→ exactly-once lake commit.

This is the engine's flagship pipeline — the Ray-Data re-expression of a
DataX reader→transformer→writer job (JobContainer.start, §3.1 of SURVEY.md)
crossed with otsstreamreader's checkpointed change-stream replay (§3.3):

    event shards, footer-pruned by watermark, unified schema (+ base pages)
      → Validate                        # dirty side-channel + error budget
      → align to evolved schema
      → direct_exchange                 # THE shuffle (stages/exchange.py)
          _AssignCombineFuse:  AssignPartition  # _part = hash(url) % P
                               → BatchCombiner  # pre-shuffle LWW combiner
          split_by_part / √P coarse groups → per-partition slices
          _merge_tables                 # per-partition LWW merge + stage-write
      → driver: one label-deduped snapshot commit per epoch (exactly-once)

Two executors run that same chain of stage callables, chosen per epoch by
state/manifest.py:in_driver, the one rule the lake's read paths use too:

  * in the driver process when the epoch's input — the footer-known bytes
    of the WAL files plus base pages being replayed — is at most
    LOCAL_INPUT_BYTES (1 MiB; e.g. a tail epoch of a few WAL segments), or
    when no two tasks could run at once (Ray is not up, or the cluster has
    one CPU). The write path streams: one WAL file (and one base-page row
    group) at a time is read with pyarrow, validated and aligned, then
    combined and split in batches of about cfg.batch_size rows, and each
    partition's buffered slices are folded to their LWW winners as they
    grow, so the driver holds about the epoch's winners plus one batch,
    never the whole backlog. No Ray Data plan and
    no split, fan-out or merge task wave is started: on one CPU those only
    queue, and on a small epoch they cost several times the work itself.
  * otherwise distributed. Everything streams through Ray Data map stages
    into the raw-task two-level exchange; the only driver-side
    materialization is one small metadata row per touched partition.

A pass over the byte cutoff is checked against the memory that holds its
decoded input — the driver's heap, which cannot spill, or the object
store — and steered to pipelines.tail.replay_chunked when it may not fit.

Both feed the same commit loop, so exactly-once, watermark filtering, the
dirty side-channel, the error budget and schema evolution have one
implementation. Untouched partitions are never read or rewritten
(incremental replay prunes at the file level by the global low watermark
and per-partition by the snapshot's txn_hi).
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..errors import ErrorLimit, check_budget
from ..schema import META_FIELDS, OP_INSERT, PART_COL, align_table, unify
from ..sources import wal
from ..stages.decode import Validate
from ..stages.merge import BatchCombiner, lww_reduce, merge_partition
from ..stages.partition import AssignPartition
from ..state.checkpoint import RunReport, global_low_watermark
from ..state.manifest import Lake, entries, in_driver, read_once

THROTTLE_BATCH = 8192  # rows per RateLimiter call


@dataclass(frozen=True)
class ReplayConfig:
    num_partitions: int = 32
    batch_size: int | None = 32_768
    sink_mode: str = "rewrite"  # "delta": append per-epoch LWW winners, resolve on read
    history: bool = False  # retain every committed version (time travel / CDF)
    compact_threshold: int = 8  # delta files per partition before auto-compaction
    error_limit: ErrorLimit = ErrorLimit()
    dirty_dir: str | None = None
    stall_timeout_sec: float | None = None  # per-partition merge watchdog
    # speed caps (Channel.java:148-204 flow control): protect a shared WAL
    # store / destination from a full-speed backfill. None = unthrottled.
    records_per_sec: float | None = None
    bytes_per_sec: float | None = None


def _tune_read_parallelism() -> None:
    """Size read tasks to the cluster: ~2 blocks per CPU. Ray's default floor
    of 200 read blocks turns this pipeline into hundreds of ~10ms tasks and
    makes the driver dispatch loop the critical path (measured 2-3x slower).
    Only overrides the untouched default so callers keep control."""
    import ray
    from ray.data import DataContext

    ctx = DataContext.get_current()
    if ctx.read_op_min_num_blocks == 200 and ray.is_initialized():
        cpus = int(ray.cluster_resources().get("CPU", 8))
        ctx.read_op_min_num_blocks = max(16, cpus * 2)


def _merge_tables(p: int, tables: list[pa.Table], lake_root: str, run_id: str,
                  wm: dict, parts: dict, target: pa.Schema,
                  sink_mode: str = "rewrite", compact_threshold: int = 8,
                  monitor=None, shared: list | None = None) -> dict:
    """Per-partition final merge, one exchange merge call each (a Ray task,
    or in the driver): stage new state from the partition's events (those
    at or below its watermark ``wm[p]`` were already dropped by
    _AssignCombineFuse), return small commit metadata. ``parts`` holds the
    current snapshot's entries by partition (the driver read it once; a
    partition without one has no state yet).

    sink_mode="rewrite": fold in current state, produce the resolved
    partition (one base file). sink_mode="delta": write ONLY this epoch's
    LWW winners (tombstones included) as an appended delta — the state is
    never read, so an epoch touching k rows costs O(k), not O(partition);
    when the partition accumulates compact_threshold deltas the task
    compacts (full merge + rewrite) instead.

    ``shared`` (the driver's merges only): a delta is not written here but
    appended to it as (metadata, table); the replay then stages all of the
    epoch's deltas as one L0 file (Lake.write_staged_shared) and fills in
    the metadata's ``staged``. A merge task writes its own file."""
    from ..stages.merge import strip_counts

    if monitor is not None:
        monitor.beat.remote(p, "start")  # fire-and-forget heartbeat
    events = tables[0] if len(tables) == 1 else pa.concat_tables(
        tables, promote_options="permissive"
    )
    watermark = wm.get(p, -1)
    # exact applied-event accounting: _cnt sums the source rows each combiner
    # winner absorbed
    events, n_events = strip_counts(events)
    if len(events) == 0:
        if monitor is not None:
            monitor.beat.remote(p, "done")
        return {"partition": p, "txn_hi": watermark, "staged": [],
                "row_count": 0, "num_bytes": 0, "noop": True, "mode": "none",
                "n_events": 0}
    part_lake = Lake(lake_root)
    txn_hi = max(watermark, pc.max(events["txn_id"]).as_py())
    entry = parts.get(p)
    use_delta = (
        sink_mode == "delta"
        and entry is not None  # first write of a partition is its base
        and entry["n_deltas"] + 1 < compact_threshold
    )
    if use_delta:
        merged = lww_reduce(events)  # winners incl. tombstones, op kept
        mode = "delta"
    else:
        state = part_lake.read_state(
            p, files=[part_lake._ref(f) for f in entry["files"]] if entry else [])
        merged = merge_partition(events, state, target, watermark)
        mode = "rewrite"
    out = {"partition": p, "txn_hi": txn_hi, "row_count": len(merged),
           "num_bytes": merged.nbytes, "noop": False, "mode": mode,
           "n_events": n_events}
    if mode == "delta" and shared is not None:
        shared.append((out, merged))
    else:
        out.update(part_lake.write_staged(run_id, p, merged))
    if monitor is not None:
        monitor.beat.remote(p, "done")
    return out


class _AssignCombineFuse:
    """Per-block assign-partition → drop the events at or below their
    partition's watermark → LWW-combine, fused into the direct exchange's
    split step (see direct_exchange fuse_fn). Dropping applied events
    before the combine keeps them out of every winner's ``_cnt``, so the
    applied-event count is exact."""

    def __init__(self, num_partitions: int, watermarks: dict[int, int]):
        self.assign = AssignPartition(num_partitions)
        self.combine = BatchCombiner(counted=True)
        # -1 = virgin partition: even txn 0 (base-page bootstrap) is unapplied
        self.floor = np.array([watermarks.get(p, -1) for p in range(num_partitions)],
                              dtype=np.int64)

    def __call__(self, block: pa.Table) -> pa.Table:
        block = self.assign(block)
        if self.floor.max() >= 0:
            codes = block[PART_COL].combine_chunks().to_numpy(zero_copy_only=False)
            block = block.filter(pc.greater(block["txn_id"],
                                            pa.array(self.floor[codes])))
        return self.combine(block)


def _warn_if_backlog_exceeds_memory(nbytes: int, local: bool) -> None:
    """One replay pass holds its decoded input at once. Distributed, the
    exchange holds it in the object store, and a backlog much larger than
    the store spills to disk and collapses throughput ~10x (measured,
    BASELINE.md). In the driver, the held LWW winners — in a bootstrap,
    every base page — sit in the driver's heap (Ray's ``memory``
    resource), which cannot spill. Steer big backlogs to
    pipelines.tail.replay_chunked instead of degrading silently.
    ``nbytes`` is the pass's footer-known input."""
    import warnings

    where = "memory" if local else "object_store_memory"
    try:
        import ray

        budget = ray.available_resources().get(where, 0) or \
            ray.cluster_resources().get(where, 0)
    except Exception:  # Ray is not up: no budget to check against
        return
    if not budget:
        return
    # zstd parquet decodes to roughly 3-5x in Arrow; warn at ~1/8 of budget
    if nbytes * 4 > budget / 2:
        place = "the driver's memory" if local else "the object store"
        warnings.warn(
            f"replaying {nbytes >> 20} MiB in one pass may exceed {place} "
            f"({int(budget) >> 20} MiB); consider "
            "pipelines.tail.replay_chunked for bounded sub-epochs",
            stacklevel=3,
        )


def _pages_as_events(batch: pa.Table, target: pa.Schema) -> pa.Table:
    """Bootstrap: lift the base web-page table into the event stream at
    (txn_id=0, seq=0, op='I') — base state is just the oldest write."""
    n = len(batch)
    batch = batch.append_column("txn_id", pa.nulls(n, pa.int64()).fill_null(0))
    batch = batch.append_column("seq", pa.nulls(n, pa.int64()).fill_null(0))
    batch = batch.append_column("op", pa.nulls(n, pa.string()).fill_null(OP_INSERT))
    return align_table(batch, target)


def _event_dataset(streams, target: pa.Schema, dirty_dir, cfg: ReplayConfig):
    """Distributed executor's input: the streams as one Ray Dataset of
    validated, aligned events, throttled by a pool of limiter actors."""
    import ray.data

    ds = None
    for kind, src in streams:
        if kind == "pages":
            s = ray.data.read_parquet(src).map_batches(
                _pages_as_events, fn_kwargs={"target": target},
                batch_format="pyarrow")
        else:
            s = src.map_batches(Validate(dirty_dir), batch_format="pyarrow",
                                batch_size=cfg.batch_size)
            s = s.map_batches(lambda t, tgt=target: align_table(t, tgt),
                              batch_format="pyarrow", batch_size=cfg.batch_size)
        ds = s if ds is None else ds.union(s)

    if cfg.records_per_sec or cfg.bytes_per_sec:
        from ..stages.ratelimit import RateLimiter

        throttle_conc = 4  # global cap split across concurrent limiter actors
        ds = ds.map_batches(
            RateLimiter,
            fn_constructor_args=(
                cfg.records_per_sec / throttle_conc if cfg.records_per_sec else None,
                cfg.bytes_per_sec / throttle_conc if cfg.bytes_per_sec else None,
            ),
            batch_format="pyarrow", batch_size=THROTTLE_BATCH,
            concurrency=throttle_conc,
            num_cpus=0.25,  # limiter actors mostly sleep; reserving whole
            # CPUs would starve the read/merge tasks on small clusters
        )
    return ds


def _event_tables(streams, target: pa.Schema, dirty_dir, cfg: ReplayConfig):
    """In-process executor's input: the same stages as _event_dataset, run
    in the driver as the files are read — one table per WAL file
    (wal.read_events reads them lazily) and per row group of the base
    pages — and handed on in batches of at least ``cfg.batch_size`` rows
    (consecutive small tables joined, a larger one alone; None = one per
    table), so a few small WAL segments cost one combine and split while a
    backlog streams through with about one batch in flight. One limiter
    holds the full cap."""
    import pyarrow.parquet as pq

    limiter = None
    if cfg.records_per_sec or cfg.bytes_per_sec:
        from ..stages.ratelimit import RateLimiter

        limiter = RateLimiter(cfg.records_per_sec, cfg.bytes_per_sec)
    batch, rows = [], 0
    for kind, src in streams:
        if kind == "pages":
            pf = pq.ParquetFile(src)
            tables = (_pages_as_events(pf.read_row_group(i), target)
                      for i in range(pf.num_row_groups))
        else:
            validate = Validate(dirty_dir)
            tables = (align_table(validate(t), target) for t in src)
        for t in tables:
            if limiter is not None:
                for i in range(0, len(t), THROTTLE_BATCH):
                    limiter(t.slice(i, THROTTLE_BATCH))
            batch.append(t)
            rows += len(t)
            if rows >= (cfg.batch_size or 0):
                yield pa.concat_tables(batch, promote_options="permissive")
                batch, rows = [], 0
    if batch:
        yield pa.concat_tables(batch, promote_options="permissive")


def replay(
    events_dir,  # str dir (local or mocks3://, s3://) | list[EventFile] | None
    lake_dir: str,
    pages_path: str | None = None,
    cfg: ReplayConfig = ReplayConfig(),
) -> RunReport:
    """Replay all unapplied change events into the lake; resumable/idempotent.

    Can be called repeatedly (epochs, crash-resume, duplicate delivery): the
    snapshot's per-partition txn watermarks make every re-application a no-op.
    ``events_dir`` may also be an explicit list of wal.EventFile (the chunked
    backlog path) — every path in it must be visible cluster-wide.
    """
    started = time.perf_counter()
    run_id = uuid.uuid4().hex[:12]
    report = RunReport(run_id=run_id)
    lake = Lake(lake_dir)
    _tune_read_parallelism()
    # per-run dirty subdir: epochs re-validate unpruned WAL files, so a
    # shared dir would double-count the same bad rows across runs and trip
    # the budget on clean data (the budget is a per-job contract)
    dirty_dir = os.path.join(cfg.dirty_dir, run_id) if cfg.dirty_dir else None

    bootstrap = not lake.exists()
    # an epoch reads _meta.json once and the snapshot once: the lake's
    # layout cache keeps the meta, and the commit takes the snapshot
    meta, snap = None, None
    if not bootstrap:
        meta = lake._meta_cached()
        lake.validate_partitioner(meta)
        from .maintenance import sweep_staging

        # GC staging orphans from crashed runs. 24h grace: the lake is
        # single-writer by design, but a generous window also protects any
        # long compaction that does run concurrently by mistake
        sweep_staging(lake.root, max_age_sec=24 * 3600)
        if meta["num_partitions"] != cfg.num_partitions:
            raise RuntimeError(
                f"lake has {meta['num_partitions']} partitions, config asks "
                f"{cfg.num_partitions}; re-bucket the live lake first with "
                "Lake.evolve_partitions(new_p) (recorded epoch "
                "boundary), or rewrite offline via maintenance.repartition_lake"
            )
        snap = lake.snapshot()

    parts = entries(snap)
    watermarks = {p: e["txn_hi"] for p, e in parts.items()}
    low = global_low_watermark(watermarks, cfg.num_partitions) if not bootstrap else 0
    if not bootstrap and pages_path is None \
            and len(watermarks) < cfg.num_partitions:
        # crash-safe bootstrap resume: if a prior run died before every
        # partition committed, fold the recorded base pages back in
        pages_path = meta.get("bootstrap_pages")
    include_pages = pages_path is not None and (
        bootstrap or len(watermarks) < cfg.num_partitions
    )

    # ---- source(s), and the executor sized to them (module docstring) ----
    streams = []  # ("events", Dataset | Table) | ("pages", path)
    schemas = []
    rows_hint = 0
    txn_hi_run = low
    # resolve the source ONCE (a dir path — local or object-store — or a
    # pre-scanned cluster-visible file list from replay_chunked)
    ev_files = ([] if events_dir is None
                else wal.prune_files(wal.resolve_files(events_dir), low))
    input_bytes = sum(f.nbytes for f in ev_files)  # footer-known sizes
    if include_pages:
        import pyarrow.parquet as pq

        md = pq.read_metadata(pages_path)
        rows_hint += md.num_rows
        input_bytes += sum(md.row_group(i).column(j).total_compressed_size
                           for i in range(md.num_row_groups)
                           for j in range(md.num_columns))
    local = in_driver(input_bytes)
    report.executor = "local" if local else "distributed"
    report.input_bytes = input_bytes
    from ..state.manifest import LOCAL_INPUT_BYTES  # read at call time

    if input_bytes > LOCAL_INPUT_BYTES:
        _warn_if_backlog_exceeds_memory(input_bytes, local)
    if events_dir is not None:
        ev, ev_schema, n, txn_hi_run = wal.read_events(
            ev_files, low_watermark=low, in_process=local)
        if ev is not None:
            streams.append(("events", ev))
            schemas.append(ev_schema)
            rows_hint += n
    if include_pages:
        page_schema = pq.read_schema(pages_path)
        schemas.append(pa.schema(list(page_schema) + [pa.field(n, t) for n, t in META_FIELDS]))
        streams.append(("pages", pages_path))

    if bootstrap:
        target = unify(schemas) if schemas else None
        if target is None:
            raise ValueError("nothing to replay: no events and no pages")
        lake.init(cfg.num_partitions, target, pages_path=pages_path,
                  history=cfg.history)
    else:
        schema = lake.event_schema(meta)
        target = unify([schema] + schemas) if schemas else None
        if target is None or not streams:
            return report.finish(started)  # fully caught up
        if not target.equals(schema):
            lake.evolve_schema(target, meta)  # additive, safe pre-commit

    events = (_event_tables if local else _event_dataset)(
        streams, target, dirty_dir, cfg)

    lake_root, wm, tgt = lake.root, dict(watermarks), target
    watchdog = None
    if cfg.stall_timeout_sec:
        from ..state.watchdog import Watchdog

        watchdog = Watchdog(cfg.stall_timeout_sec)
        watchdog.start()
    # in the driver the epoch's deltas go to one shared L0 file; merge
    # tasks write their own partition's file
    shared = [] if local else None
    merge_kwargs = dict(lake_root=lake_root, run_id=run_id, wm=wm, parts=parts,
                        target=tgt, sink_mode=cfg.sink_mode,
                        compact_threshold=cfg.compact_threshold,
                        monitor=watchdog.monitor if watchdog else None,
                        shared=shared)

    # assign + combine run INSIDE the exchange's split step (no separate
    # map stage, one less plasma round-trip per block); in the driver the
    # same combiner folds each partition's buffered slices. direct_exchange
    # and _merge_tables are looked up at call time so they can be wrapped
    from ..stages.exchange import direct_exchange

    fuse = _AssignCombineFuse(cfg.num_partitions, wm)
    with read_once():  # inline compactions read each L0 file once
        meta_rows = direct_exchange(events, cfg.num_partitions, _merge_tables,
                                    merge_kwargs, fuse_fn=fuse,
                                    fold_fn=fuse.combine)
    if shared:
        for (m, _), staged in zip(shared, lake.write_staged_shared(
                run_id, [(m["partition"], t) for m, t in shared])):
            m.update(staged)

    if watchdog is not None:
        watchdog.stop()
        report.stalled_partitions = watchdog.stalled()

    # ---- error budget (before commit: a failed budget aborts cleanly) ----
    n_dirty = 0
    if dirty_dir is not None:
        n_dirty = check_budget(dirty_dir, rows_hint, cfg.error_limit)
    report.total_error_records = n_dirty
    # applied count from the merge side (sum of the source events above
    # each partition's watermark, carried in _cnt) — the footer rows hint
    # re-counted every row of every re-read file on incremental epochs
    report.read_succeed_records = sum(int(m["n_events"]) for m in meta_rows)

    # ---- exactly-once commit: the whole epoch as one snapshot ----
    # every partition provably applied all files up to txn_hi_run (events are
    # globally txn-ordered and the run read every file above the low
    # watermark) — advance ALL watermarks to it in the same snapshot so they
    # stay uniform: the global low watermark (file pruning, bootstrap
    # completion) moves, and an empty hash bucket cannot pin it forever
    committed_hi = {int(m["partition"]): int(m["txn_hi"]) for m in meta_rows}
    # cap the advance at the max txn actually APPLIED from valid events: a
    # corrupt/outlier txn_id in a file footer could otherwise poison every
    # watermark and silently skip all future legitimate events
    max_applied = max(committed_hi.values(), default=low)
    advance_to = min(txn_hi_run, max_applied)
    staged = [m for m in meta_rows if not m["noop"]]
    if staged or advance_to > low:
        status = lake.commit(staged, run_id,
                             advance_to if advance_to > low else None,
                             base=snap)
        for m, st in zip(staged, status):
            if st == "committed":
                report.partitions_committed += 1
                report.write_succeed_records += int(m["row_count"])
                report.txn_hi = max(report.txn_hi, int(m["txn_hi"]))
            else:
                report.partitions_skipped += 1
    if advance_to > low:
        report.partition_lag = {
            p: max(committed_hi.get(p, wm.get(p, -1)), advance_to)
            for p in range(cfg.num_partitions)}
    else:
        report.partition_lag.update(committed_hi)
    lake.cleanup_staging(run_id)
    report.finish(started)
    report.write(lake.root)
    return report
