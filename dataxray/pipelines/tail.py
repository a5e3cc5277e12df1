"""Continuous WAL tailing: poll the event-log directory and replay each new
epoch as it lands — the literal binlog/WAL-tail mode (otsstreamreader's
bounded time-window export, looped: each poll is one bounded replay with
resumable per-partition watermarks; between polls the lake is a consistent
committed snapshot).

Termination: after ``idle_polls`` consecutive polls with no new events
(bounded-tail semantics for batch jobs / tests), or ``max_epochs`` applied
epochs, whichever first. A long-lived service passes float('inf')/None.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..state.checkpoint import RunReport
from .replay import ReplayConfig, replay


def replay_chunked(
    events_dir: str,
    lake_dir: str,
    pages_path: str | None = None,
    cfg: ReplayConfig = ReplayConfig(),
    max_chunk_bytes: int = 2 << 30,
) -> list[RunReport]:
    """Replay a large backlog in bounded sub-epochs of ≤ max_chunk_bytes of
    compressed WAL per pass.

    Why: one replay's sort shuffle holds the whole pass's decoded event data
    in the object store at once; a 10^10-event backlog would spill (measured:
    a 50M-event single pass spills and runs minutes instead of seconds).
    Chunking caps in-flight bytes at a budget that fits memory, and the
    per-partition watermarks make the chunk sequence exactly-once/resumable —
    a crash mid-backlog resumes at the next chunk. Pair with
    cfg.sink_mode="delta" so each chunk appends O(chunk) instead of
    rewriting partition state per pass.

    Cluster-safe: each chunk is passed to replay() as its real EventFile
    list (original storage paths every worker node can open) — never a
    driver-local staging/symlink directory, which would only exist on the
    driver's filesystem. Works over local dirs and mocks3:///s3:// prefixes.
    """
    from ..sources.wal import prune_files, scan_event_files
    from ..state.checkpoint import global_low_watermark
    from ..state.manifest import Lake

    lake = Lake(lake_dir)
    low = 0
    if lake.exists():
        low = global_low_watermark(lake.watermarks(), lake.num_partitions())
    files = prune_files(scan_event_files(events_dir), low)
    files = sorted(files, key=lambda f: (f.txn_lo, f.path))
    if not files:
        # nothing to chunk — delegate (handles the pages-only bootstrap and
        # the fully-caught-up no-op exactly like a plain replay)
        return [replay(events_dir, lake_dir, pages_path=pages_path, cfg=cfg)]

    # Group files whose txn ranges overlap into one unit BEFORE sizing chunks:
    # a transaction split across files must never straddle a chunk boundary —
    # chunk i's uniform watermark advance would make chunk i+1 filter the
    # txn's later rows as already-applied (silent event loss). Within a chunk
    # the overlap is safe: replay()'s own txn_aligned check sees it and
    # disables that chunk's uniform advance, while per-partition commits still
    # see every row of the txn together.
    units: list[tuple[list, int]] = []  # (files, range txn_hi)
    for f in files:
        if units and f.txn_lo <= units[-1][1]:
            units[-1][0].append(f)
            units[-1] = (units[-1][0], max(units[-1][1], f.txn_hi))
        else:
            units.append(([f], f.txn_hi))

    chunks: list[list] = [[]]
    size = 0
    for unit, _hi in units:
        usize = sum(f.nbytes for f in unit)
        if chunks[-1] and size + usize > max_chunk_bytes:
            chunks.append([])
            size = 0
        chunks[-1].extend(unit)  # an oversize unit still stays whole
        size += usize

    reports = []
    first_chunk = True
    for chunk in chunks:
        if not chunk:
            continue
        reports.append(replay(chunk, lake_dir,
                              pages_path=pages_path if first_chunk else None,
                              cfg=cfg))
        first_chunk = False
    return reports


@dataclass
class TailReport:
    epochs_applied: int = 0
    events_applied: int = 0
    polls: int = 0
    compactions: int = 0  # streaming compactions (compact_over_bytes)
    runs: list = field(default_factory=list)


def tail_replay(
    events_dir: str,
    lake_dir: str,
    pages_path: str | None = None,
    cfg: ReplayConfig = ReplayConfig(),
    poll_sec: float = 0.5,
    idle_polls: int = 3,
    max_epochs: int | None = None,
    compact_over_bytes: int | None = None,
    maintain_views: list | None = None,
) -> TailReport:
    """Tail ``events_dir`` until idle. Every poll that finds unapplied txns
    runs one exactly-once replay epoch; crashes mid-tail resume exactly like
    any replay (snapshot watermarks).

    compact_over_bytes enables STREAMING compaction for delta-mode sinks:
    between epochs, partitions whose accumulated delta volume crosses the
    threshold are compacted (distributed, one task each) — churn-driven
    maintenance interleaved with ingest, instead of a separate offline pass.
    Compaction is label-safe (same txn_hi), so a crash mid-compact resumes
    like any other run.

    maintain_views: derived views (pipelines.derive.MaterializedGroupStats
    or anything with .refresh()) refreshed after every committed epoch —
    each refresh applies only that epoch's change feed (O(changed keys)),
    so downstream aggregates stay current at ingest cadence. Requires a
    history=True lake (the feed diffs retained snapshots); refresh is
    idempotent/label-safe, so a crash between commit and refresh just
    re-refreshes next epoch."""
    from ..state.manifest import Lake

    report = TailReport()
    idle = 0
    first = True
    while idle < idle_polls:
        if max_epochs is not None and report.epochs_applied >= max_epochs:
            break
        rep: RunReport = replay(
            events_dir, lake_dir,
            pages_path=pages_path if first else None,
            cfg=cfg,
        )
        first = False
        report.polls += 1
        if rep.partitions_committed > 0:
            report.epochs_applied += 1
            report.events_applied += rep.read_succeed_records
            report.runs.append(rep.run_id)
            idle = 0
            if compact_over_bytes is not None:
                report.compactions += Lake(lake_dir).compact_all(
                    min_delta_bytes=compact_over_bytes)
            for v in maintain_views or []:
                v.refresh()
        else:
            idle += 1
            if idle < idle_polls:
                time.sleep(poll_sec)
    return report


@dataclass
class LagReport:
    """Consumer-lag snapshot for a lake tailing a WAL (the Kafka-consumer-
    offset analog: how far behind the committed snapshot is)."""
    wal_txn_hi: int         # newest transaction visible in the event log
    applied_txn_low: int    # lowest per-partition applied watermark
    applied_txn_high: int   # highest per-partition applied watermark
    txn_lag: int            # wal_txn_hi - applied_txn_low (0 = caught up)
    pending_files: int      # event files with rows above the low watermark
    pending_rows_hint: int  # footer row-count sum of those files (upper
    #                         bound: a pending file may be partially applied)
    partitions_skewed: int  # partitions whose watermark < applied_txn_high


def lag(events_dir: str, lake_dir: str) -> LagReport:
    """Measure replication lag WITHOUT reading event data: the WAL side is
    a footer-only scan (txn ranges + row counts per file), the lake side is
    the snapshot's watermark map — both metadata-sized at any data scale.
    The north-star throughput/lag metric a long-running tail service
    exports between polls."""
    from ..sources.wal import prune_files, scan_event_files
    from ..state.checkpoint import global_low_watermark
    from ..state.manifest import Lake

    files = scan_event_files(events_dir)
    wal_hi = max((f.txn_hi for f in files), default=-1)
    lake = Lake(lake_dir)
    if lake.exists():
        wm = lake.watermarks()
        low = global_low_watermark(wm, lake.num_partitions())
        high = max(wm.values(), default=-1)
        skew = sum(1 for v in wm.values() if v < high)
        if len(wm) < lake.num_partitions():
            skew += lake.num_partitions() - len(wm)
    else:
        low, high, skew = -1, -1, 0
    pending = prune_files(files, low)
    return LagReport(
        wal_txn_hi=wal_hi,
        applied_txn_low=low,
        applied_txn_high=high,
        txn_lag=max(wal_hi - low, 0),
        pending_files=len(pending),
        pending_rows_hint=sum(f.num_rows for f in pending),
        partitions_skewed=skew,
    )
