"""Lake maintenance operations: repartitioning, staging GC and snapshot
export.

Repartitioning changes the url-hash partition count of an existing lake —
the one structural change ``replay()`` refuses to do implicitly (a silent
P change would mis-route every subsequent event). It is a full resolved
read → re-hash → rewrite into a NEW lake root (never in place: readers of
the old root stay consistent; cut-over is a path swap, like the
reference's preSql table-swap pattern, WriterUtil.renderPreOrPostSqls).
The re-hash is ``Lake._rehash``, the one behind ``evolve_partitions``;
export runs one ``_read_job`` per partition through
``run_partition_jobs``. Both run in the driver or as Ray tasks by the
lake's one executor rule (``in_driver``) and start no task of their own.
"""

from __future__ import annotations

import os
import time
import uuid

from ..state.manifest import Lake, entries


def repartition_lake(src_root: str, dest_root: str, new_num_partitions: int) -> dict:
    """Rewrite a lake under a different partition count. Returns summary."""
    src = Lake(src_root)
    src.validate_partitioner()
    dest = Lake(dest_root)
    if dest.exists():
        raise FileExistsError(f"destination lake {dest_root} already exists")
    dest.init(new_num_partitions, src.event_schema())
    run_id = uuid.uuid4().hex[:12]
    snap = src.snapshot()
    files = src._files(snap)
    # destination watermark must be the MIN across source partitions: a
    # lagging source partition may still have unapplied WAL events below the
    # max, and stamping max would make future replays skip them silently
    txn_hi = min((e["txn_hi"] for e in entries(snap).values()), default=0)
    metas = src._rehash(
        sorted(files), lambda p: src.resolve(p, files=files[p]),
        new_num_partitions,
        lambda q, t: None if t is None else dest.write_staged(run_id, q, t),
        src._in_driver(f for fs_ in files.values() for f in fs_))
    committed = dest.commit(
        [{**m, "txn_hi": txn_hi, "mode": "rewrite"} for m in metas if m is not None],
        run_id).count("committed")
    dest.cleanup_staging(run_id)
    return {"partitions_committed": committed, "txn_hi": txn_hi,
            "num_partitions": new_num_partitions}


def sweep_staging(lake_root: str, max_age_sec: float = 3600.0) -> int:
    """Remove orphaned staging dirs left by crashed runs (their commits never
    finished, so the files are dead weight), and with them the data files
    such a run finalized or superseded that no snapshot references
    (Lake.remove_orphans). A run's staging is the last thing its commit
    removes, so every crash mid-commit leaves one, on an object store too
    (Lake.commit keeps the staged objects until then). Age-gated so a
    concurrently running replay's staging and files survive. Returns the
    staging dirs removed."""
    from ..state import lakefs

    fs, base = lakefs.resolve(lake_root)
    staging = os.path.join(base, "_staging")
    removed = 0
    now = time.time()
    for name in fs.list_names(staging):
        d = os.path.join(staging, name)
        try:
            m = fs.mtime(d)  # an S3 prefix: its newest object's
            # unknown mtime must NOT read as "infinitely old" — that would
            # sweep a concurrently running replay's live staging. Skip.
            if m > 0 and now - m > max_age_sec:
                fs.delete_tree(d)
                removed += 1
        except FileNotFoundError:  # pragma: no cover
            continue
    lake = Lake(lake_root)
    if removed and lake.exists():
        lake.remove_orphans(max_age_sec)
    return removed


def export_snapshot(lake_dir: str, dest_dir: str,
                    columns: list[str] | None = None,
                    predicate=None, as_of_txn: int | None = None,
                    compression: str = "zstd") -> dict:
    """RESUMABLE snapshot export (CTAS): write the lake's resolved state as
    plain partitioned parquet under ``dest_dir`` (a local path or an
    object-store root, written through state.lakefs) — one
    ``part-{p:05d}.parquet`` + ``_done-{p:05d}`` marker per committed lake
    bucket, each bucket one partition job (run_partition_jobs: in the
    driver or as Ray tasks, by in_driver on the projected input).

    Resumability is per partition: a marker is written only AFTER its file
    is finalized under its key, so a crashed export re-runs only the
    unmarked buckets (verified by the crash test). Never one giant file;
    a 100 TB export is P independent jobs any of which can retry.
    Column projection and the post-LWW predicate ride the same
    per-partition read as Lake.dataset (``_read_job``). Returns
    {written, skipped, rows}."""
    from ..state import lakefs
    from ..state.manifest import _read_columns, _read_job, run_partition_jobs
    from ..state.predicate import normalize

    lake = Lake(lake_dir)
    fs, base = lakefs.resolve(dest_dir)
    fs.makedirs(base)
    pred = normalize(predicate)
    conjuncts = pred.conjuncts if pred is not None else []
    files = lake._snapshot_files(as_of_txn)
    schema = lake._state_schema(lake.meta())

    def export_one(p: int, part_files: list[str]) -> tuple[int, int]:
        done = os.path.join(base, f"_done-{p:05d}")
        if fs.exists(done):
            return 0, 0
        t = _read_job(lake, p, part_files, columns, conjuncts, None, schema)
        out = os.path.join(base, f"part-{p:05d}.parquet")
        fs.write_parquet(t, out + ".tmp", compression)
        fs.finalize(out + ".tmp", out)
        fs.put_json(done, {"rows": len(t)})
        return 1, len(t)

    local = lake._in_driver((f for fs_ in files.values() for f in fs_),
                            _read_columns(columns, conjuncts))
    results = run_partition_jobs(export_one, list(files.items()), local)
    written = sum(w for w, _ in results)
    return {"written": written, "skipped": len(files) - written,
            "rows": sum(r for _, r in results)}
