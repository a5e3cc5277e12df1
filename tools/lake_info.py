"""Lake inspection CLI: snapshot, partitions, watermarks, distinct data
files (shared L0 and per-partition), delta depth, rows, bytes, each
partition's compaction state, recent runs — the operational visibility
surface (counters/logStatistics analog, JobContainer.logStatistics:538-593).

Usage: python tools/lake_info.py /path/to/lake [--runs N] [--compact]
       [--lag /path/to/events_dir]
       (--compact resolves all delta-bearing partitions in place;
        --lag prints replication lag vs a WAL directory — metadata only)
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from dataxray.state.manifest import Lake, entries, rewrites_base  # noqa: E402


def main() -> None:
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(2)
    root = sys.argv[1]
    lake = Lake(root)
    if not lake.exists():
        print(f"no lake at {root}")
        sys.exit(1)
    if "--compact" in sys.argv:
        import ray

        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
        n = lake.compact_all()
        print(f"compacted {n} partitions")
        ray.shutdown()
    meta = lake.meta()
    snap = lake.snapshot()
    parts = entries(snap)
    print(f"lake: {root}")
    print(f"partitioner: {meta['partitioner']}  partitions: {meta['num_partitions']}"
          f"  committed: {len(parts)}")
    if meta.get("generation"):
        epochs = meta.get("partition_epochs", [])
        print(f"generation: {meta['generation']}  evolution epochs: "
              + "; ".join(f"g{e['generation']}: P {e.get('prev_num_partitions')}"
                          f"->{e['num_partitions']} @txn {e['boundary_txn']}"
                          for e in epochs))
    if snap is not None:
        print(f"snapshot: version {snap['version']}  high-water txn "
              f"{snap['txn_hi']}  run {snap['run_id']}")
    if meta.get("history"):
        print(f"history: {len(lake._history())} retained snapshots "
              "(time travel on)")
    print(f"event schema: {lake.event_schema().names}")
    wm = [e["txn_hi"] for e in parts.values()]
    lo, hi = min(wm, default=None), max(wm, default=None)
    print(f"txn watermark: low={lo} high={hi}  (lag spread {0 if lo is None else hi - lo})")
    if "--lag" in sys.argv:
        from dataxray.pipelines.tail import lag as wal_lag

        events_dir = sys.argv[sys.argv.index("--lag") + 1]
        r = wal_lag(events_dir, root)
        print(f"replication lag vs {events_dir}: txn_lag={r.txn_lag} "
              f"(wal_hi={r.wal_txn_hi} applied_low={r.applied_txn_low}) "
              f"pending_files={r.pending_files} "
              f"pending_rows<=~{r.pending_rows_hint:,} "
              f"partitions_skewed={r.partitions_skewed}")
    files = lake.all_files()  # each live data file once
    l0 = [f for f in files if os.path.basename(f).startswith("l0-")]
    print(f"data files: {len(files)} ({len(l0)} shared L0, "
          f"{len(files) - len(l0)} per-partition)  "
          f"on-disk bytes: {sum(map(lake.fs.size, files)):,}")
    print(f"refs: {sum(len(e['files']) for e in parts.values())}  "
          f"delta refs: {sum(e['n_deltas'] for e in parts.values())}  "
          f"delta bytes: {sum(map(lake._delta_bytes, parts.values())):,}  "
          f"last-commit rows: {sum(e['row_count'] for e in parts.values()):,}")
    # what the epoch whose delta reaches compact_threshold does: merge the
    # deltas into one, or rewrite the base (their bytes reach 1/SIZE_RATIO
    # of the base's)
    print("compaction state (base bytes, delta bytes, deltas, at the threshold):")
    for p, e in sorted(parts.items()):
        print(f"  part {p:5d}: base {e.get('base_bytes', 0):>12,}  "
              f"deltas {lake._delta_bytes(e):>12,} in {e['n_deltas']:3d}  "
              + ("rewrite base" if rewrites_base(e) else "merge deltas"))
    runs_dir = os.path.join(lake.base, "_runs")
    if lake.fs.isdir(runs_dir):
        runs = sorted(lake.fs.list_names(runs_dir),
                      key=lambda f: lake.fs.mtime(os.path.join(runs_dir, f)))
        n = int(sys.argv[sys.argv.index("--runs") + 1]) if "--runs" in sys.argv else 3
        print(f"runs ({len(runs)} total, last {min(n, len(runs))}):")
        for f in runs[-n:]:
            r = lake.fs.read_json(os.path.join(runs_dir, f))
            print(f"  {r['run_id']}: read={r['read_succeed_records']:,} "
                  f"wrote={r['write_succeed_records']:,} "
                  f"committed={r['partitions_committed']} txn_hi={r['txn_hi']} "
                  f"{r['record_speed']:,.0f} ev/s  dirty={r['total_error_records']}  "
                  f"executor={r.get('executor') or '?'} "
                  f"input={r.get('input_bytes', 0):,} B")


if __name__ == "__main__":
    main()
