"""dataxray — a from-scratch Ray-Data-native CDC / incremental-ingest engine.

Re-expresses the capabilities of fenquen/DataX (reader -> transformer chain ->
writer sync pipelines with speed control, dirty-data budgets, key-ranged
splitting, upsert writers, shard/checkpoint change-stream replay) as idiomatic
Ray Data: ``ray.data.Dataset`` pipelines of ``map_batches`` over zero-copy
Arrow batches, url-hash key-partitioned shuffle into a last-writer-wins merge,
and an idempotent exactly-once Parquet-lake sink with one table snapshot per commit
and monotonic transaction ids.

Layout:
  dataxray.schema     — Arrow schemas for pages / change events (ref: Record.java, Column.java)
  dataxray.hashing    — stable vectorized key hashing for partition assignment
  dataxray.gen        — deterministic synthetic pages + change-log generator (ref: StreamReader.java)
  dataxray.sources    — WAL-tail reader with txn watermarks + schema unification (ref: otsstreamreader)
  dataxray.stages     — decode/validate, partition assignment, direct exchange, LWW merge stages
  dataxray.state      — lake layout, snapshots, exactly-once commit, checkpoints (ref: HdfsWriter tmp+rename, StarRocks labels)
  dataxray.pipelines  — end-to-end replay + report pipelines
  dataxray.functions  — dx_* transform library, UDF registry, text/dedup/similarity ops
  dataxray.errors     — dirty-record side channel + error budget (ref: ErrorRecordChecker.java)
"""

__version__ = "0.1.0"

# --- intra-op thread capping -------------------------------------------------
# Ray schedules one task per CPU, but pyarrow and polars each default their
# internal pools to os.cpu_count() PER WORKER PROCESS: 32 concurrent tasks x
# 32 threads = ~1000 runnable threads during parquet decode / hashing, which
# measured as 2-5x wall-time swings run to run. Tasks are the parallelism
# unit here, so intra-op pools get capped small. setdefault keeps user
# overrides; POLARS_MAX_THREADS must be set before polars is first imported.
import os as _os

_os.environ.setdefault("POLARS_MAX_THREADS", "2")
try:
    import pyarrow as _pa

    if _pa.cpu_count() > 4:
        _pa.set_cpu_count(2)
        _pa.set_io_thread_count(2)
except Exception:  # pragma: no cover
    pass
