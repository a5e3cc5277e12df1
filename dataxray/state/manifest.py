"""Parquet-lake layout + exactly-once commits, one table snapshot per epoch.

Commit protocol, composed from the two idempotency patterns in the reference:
  * hdfswriter: tasks write to a temp/uuid dir, the job's ``post()`` renames
    files into place atomically (HdfsWriter.java:196,293-326);
  * starrockswriter: every flushed batch carries a *label* and a re-sent label
    is recognized and skipped (StarRocksWriterManager.java:33-143, label :52).

Here: an epoch's merges write their new state into the run's one staging
directory ``_staging/<run_id>/`` under uuid names (task retries collide on
nothing), and the driver commits the whole epoch at once (Lake.commit) —
every partition it wrote plus the watermark advance of the rest — in these
steps, each a named ``failpoint``:

  staged    (in the merge, or once for the driver's shared L0 file) a
            staged file is written;
  finalize  each staged file is moved, once however many partitions refer
            to it, to ``part=<p>/txn=<txn_hi>/`` (a one-partition file) or
            ``l0/txn=<txn_hi>/`` (a delta epoch's shared L0 file);
  snapshot  one PUT of the table's new snapshot to ``_snapshot-g<gen>.json``
            — THE commit point: a reader sees all of an epoch or none of it;
  history   history lakes: one PUT of the same snapshot, immutable, under
            ``_snapshots/`` (time travel);
  gc        lakes without history: delete exactly the files the previous
            snapshot referenced and the new one does not;
  cleanup   the run's staging directory is removed.

The label is ``(partition, txn_hi)`` with **monotonic txn ids**: an entry
whose txn_hi is at or below its partition's in the current snapshot is a
recognized replay — skipped, and its staged file deleted unless an entry
that commits refers to it too — so re-running a committed batch changes
nothing. A crash before the snapshot PUT leaves the
previous snapshot current; the files it had already finalized are orphans,
as are the superseded files of a crash before the GC. Either crash leaves
the run's staging directory, which is removed last (on an object store the
staged objects are copied at finalize and deleted only then, so the prefix
outlives every earlier step); the next sweep_staging removes it and, with
it, every file no retained snapshot references (pipelines/maintenance.py).

Layout (format 3):
    lake/
      _meta.json                   format, partitioner id, P, event schema
                                   (b64 Arrow), history flag, generation
      _snapshot-g0000.json         the current snapshot: {version, generation,
                                   txn_hi, run_id, partitions: [{files,
                                   n_deltas, txn_hi, data_txn, ...} | null]}
      _snapshots/v0000000007-t00000000000000000042.json
                                   history lakes: every committed snapshot
                                   (version, then txn_hi: one LIST finds the
                                   newest one at or before a txn)
      _staging/<run_id>/part-00007-<uuid>.parquet | l0-<uuid>.parquet
      part=00007/txn=0000000042/part-00007-<uuid>.parquet
      l0/txn=0000000042/l0-<uuid>.parquet
      (generation k > 0: g000k-part=00007/…, g000k-l0/…)

Per partition the snapshot records its file refs (base first, then
deltas), ``n_deltas``, ``txn_hi`` (its applied watermark) and ``data_txn``
(the txn_hi of its last data write: which partitions changed after a txn).
A ref is a lake-relative path (the whole file: a base file, or a
distributed merge's one-partition delta as ``{path, bytes}``) or a slice
of a shared L0 file, ``{path, bytes, skip, rows[, rg][, until]}``: ``rows``
rows from row ``skip`` of the file, or of its row groups ``rg`` = [first,
end) when it has several, ``bytes`` the slice's share of the file's size
and ``until`` the last partition whose slice shares its row groups.

The L0 file is the LSM shape (O'Neil et al. 1996): a delta epoch run in the
driver writes its partitions' LWW winners as ONE file sorted by partition,
small slices packed into row groups of up to ROW_GROUP_ROWS rows and a
larger slice in row groups of its own; rewrites and compactions write one
base file per partition, so compaction turns L0 slices into L1 base files.
Garbage collection is a file-set difference of snapshots, so an L0 file
dies with the last partition that refers to it. Reads of a shared file go
through read_once: within one read call each (file, row groups, columns)
is decoded once, whatever the number of partitions that refer to it.
Format 2 (one file per partition and delta) and format 1 are refused.

Storage is abstracted behind ``state.lakefs``: a plain path commits via
atomic rename (local/HDFS semantics); a ``mocks3://`` / ``s3://`` root runs
the SAME protocol with object-store semantics only — staged-object PUT,
server-side copy to finalize (the staged object deleted at cleanup),
single-object snapshot PUT as the commit point, no rename anywhere
(lakefs.ObjectLakeFS).
"""

from __future__ import annotations

import base64
import contextlib
import contextvars
import os
import time
import uuid
from typing import NamedTuple

import pyarrow as pa

from ..hashing import partitioner_id
from ..schema import unify
from . import lakefs

META = "_meta.json"
SNAPSHOTS = "_snapshots"
STAGING = "_staging"
# _meta.json "format": 3 = one table snapshot per commit, a delta epoch's
# slices in one shared L0 file. Format 2 (one file per partition and
# delta) and format 1 (no field: one manifest per partition under
# _manifests/) are refused.
FORMAT = 3
# rows per row group of a shared L0 file: small slices are packed up to it,
# and a larger slice gets row groups of its own, so its partition's reads
# decode only those
ROW_GROUP_ROWS = 1 << 16
_CURRENT = object()  # Lake.commit's default base: read the current snapshot


class Slice(NamedTuple):
    """A partition's rows in a shared L0 file (module docstring): ``rows``
    rows from row ``skip`` of the file's row groups ``rg`` (all when None);
    ``until`` is the last partition whose slice shares those row groups.
    A whole-file ref is a plain path string."""
    path: str
    skip: int
    rows: int
    rg: tuple[int, int] | None = None
    until: int | None = None


def ref_path(ref) -> str:
    """The data file a ref (a path or a Slice) reads."""
    return ref if isinstance(ref, str) else ref.path


class _ReadMemo:
    """Decoded (file, row groups, columns) of one read call (read_once).
    Partitions are read in ascending order, so an entry is kept while the
    partition being read lies between the first one that read it and the
    last one that shares it (``until``); a partition's own files are
    dropped when the next partition starts."""

    def __init__(self):
        self.p: int | None = None
        self.tables: dict[tuple, tuple[pa.Table, int, int]] = {}

    def get(self, p: int, key: tuple, until: int | None, read) -> pa.Table:
        if p != self.p:
            self.p = p
            self.tables = {k: v for k, v in self.tables.items()
                           if v[1] <= p <= v[2]}
        hit = self.tables.get(key)
        if hit is None:
            hit = self.tables[key] = (read(), p, max(p, until or p))
        return hit[0]


_MEMO: contextvars.ContextVar[_ReadMemo | None] = contextvars.ContextVar(
    "dataxray_read_memo", default=None)


@contextlib.contextmanager
def read_once():
    """Scope of one read call (a lookup, scan, change feed, compaction,
    re-hash or a replay's merges; with the task executor, one task's share
    of them): inside it Lake.read_state_raw decodes each (file, row groups,
    columns) at most once, so the partitions that share an L0 file read it
    once between them. Nested scopes share the outer memo; it lives in a
    context variable, so it is never pickled into a task, and it is dropped
    when the outermost scope exits. Data files are immutable (uuid names),
    so a memo can never serve stale rows."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set(_ReadMemo())
    try:
        yield
    finally:
        _MEMO.reset(token)


def failpoint(name: str) -> None:
    """A named step of the commit protocol (module docstring): "staged",
    "finalize", "snapshot", "history", "gc" or "cleanup". Does nothing;
    crash-point and torn-read tests replace it to stop or observe a commit
    right after that step."""


def entries(snap: dict | None) -> dict[int, dict]:
    """A snapshot's committed partitions (none for None), by partition."""
    if snap is None:
        return {}
    return {p: e for p, e in enumerate(snap["partitions"]) if e is not None}


def one_layout(lake: Lake, old: dict | None, new: dict | None) -> None:
    """Raise unless snapshots ``old`` and ``new`` bucket urls alike (the
    same generation; no snapshot is empty in any layout): a partition's
    diff between them is meaningless across a partition evolution."""
    if old is not None and new is not None \
            and old["generation"] != new["generation"]:
        raise ValueError(
            "partition_changes cannot diff across a partition-evolution "
            "boundary (partition ids change meaning); use Lake.changes()"
            f" (epochs: {lake.partition_epochs()})")


def _schema_to_b64(schema: pa.Schema) -> str:
    return base64.b64encode(schema.serialize().to_pybytes()).decode()


def _schema_from_b64(s: str) -> pa.Schema:
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(s)))


# ---------- partition jobs: one runner, sized to the work ----------
# The one executor rule (in_driver) for every path that runs partition
# work: replay epochs (pipelines/replay.py), scans, lookups, change feeds,
# compactions, re-hashes, and the lake's consumers (co-partitioned joins
# and join views, repartition and export). Work runs in the driver process
# when its footer-known input (the compressed bytes of the columns it will
# read) is at most LOCAL_INPUT_BYTES, or when no two tasks could run at
# once: Ray is not up, or the cluster has at most one CPU. Otherwise it is
# distributed.
#
# The byte cutoff, one Ray CPU of a shared cloud VM, 3 runs each. Write
# path, one post-bootstrap delta epoch on a 14k-url, P = 32 lake: 40 KB
# took 0.14-0.19 s in the driver vs 0.33-0.41 s distributed, 0.76 MB
# 0.17-0.20 vs 0.41-0.46 s, 3 MB 0.26-0.28 vs 1.7-1.9 s. Read path: a
# predicate scan of a 32-partition delta lake over 0.25 MB of projected
# input took 0.14-0.24 s in the driver vs 0.62 s as 32 tasks. On a cluster
# the tasks run in parallel and their inputs never pass through the
# driver, so the cutoff sits below those crossovers: bootstraps, chunked
# backlogs and full scans of big lakes (MBs) stay distributed there.
#
# The CPU term: on one CPU the tasks queue one after another, and their
# plan, dispatch and object-store copies are pure overhead. A 264k-event
# backfill took 3.7 s as a Ray Data plan with 21 split and 32 merge tasks
# against 0.9 s in the driver, where the write path streams one WAL file
# at a time (replay's _event_tables), so its memory stays bounded. On 2
# and 4 CPUs of the same VM the driver still won at that size (medians
# 0.93 vs 2.13 s and 0.99 vs 1.59 s) and at 4x it (3.3 vs 4.9 s warm on 4
# CPUs): no crossover was measured, so the term stays at one CPU.
LOCAL_INPUT_BYTES = 1 << 20

# The LWW key, the lineage and the tombstone marker: a projected resolve
# reads these besides the requested columns, so deletes still mask older
# rows and the newest version of a key still wins.
LINEAGE = ["url", "txn_id", "seq", "op"]


def in_driver(input_bytes: int) -> bool:
    """Whether work with this much footer-known input runs in the driver:
    when it is at most LOCAL_INPUT_BYTES, or Ray is not up, or the cluster
    has at most one CPU. Reads the cutoff and the cluster's CPUs at call
    time."""
    if input_bytes <= LOCAL_INPUT_BYTES:
        return True
    import ray

    if not ray.is_initialized():
        return True
    return ray.cluster_resources().get("CPU", 0) <= 1


def _submit_jobs(fn, jobs: list[tuple], per_job: bool) -> list:
    """Submit ``jobs`` as k = min(jobs, cluster CPUs) Ray tasks, each
    running a contiguous share of them: no more tasks queue than CPUs can
    run, and a cluster with at least as many CPUs as partitions gets one
    task per partition. Returns one ObjectRef per task holding its share's
    results as a list, or with ``per_job`` one ObjectRef per job."""
    import ray

    from ..stages.exchange import _submit

    k = min(len(jobs), max(int(ray.cluster_resources().get("CPU", 1)), 1))
    cuts = [len(jobs) * i // k for i in range(k + 1)]
    shares = [jobs[a:b] for a, b in zip(cuts, cuts[1:])]
    task = ray.remote(num_cpus=1)(_run_jobs)
    if not per_job:
        return [task.remote(fn, s) for s in shares]
    return [r for s in shares for r in _submit(task, len(s), fn, s, True)]


def _run_jobs(fn, jobs: list[tuple], per_job: bool = False):
    """A task's share of partition jobs: its results as one list, or with
    ``per_job`` one return value per job. ObjectRef arguments resolve
    here."""
    import ray

    with read_once():
        out = [fn(*(ray.get(a) if isinstance(a, ray.ObjectRef) else a
                    for a in job)) for job in jobs]
    return out[0] if per_job and len(out) == 1 else out


def run_partition_jobs(fn, jobs: list[tuple], local: bool) -> list:
    """``[fn(*job) for job in jobs]``, one job per partition, results in job
    order. ``local`` is the caller's executor choice (Lake._in_driver),
    made once per read: True runs the jobs in the driver, False as Ray
    tasks (_submit_jobs) that each return their share's results as one
    object; on one CPU, 32 separate returns cost about 75 ms more. For
    callers that need the results in the driver; jobs_dataset keeps them
    in the object store."""
    if local or not jobs:
        with read_once():
            return [fn(*job) for job in jobs]
    import ray

    return [r for share in ray.get(_submit_jobs(fn, jobs, False)) for r in share]


def jobs_dataset(fn, jobs: list[tuple], local: bool):
    """Ray Dataset over the Arrow tables of run_partition_jobs(fn, jobs,
    local). In the driver consecutive tables are joined into blocks of up to
    Ray Data's target_max_block_size, each put into the object store as
    soon as it fills (every block costs a metadata task of milliseconds):
    a small read is one block, and a large one — a one-CPU cluster runs
    every read in the driver — holds at most one block plus one job's table
    in the driver, never the whole read. As tasks, every job's table is its
    own return value and block: it stays in the object store and never
    passes through the driver."""
    import ray
    import ray.data

    if local or not jobs:
        cap = ray.data.DataContext.get_current().target_max_block_size
        refs, pending, held = [], [], 0
        with read_once():
            for i, job in enumerate(jobs):
                t = fn(*job)
                if len(t.schema):
                    pending.append(t)
                    held += t.nbytes
                if pending and (i == len(jobs) - 1
                                or (cap is not None and held >= cap)):
                    refs.append(ray.put(pa.concat_tables(
                        pending, promote_options="permissive")))
                    pending, held = [], 0
        if not refs:
            return ray.data.from_items([])
        return ray.data.from_arrow_refs(refs)
    refs = _submit_jobs(fn, jobs, True)
    # settle the refs before handing them to a Dataset: building one over
    # still-pending tiny task outputs intermittently trips a Ray core
    # ref-count race (reference_count.cc CHECK on inlined dependencies);
    # the jobs must finish before any consumer anyway
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    return ray.data.from_arrow_refs(refs)


def _read_columns(columns: list[str] | None, conjuncts=()) -> list[str] | None:
    """Columns a projected resolve reads: the requested and predicate ones
    plus LINEAGE (None = every column)."""
    if columns is None:
        return None
    return list(dict.fromkeys([*LINEAGE, *columns, *(c for c, _, _ in conjuncts)]))


def _align(t: pa.Table, names: list[str] | None, schema: pa.Schema) -> pa.Table:
    """``t`` as exactly the columns ``names`` (every column of the lake's
    state ``schema``, then any extra ones, when None), in that order and
    with the schema's types. A column that none of a partition's files
    carries (it was added to the lake after they were written) reads as
    nulls."""
    from ..schema import align_table

    if names is None:
        names = schema.names + [c for c in t.column_names if c not in schema.names]
    fields = []
    for n in names:
        if schema.get_field_index(n) != -1:
            fields.append(schema.field(n))
        elif t.schema.get_field_index(n) != -1:
            fields.append(t.schema.field(n))
        else:
            raise KeyError(f"Column {n} does not exist in the lake schema")
    return align_table(t, pa.schema(fields))


def _read_job(lake: Lake, p: int, files: list[str], columns: list[str] | None,
              conjuncts: list, keys: list[str] | None,
              schema: pa.Schema) -> pa.Table:
    """One partition's live rows from ``files`` (none: no rows): LWW-resolved
    over base + deltas (reading only ``columns``, the predicate columns and
    LINEAGE), restricted to urls in ``keys`` (all when None) and to rows
    matching ``conjuncts``, aligned to the lake's state ``schema`` and
    projected onto ``columns`` (all when None). The one
    resolve/filter/project behind every per-partition read of a lake, in the
    driver or in a task."""
    import pyarrow.compute as pc

    from .predicate import Predicate

    t = lake.resolve(p, columns=_read_columns(columns, conjuncts), files=files)
    if t is None:
        t = schema.empty_table()
    if keys is not None:
        t = t.filter(pc.is_in(t["url"], value_set=pa.array(keys, pa.string())))
    pred = Predicate(conjuncts)
    if columns is None:
        return pred.filter_table(_align(t, None, schema))
    t = _align(t, list(dict.fromkeys([*columns, *pred.columns()])), schema)
    return pred.filter_table(t).select(columns)



class Lake:
    def __init__(self, root: str):
        # root keeps its scheme (mocks3://… / s3://…) so merge tasks on other
        # nodes reconstruct the same backend from the same string
        self.root = root
        self.fs, self.base = lakefs.resolve(root)
        # _meta.json's layout fields (generation, P, evolution epochs, the
        # history flag), read once per instance: Lake objects are
        # short-lived (one per task) and the lake is single-writer, so a
        # stale copy can only happen on the driver instance that itself
        # called evolve_partitions — which invalidates it
        self._layout: dict | None = None

    def _p(self, *parts: str) -> str:
        return os.path.join(self.base, *parts)

    # ---------- generations (online partition evolution) ----------
    def _meta_cached(self) -> dict:
        if self._layout is None:
            self._layout = self.meta()
        return self._layout

    def generation(self) -> int:
        return int(self._meta_cached().get("generation", 0))

    def partition_epochs(self) -> list[dict]:
        """Evolution history: [{generation, num_partitions, boundary_txn}].
        Generation 0 (the layout at init) is implicit with boundary -inf."""
        return self._meta_cached().get("partition_epochs", [])

    def history_enabled(self) -> bool:
        return bool(self._meta_cached().get("history"))

    def _invalidate(self) -> None:
        self._layout = None

    def _gen_for_txn(self, as_of_txn: int) -> int:
        """Generation of the snapshot at ``as_of_txn``: the latest evolution
        whose boundary commit is <= as_of_txn (the evolved layout's first
        snapshot IS the boundary snapshot)."""
        g = 0
        for e in self.partition_epochs():
            if e["boundary_txn"] <= as_of_txn:
                g = e["generation"]
        return g

    def _part_prefix(self, p: int, gen: int) -> str:
        """Data directory for a partition — generation-scoped so an evolved
        layout's part=3 (a different url bucket) never collides with the old
        one, and old generations stay intact for time travel."""
        return f"part={p:05d}" if gen == 0 else f"g{gen:04d}-part={p:05d}"

    @staticmethod
    def _l0_prefix(gen: int) -> str:
        """Data directory of a generation's shared L0 files."""
        return "l0" if gen == 0 else f"g{gen:04d}-l0"

    # ---------- meta ----------
    def exists(self) -> bool:
        return self.fs.exists(self._p(META))

    def init(
        self, num_partitions: int, event_schema: pa.Schema,
        pages_path: str | None = None, history: bool = False
    ) -> None:
        self.fs.makedirs(self._p(SNAPSHOTS))
        self.fs.put_json(
            self._p(META),
            {
                "format": FORMAT,
                "partitioner": partitioner_id(),
                "num_partitions": num_partitions,
                "event_schema": _schema_to_b64(event_schema),
                # crash-safe bootstrap: until every partition has a snapshot
                # entry, replays keep folding the base pages back in (the
                # per-partition watermark makes that a no-op where committed)
                "bootstrap_pages": pages_path,
                # history=True retains every committed snapshot (one
                # immutable JSON object per commit — no append, object-store
                # safe) and the data files it references until vacuum():
                # snapshot reads as of any retained commit (time travel)
                "history": history,
            },
        )
        self._invalidate()

    def meta(self) -> dict:
        meta = self.fs.read_json(self._p(META))
        if meta.get("format") != FORMAT:
            old = meta.get("format", 1)
            raise RuntimeError(
                f"lake at {self.root} has format {old} ("
                + ("one manifest per partition" if old == 1 else
                   "one data file per partition and delta")
                + f"); this version reads format {FORMAT} (one table "
                "snapshot per commit, a delta epoch's partitions in one "
                "shared L0 file) only — replay the WAL into a new lake root")
        return meta

    def num_partitions(self) -> int:
        return self.meta()["num_partitions"]

    def event_schema(self, meta: dict | None = None) -> pa.Schema:
        """The lake's event schema, from ``meta`` (a _meta.json the caller
        already read) or a fresh read."""
        return _schema_from_b64((meta or self.meta())["event_schema"])

    def version_token(self) -> str:
        """Compact identity of the current committed snapshot — the staleness
        key sidecar indexes (state.dedup_index, state.ivf_index) record per
        epoch so an index that missed a lake commit is DETECTABLE instead of
        silently behind (sidecars version independently of the lake; the
        token closes the gap without a cross-store atomic commit, which
        object stores cannot give us)."""
        snap = self.snapshot()
        return f"g{self.generation()}:txn{snap['txn_hi'] if snap else -1}"

    def validate_partitioner(self, meta: dict | None = None) -> None:
        """Resume safety: a changed hash implementation would silently route
        events to the wrong partitions — fail loudly instead. ``meta`` as
        in event_schema."""
        got = (meta or self.meta())["partitioner"]
        if got != partitioner_id():
            raise RuntimeError(
                f"lake was partitioned with {got!r}, this install hashes with "
                f"{partitioner_id()!r}; refusing to resume"
            )

    def evolve_schema(self, new_event_schema: pa.Schema,
                      meta: dict | None = None) -> None:
        """Additive promotion (pa.unify_schemas); old files stay valid —
        missing columns read as nulls (schema evolution, SURVEY.md §7.1).
        ``meta`` as in event_schema; it is updated in place."""
        meta = meta or self.meta()
        merged = unify([self.event_schema(meta), new_event_schema])
        meta["event_schema"] = _schema_to_b64(merged)
        self.fs.put_json(self._p(META), meta)

    # ---------- snapshots ----------
    def _current_path(self, gen: int) -> str:
        return self._p(f"_snapshot-g{gen:04d}.json")

    def _history_path(self, snap: dict) -> str:
        return self._p(SNAPSHOTS, f"v{snap['version']:010d}"
                                  f"-t{snap['txn_hi']:020d}.json")

    def _history(self) -> list[tuple[int, int, str]]:
        """The retained history copies as (version, txn_hi, name), oldest
        first: one LIST, no read."""
        out = []
        for n in self.fs.list_names(self._p(SNAPSHOTS)):
            if n.startswith("v") and n.endswith(".json"):
                v, t = n[1:-5].split("-t", 1)
                out.append((int(v), int(t), n))
        return sorted(out)

    def _current(self) -> dict | None:
        path = self._current_path(self.generation())
        return self.fs.read_json(path) if self.fs.exists(path) else None

    def snapshot(self, as_of_txn: int | None = None) -> dict | None:
        """The committed table snapshot: the current one, or the newest
        retained one whose txn_hi is at most ``as_of_txn`` (time travel —
        snapshot granularity is the commit, like any versioned lake; it
        carries the generation it was written in, so a txn before a
        partition evolution resolves in the old layout). None if nothing
        was committed by then; raises if that snapshot was vacuumed away.
        Reads the current snapshot, and for an older txn one LIST of the
        history plus one object. History copies are trusted only below
        the current version: a newer one was never committed."""
        cur = self._current()
        if as_of_txn is None or cur is None or cur["txn_hi"] <= as_of_txn:
            return cur
        older = [h for h in self._history() if h[0] < cur["version"]]
        hit = [n for _, t, n in older if t <= as_of_txn]
        if hit:
            return self.fs.read_json(self._p(SNAPSHOTS, hit[-1]))
        if (older[0][0] if older else cur["version"]) > 0:
            raise ValueError(
                f"snapshot as of txn {as_of_txn} was vacuumed (oldest "
                f"retained commit is txn {older[0][1] if older else cur['txn_hi']})")
        return None

    def versions(self) -> list[dict]:
        """All retained committed snapshots, oldest first, the current one
        last. Without history this is just the current snapshot."""
        cur = self._current()
        if cur is None:
            return []
        return [self.fs.read_json(self._p(SNAPSHOTS, n))
                for v, _, n in self._history() if v < cur["version"]] + [cur]

    def manifest(self, p: int, as_of_txn: int | None = None) -> dict | None:
        """Partition ``p``'s entry in the snapshot (see snapshot())."""
        return entries(self.snapshot(as_of_txn)).get(p)

    def watermarks(self) -> dict[int, int]:
        """Per-partition committed txn_hi — the resumable checkpoint."""
        return {p: e["txn_hi"] for p, e in entries(self.snapshot()).items()}

    def _ref(self, r):
        """A snapshot ref (module docstring) as a read ref: the absolute
        path of a whole file, or a Slice of a shared one."""
        if isinstance(r, str):
            return self._p(r)
        if "rows" not in r:
            return self._p(r["path"])
        return Slice(self._p(r["path"]), r["skip"], r["rows"],
                     tuple(r["rg"]) if "rg" in r else None, r.get("until"))

    def _files(self, snap: dict | None) -> dict[int, list]:
        """Read refs (paths or Slices) per committed partition of
        ``snap``."""
        return {p: [self._ref(f) for f in e["files"]]
                for p, e in entries(snap).items()}

    def _snapshot_files(self, as_of_txn: int | None = None) -> dict[int, list]:
        """Read refs per committed partition of the snapshot at
        ``as_of_txn`` (None = current)."""
        return self._files(self.snapshot(as_of_txn))

    def _in_driver(self, files, columns: list[str] | None = None) -> bool:
        """The executor choice of one read of ``columns`` (all when None) of
        ``files`` (refs; a shared file counts once), made once and handed
        to run_partition_jobs or jobs_dataset, by in_driver. The files'
        total size answers for a
        read of every column (their column chunks plus small footers) and
        for any read it sends to the driver (an upper bound within the
        cutoff, or a cluster that cannot run tasks in parallel); otherwise
        the projection's compressed column bytes come from the Parquet
        footers."""
        files = list(dict.fromkeys(map(ref_path, files)))
        local = in_driver(sum(self.fs.size(f) for f in files))
        if columns is None or local:
            return local
        return in_driver(lakefs.footer_bytes(self.fs, files, columns))

    # ---------- staging / data ----------
    COMPRESSION = "zstd"  # lake files are long-lived: trade CPU for bytes

    def write_staged(self, run_id: str, p: int, table: pa.Table) -> dict:
        """Called from inside merge tasks: write new partition state into
        the run's staging directory, return commit metadata (a small row —
        the data itself never re-shuffles)."""
        d = self._p(STAGING, run_id)
        self.fs.makedirs(d)
        path = os.path.join(d, f"part-{p:05d}-{uuid.uuid4().hex}.parquet")
        self.fs.write_parquet(table, path, compression=self.COMPRESSION)
        failpoint("staged")
        return {
            "partition": p,
            "staged": [path],
            "row_count": len(table),
            "num_bytes": table.nbytes,
            "bytes": self.fs.size(path),
        }

    def write_staged_shared(self, run_id: str,
                            slices: list[tuple[int, pa.Table]]) -> list[dict]:
        """Stage a delta epoch's per-partition tables, in ascending
        partition order, as ONE L0 file sorted by partition (module
        docstring); returns write_staged's metadata per partition, each
        with the ``slice`` of the file its partition refers to and
        ``bytes``, its share of the file's size. Slices of up to
        ROW_GROUP_ROWS rows are packed into row groups of up to that many
        rows; a larger one is written as row groups of its own."""
        d = self._p(STAGING, run_id)
        self.fs.makedirs(d)
        path = os.path.join(d, f"l0-{uuid.uuid4().hex}.parquet")
        table = pa.concat_tables([t for _, t in slices],
                                 promote_options="permissive")
        groups: list[list[int]] = []  # slice indexes per row-group run
        for i, (_, t) in enumerate(slices):
            if groups and sum(len(slices[j][1]) for j in groups[-1]) \
                    + len(t) <= ROW_GROUP_ROWS:
                groups[-1].append(i)
            else:
                groups.append([i])
        # a file of one row group needs no row-group range in its refs
        multi = len(groups) > 1 or len(table) > ROW_GROUP_ROWS
        row_groups, refs, rg = [], [], 0
        for g in groups:
            n = sum(len(slices[i][1]) for i in g)
            k = -(-n // ROW_GROUP_ROWS)  # a large slice: row groups of its own
            row_groups += [min(ROW_GROUP_ROWS, n - j * ROW_GROUP_ROWS)
                           for j in range(k)]
            until, skip = slices[g[-1]][0], 0
            for i in g:
                p, t = slices[i]
                ref = {"skip": skip, "rows": len(t)}
                if multi:
                    ref["rg"] = [rg, rg + k]
                if until > p:
                    ref["until"] = until
                refs.append(ref)
                skip += len(t)
            rg += k
        self.fs.write_parquet(table, path, compression=self.COMPRESSION,
                              row_groups=row_groups if multi else None)
        failpoint("staged")
        size, total = self.fs.size(path), max(table.nbytes, 1)
        return [{"partition": p, "staged": [path], "row_count": len(t),
                 "num_bytes": t.nbytes, "bytes": size * t.nbytes // total,
                 "slice": r} for (p, t), r in zip(slices, refs)]

    def partition_files(self, p: int, as_of_txn: int | None = None) -> list:
        return self._files(self.snapshot(as_of_txn)).get(p, [])

    def read_state_raw(self, p: int, as_of_txn: int | None = None,
                       columns: list[str] | None = None,
                       files: list | None = None) -> pa.Table | None:
        """Concat of base + delta refs — may contain superseded rows and
        tombstones; LWW lineage (txn_id, seq) resolves them. ``columns``
        reads only those columns plus LINEAGE (key, lineage and tombstone
        marker, so LWW still resolves). ``files`` reads that ref list
        (paths or Slices) instead of looking up the partition in the
        snapshot (for callers that already hold it). The one reader of
        refs: inside read_once a shared file's (row groups, columns) is
        decoded once per call, and a Slice is a zero-copy slice of it."""
        if files is None:
            files = self.partition_files(p, as_of_txn)
        if not files:
            return None
        cols = None if columns is None else _read_columns(columns)
        return pa.concat_tables([self._read_ref(p, f, cols) for f in files],
                                promote_options="permissive")

    def _read_ref(self, p: int, ref, cols: list[str] | None) -> pa.Table:
        """Partition ``p``'s rows of one ref, through the read_once memo
        when a read call has one."""
        path = ref_path(ref)
        rg = None if isinstance(ref, str) else ref.rg

        def read() -> pa.Table:
            if rg is None:
                return self.fs.read_parquet(path, cols)
            return self.fs.read_parquet(path, cols, row_groups=list(range(*rg)))

        memo = _MEMO.get()
        if memo is None:
            t = read()
        else:
            t = memo.get(p, (path, rg, None if cols is None else tuple(cols)),
                         getattr(ref, "until", None), read)
        return t if isinstance(ref, str) else t.slice(ref.skip, ref.rows)

    # kept as the merge-path API: raw is correct input for an LWW merge
    read_state = read_state_raw

    def resolve(self, p: int, as_of_txn: int | None = None,
                columns: list[str] | None = None,
                files: list[str] | None = None) -> pa.Table | None:
        """Materialized view of a partition: LWW over base+deltas, tombstones
        dropped, op column removed (delta-file resolution). ``as_of_txn``
        resolves the snapshot at a retained historical commit instead
        (requires init(history=True) for snapshots older than the current);
        across a partition evolution it resolves in the generation active at
        that txn (where ``p`` means the OLD layout's bucket). ``columns`` and
        ``files`` project and pin the read as in read_state_raw; the result
        then holds the requested columns the files carry, plus url, txn_id
        and seq."""
        from ..stages.merge import resolve_state

        raw = self.read_state_raw(p, as_of_txn, columns, files)
        if raw is None:
            return None
        return resolve_state(raw)

    def num_files(self, p: int) -> int:
        m = self.manifest(p)
        return len(m["files"]) if m else 0

    # ---------- commit ----------
    def commit(self, staged: list[dict], run_id: str,
               advance_to: int | None = None, base=_CURRENT) -> list[str]:
        """Commit one epoch as ONE new table snapshot (module docstring);
        returns each entry's status, 'committed' or 'skipped'.

        ``staged``: the merges' results, {partition, txn_hi, staged,
        row_count, num_bytes, bytes, mode[, slice]}. mode="rewrite": the
        staged files REPLACE the partition (its full state). mode="delta":
        they APPEND — only this epoch's LWW winners incl. tombstones,
        resolved against older files at read time (an epoch touching 1% of
        a partition writes 1%, not 100%); an entry with a ``slice``
        (write_staged_shared) refers to that slice of a staged file it
        shares with other entries, finalized once. mode="compact": they
        replace the files at the SAME txn_hi (resolving deltas changes
        layout, not state) — exempt from the monotonic label, and the
        partition's data_txn stays. A skipped entry's staged file is
        deleted unless a committed entry refers to it.

        ``base`` is the current snapshot the caller already read (None: the
        lake has none yet); by default commit reads it.

        ``advance_to`` raises every partition's txn_hi to at least that txn
        in the same snapshot, giving a never-written one an entry without
        files: a partition that saw no rows in a fully-applied epoch still
        applied it — without this, one empty hash bucket pins the global
        low watermark forever and every future epoch re-reads the whole
        history. Writes nothing when no entry commits and no watermark
        moves."""
        cur = self._current() if base is _CURRENT else base
        gen = self.generation()
        parts = (list(cur["partitions"]) if cur is not None
                 else [None] * self._meta_cached()["num_partitions"])
        status = []
        final: dict[str, str] = {}  # staged path → its lake-relative path
        skipped: set[str] = set()
        for m in staged:
            p, txn, mode = int(m["partition"]), int(m["txn_hi"]), str(m["mode"])
            old = parts[p]
            if old is not None and (old["txn_hi"] > txn if mode == "compact"
                                    else old["txn_hi"] >= txn):
                skipped.update(m["staged"])  # replayed label → a duplicate
                status.append("skipped")
                continue
            top = (self._l0_prefix(gen) if "slice" in m
                   else self._part_prefix(p, gen))
            files = []
            for s in m["staged"]:
                if s not in final:  # a shared file is finalized once
                    d = self._p(top, f"txn={txn:010d}")
                    self.fs.makedirs(d)
                    # rename (local) / copy (object; the staged copy goes
                    # with the run's staging at cleanup: the crash trace)
                    self.fs.finalize(s, os.path.join(d, os.path.basename(s)),
                                     keep_src=True)
                    failpoint("finalize")
                    final[s] = os.path.relpath(
                        os.path.join(d, os.path.basename(s)), self.base)
                files.append(final[s] if mode != "delta" else
                             {"path": final[s], "bytes": int(m["bytes"]),
                              **m.get("slice", {})})
            append = mode == "delta" and old is not None
            parts[p] = {
                "files": old["files"] + files if append else files,
                "n_deltas": old["n_deltas"] + 1 if append else 0,
                "txn_hi": txn,
                "data_txn": old["data_txn"] if mode == "compact" else txn,
                "row_count": int(m["row_count"]),
                "num_bytes": int(m["num_bytes"]),
                "mode": mode,
            }
            status.append("committed")
        for s in skipped - final.keys():
            self.fs.delete_file(s)
        if advance_to is not None:
            for p, e in enumerate(parts):
                if e is None:
                    parts[p] = {"files": [], "n_deltas": 0,
                                "txn_hi": advance_to, "data_txn": -1,
                                "row_count": 0, "num_bytes": 0, "mode": "none"}
                elif e["txn_hi"] < advance_to:
                    parts[p] = {**e, "txn_hi": advance_to}
        if parts == (cur["partitions"] if cur is not None
                     else [None] * len(parts)):
            return status
        snap = {"version": cur["version"] + 1 if cur is not None else 0,
                "generation": gen,
                "txn_hi": max(e["txn_hi"] for e in parts if e is not None),
                "run_id": run_id, "partitions": parts}
        self._put_snapshot(snap, cur)
        if cur is not None and not self.history_enabled():
            self._drop_files(_rel_files([cur]) - _rel_files([snap]),
                             _rel_files([snap]))
            failpoint("gc")
        return status

    def _put_snapshot(self, snap: dict, prev: dict | None, flip=None) -> None:
        """Make ``snap`` current with one PUT — the commit point; ``flip``
        (evolve_partitions' _meta.json PUT) runs right after it. History
        lakes then PUT its immutable copy, first re-writing ``prev``'s if a
        crash between those two PUTs lost it."""
        history = self.history_enabled()
        if history and prev is not None \
                and not self.fs.exists(self._history_path(prev)):
            self.fs.put_json(self._history_path(prev), prev)
        self.fs.put_json(self._current_path(snap["generation"]), snap)
        if flip is not None:
            flip()
        failpoint("snapshot")
        if history:
            self.fs.put_json(self._history_path(snap), snap)
            failpoint("history")

    def _drop_files(self, dead: set[str], live: set[str]) -> int:
        """Delete the lake-relative files ``dead``, none of which is in
        ``live``: a txn= directory that holds no file of ``live`` goes
        whole, without a listing. Returns the directories removed."""
        live_dirs = {os.path.dirname(f) for f in live}
        dirs = {os.path.dirname(f) for f in dead} - live_dirs
        for d in dirs:
            self.fs.delete_tree(self._p(d))
        for f in dead:
            if os.path.dirname(f) in live_dirs:
                self.fs.delete_file(self._p(f))
        return len(dirs)

    def vacuum(self, retain_last: int = 1) -> dict:
        """Retention for history lakes: drop all but the newest
        ``retain_last`` committed snapshots (the current one is always
        retained) and delete the files only dropped snapshots referenced.
        Reading a snapshot older than the retention horizon afterwards
        raises (snapshot()). Returns {"versions_dropped",
        "txn_dirs_removed"}."""
        if retain_last < 1:
            raise ValueError("retain_last must be >= 1")
        vs = self.versions()
        drop, keep = vs[:-retain_last], vs[-retain_last:]
        for v in drop:  # snapshots first: a kept one never lacks a file
            self.fs.delete_file(self._history_path(v))
        return {"versions_dropped": len(drop),
                "txn_dirs_removed": self._drop_files(
                    _rel_files(drop) - _rel_files(keep), _rel_files(keep))}

    def remove_orphans(self, max_age_sec: float = 0.0) -> int:
        """Delete the data files that no retained snapshot references — the
        finalized files of a commit that crashed before its snapshot PUT,
        or the superseded files of one that crashed before its GC — once
        they are older than ``max_age_sec``. Lists every data directory and
        reads every retained snapshot, so sweep_staging calls it only when
        it removes a crashed run's staging (which every such crash leaves,
        cleanup being a commit's last step). Returns the files deleted."""
        found = {os.path.join(top, txn, name)
                 for top in self.fs.list_names(self.base) if _data_dir(top)
                 for txn in self.fs.list_names(self._p(top))
                 for name in self.fs.list_names(self._p(top, txn))}
        now = time.time()  # an unknown mtime (0) never reads as old
        dead = {f for f in found - _rel_files(self.versions())
                if 0 < self.fs.mtime(self._p(f)) <= now - max_age_sec}
        self._drop_files(dead, found - dead)
        return len(dead)

    @staticmethod
    def _delta_bytes(e: dict | None) -> int:
        """A partition's delta bytes: the sizes its last ``n_deltas`` refs
        record (a slice's share of a shared file, not the file's size)."""
        if e is None or e["n_deltas"] == 0:
            return 0
        return sum(int(r["bytes"]) for r in e["files"][-e["n_deltas"]:])

    def delta_bytes(self, p: int) -> int:
        """Bytes held in a partition's delta refs (the refs after the
        base)."""
        return self._delta_bytes(self.manifest(p))

    def _compact_job(self, p: int, files: list, txn_hi: int,
                     run_id: str) -> dict:
        """Stage one partition's base + deltas resolved into one base file."""
        from ..stages.merge import resolve_state

        meta = self.write_staged(
            run_id, p, resolve_state(self.read_state_raw(p, files=files)))
        return {**meta, "txn_hi": txn_hi, "mode": "compact"}

    def compact_all(self, parallel: bool = True,
                    min_delta_bytes: int | None = None) -> int:
        """Compact delta-bearing partitions into one base file each at the
        same txn_hi, in one commit; returns the count compacted. One job
        per partition through run_partition_jobs: in the driver when
        in_driver says so for their files (or with ``parallel=False``),
        else distributed. Idempotent.

        min_delta_bytes schedules by accumulated DELTA VOLUME rather than
        file count: a hot partition with many large deltas compacts early, a
        cold one with a few tiny deltas is left alone — the knob that keeps
        steady-state compaction I/O proportional to churn, not to partition
        count."""
        snap = self.snapshot()
        todo = {p: e for p, e in entries(snap).items()
                if e["n_deltas"] > 0 and (min_delta_bytes is None or
                                          self._delta_bytes(e) >= min_delta_bytes)}
        if not todo:
            return 0
        run_id = f"compact-{uuid.uuid4().hex[:8]}"
        files = {p: [self._ref(f) for f in e["files"]] for p, e in todo.items()}
        local = not parallel or self._in_driver(
            f for fs_ in files.values() for f in fs_)
        staged = run_partition_jobs(
            Lake._compact_job, [(self, p, files[p], todo[p]["txn_hi"], run_id)
                                for p in sorted(todo)], local)
        status = self.commit(staged, run_id, base=snap)
        self.cleanup_staging(run_id)
        return status.count("committed")

    def cleanup_staging(self, run_id: str) -> None:
        self.fs.delete_tree(self._p(STAGING, run_id))
        failpoint("cleanup")

    # ---------- online partition evolution ----------
    def _rehash(self, src_parts: list[int], read, n_new: int, combine,
                local: bool, run=run_partition_jobs):
        """Re-bucket tables into a layout of ``n_new`` partitions:
        ``read(p)`` of every source partition is split by
        ``partition_of(url, n_new)``, then ``combine(q, piece)`` runs once per
        new partition ``q`` on the concat of its pieces (None when it got no
        rows). Returns ``run`` (run_partition_jobs or jobs_dataset) over the
        combine jobs, in partition order. The one split-then-combine
        re-hash behind evolve_partitions, cross-generation change feeds and
        maintenance.repartition_lake:
        both steps run in the driver when ``local``, else as Ray tasks (one
        split per source; the combines through ``run``)."""
        nret = max(n_new, 2)  # Ray unpacks only num_returns >= 2

        def split(p: int) -> tuple:
            from ..hashing import partition_of
            from ..schema import PART_COL
            from ..stages.exchange import split_by_part

            out = [None] * nret
            t = read(p)
            if t is not None and len(t):
                t = t.append_column(PART_COL,
                                    pa.array(partition_of(t["url"], n_new)))
                out[:n_new] = split_by_part(t, n_new)
            return tuple(out)

        def gather(q: int, *pieces) -> object:
            parts = [t for t in pieces if t is not None and len(t)]
            return combine(q, pa.concat_tables(parts, promote_options="permissive")
                           if parts else None)

        if local:
            with read_once():
                pieces = {p: split(p) for p in src_parts}
        else:
            import ray

            task = ray.remote(num_cpus=1, num_returns=nret)(split)
            pieces = {p: task.remote(p) for p in src_parts}
        return run(gather, [(q, *[pieces[p][q] for p in src_parts])
                            for q in range(n_new)], local)

    def evolve_partitions(self, new_num_partitions: int) -> dict:
        """Re-bucket a LIVE lake to a new partition count, in place, with a
        recorded epoch boundary — no path swap, no downtime window for
        readers (reference analog: per-job split re-planning,
        plugin-rdbms-util/.../ReaderSplitUtil.java, made durable).

        Protocol (single atomic commit point, object-store safe):
          1. every current partition's resolved state is re-hashed into
             ``new_num_partitions`` buckets (distributed when Ray is up) and
             written under generation-scoped data dirs
             (``g<k+1>-part=…/txn=<boundary>/``) with the new layout's
             snapshot in ``_snapshot-g<k+1>.json`` — all INVISIBLE while
             _meta.json still says generation k;
          2. one _meta.json PUT flips {generation, num_partitions} and
             appends the epoch {generation, num_partitions, boundary_txn}.
        A crash before the flip leaves orphan g-dirs (garbage, not
        corruption — re-running overwrites the snapshot); after the flip
        the evolution is durable. Replays before/after the boundary route
        correctly: the WAL watermark carries over (boundary = min committed
        txn_hi, same rule as offline repartition_lake — a lagging partition
        must not have its unapplied events skipped), and every new partition
        gets an entry at the boundary so the uniform-watermark invariant
        holds. Time travel to txns before the boundary resolves against the
        old generation's retained snapshots (history lakes); with history
        off the old generation's files are GC'd after the flip.

        Cost: one full-lake rewrite (O(lake bytes), distributed) — a
        one-time reshape; steady-state epoch cost is unchanged."""
        if new_num_partitions < 1:
            raise ValueError("new_num_partitions must be >= 1")
        self._invalidate()
        meta = self.meta()
        old_p = meta["num_partitions"]
        old_gen = int(meta.get("generation", 0))
        new_gen = old_gen + 1
        old = self._current()
        boundary = min((e["txn_hi"] for e in entries(old).values()), default=0)
        old_files = self._files(old)
        run_id = f"evolve-{uuid.uuid4().hex[:8]}"

        def write_one(q: int, rows: pa.Table | None) -> dict | None:
            return None if rows is None else self.write_staged(run_id, q, rows)

        local = self._in_driver(f for fs_ in old_files.values() for f in fs_)
        staged = self._rehash(
            sorted(old_files), lambda p: self.resolve(p, files=old_files[p]),
            new_num_partitions, write_one, local)

        # finalize into the new generation's dirs (invisible until the flip)
        parts = []
        for q, s in enumerate(staged):
            files: list[str] = []
            if s is not None:
                final_dir = self._p(self._part_prefix(q, new_gen),
                                    f"txn={boundary:010d}")
                self.fs.makedirs(final_dir)
                for sf in s["staged"]:
                    dest = os.path.join(final_dir, os.path.basename(sf))
                    self.fs.finalize(sf, dest, keep_src=True)
                    files.append(os.path.relpath(dest, self.base))
            parts.append({"files": files, "n_deltas": 0, "txn_hi": boundary,
                          "data_txn": boundary,
                          "row_count": s["row_count"] if s else 0,
                          "num_bytes": s["num_bytes"] if s else 0,
                          "mode": "evolve"})
        snap = {"version": old["version"] + 1 if old is not None else 0,
                "generation": new_gen, "txn_hi": boundary, "run_id": run_id,
                "partitions": parts}

        def flip() -> None:  # the atomic flip
            meta["num_partitions"] = new_num_partitions
            meta["generation"] = new_gen
            meta.setdefault("partition_epochs", []).append({
                "generation": new_gen,
                "num_partitions": new_num_partitions,
                "prev_num_partitions": old_p,
                "boundary_txn": boundary,
            })
            self.fs.put_json(self._p(META), meta)
            self._invalidate()

        self._put_snapshot(snap, old, flip)
        # the old generation's snapshot is unreachable now: history lakes
        # keep its copy under _snapshots/, the others drop its files too
        self.fs.delete_file(self._current_path(old_gen))
        if not meta.get("history"):
            for p in old_files:
                self.fs.delete_tree(self._p(self._part_prefix(p, old_gen)))
            self.fs.delete_tree(self._p(self._l0_prefix(old_gen)))
        self.cleanup_staging(run_id)
        return {"generation": new_gen, "num_partitions": new_num_partitions,
                "boundary_txn": boundary,
                "rows": sum(e["row_count"] for e in parts)}

    # ---------- reads ----------
    def all_files(self) -> list[str]:
        """Every live data file of the current snapshot, once each (a
        shared L0 file is referenced by many partitions), in partition
        order."""
        return list(dict.fromkeys(
            ref_path(f) for _, fs_ in sorted(self._snapshot_files().items())
            for f in fs_))

    def read_all(self, as_of_txn: int | None = None) -> pa.Table:
        """Whole-lake resolved table (tests / small results only).
        ``as_of_txn`` time-travels to the newest retained snapshot with
        txn_hi <= as_of_txn (requires init(history=True) for snapshots
        older than the current one)."""
        with read_once():
            parts = [t for p, fs_ in
                     sorted(self._snapshot_files(as_of_txn).items())
                     if (t := self.resolve(p, files=fs_)) is not None]
        if not parts:
            return pa.table({})
        return pa.concat_tables(parts, promote_options="permissive")

    def _state_schema(self, meta: dict) -> pa.Schema:
        from ..schema import state_schema

        return state_schema(_schema_from_b64(meta["event_schema"]))

    def lookup(self, urls: list[str], as_of_txn: int | None = None,
               columns: list[str] | None = None) -> pa.Table:
        """Primary-key point lookup: hash each url to its bucket and
        resolve ONLY the touched partitions (≤ len(urls) of them, typically
        ≪ P), then filter to the requested keys — the O(keys/P) GET path a
        serving layer needs, no full scan, no shuffle. Reads one snapshot,
        and ``columns`` (plus the key, lineage and tombstone columns) of
        the touched partitions' files. Runs in the driver when in_driver
        says so for that input (at most LOCAL_INPUT_BYTES, or a one-CPU
        cluster); otherwise distributed: min(touched partitions, cluster
        CPUs) tasks (run_partition_jobs).
        Absent keys and uncommitted partitions simply return no row.
        ``as_of_txn`` looks up in a retained historical snapshot."""
        from ..hashing import partition_of

        snap = self.snapshot(as_of_txn) if urls else None
        if snap is None:
            return pa.table({})
        p_of = partition_of(pa.array(urls, pa.string()), len(snap["partitions"]))
        by_part: dict[int, list[str]] = {}
        for u, p in zip(urls, p_of.tolist()):
            by_part.setdefault(int(p), []).append(u)
        all_files = self._files(snap)
        files = {p: all_files[p] for p in sorted(by_part) if all_files.get(p)}
        schema = self._state_schema(self.meta())
        local = self._in_driver((f for fs_ in files.values() for f in fs_),
                                _read_columns(columns))
        parts = run_partition_jobs(
            _read_job, [(self, p, fs_, columns, [], by_part[p], schema)
                        for p, fs_ in files.items()], local)
        parts = [t for t in parts if len(t)]
        if not parts:
            return pa.table({})
        return pa.concat_tables(parts, promote_options="permissive")

    # ---------- change feed ----------
    def partition_changes(self, p: int, since_txn: int,
                          until_txn: int | None = None,
                          pre_images: bool = False,
                          files: tuple | None = None) -> pa.Table:
        """CDF for one partition: diff of the resolved snapshots as of
        ``since_txn`` and ``until_txn`` (None = current). ``_change_type`` ∈
        {insert, update, delete}; see stages.merge.diff_snapshots. since_txn
        < the first commit diffs against the empty snapshot (all inserts).
        Both snapshots must share one layout (one_layout: partition ids
        change meaning across an evolution) — ``changes()`` routes
        cross-generation windows through the re-hash path instead.
        ``files`` = (old snapshot's files, new snapshot's files) skips the
        snapshot reads, for callers that already read both snapshots and
        checked them with one_layout."""
        from ..stages.merge import diff_snapshots

        if files is None:
            old_snap, new_snap = self.snapshot(since_txn), self.snapshot(until_txn)
            one_layout(self, old_snap, new_snap)
            files = (self._files(old_snap).get(p, []),
                     self._files(new_snap).get(p, []))
        old = self.resolve(p, files=files[0])
        new = self.resolve(p, files=files[1])
        return diff_snapshots(old, new, pre_images=pre_images)

    def _change_parts(self, since_txn: int, until_txn: int | None,
                      pre_images: bool, run):
        """``run`` (run_partition_jobs or jobs_dataset) over the window's
        per-partition diff jobs, see changes()."""
        from ..stages.merge import diff_snapshots

        new_snap, old_snap = self.snapshot(until_txn), self.snapshot(since_txn)
        new, old = self._files(new_snap), self._files(old_snap)
        local = self._in_driver(
            f for fs_ in (*old.values(), *new.values()) for f in fs_)
        if old_snap is None or new_snap is None \
                or old_snap["generation"] == new_snap["generation"]:
            return run(Lake.partition_changes,
                       [(self, p, since_txn, until_txn, pre_images,
                         (old.get(p, []), new.get(p, [])))
                        for p in sorted(old.keys() | new.keys())
                        if old.get(p) or new.get(p)], local)

        # ---- cross-generation window: re-hash the old snapshot ----
        def diff_new(p: int, old_rows: pa.Table | None) -> pa.Table:
            return diff_snapshots(old_rows, self.resolve(p, files=new.get(p, [])),
                                  pre_images=pre_images)

        return self._rehash(
            sorted(old), lambda q: self.resolve(q, files=old[q]),
            len(new_snap["partitions"]), diff_new, local, run)

    def changes(self, since_txn: int, until_txn: int | None = None,
                pre_images: bool = False):
        """Change feed as a Ray Dataset: one diff job per partition (the
        diff is partition-local by construction — both snapshots hash on the
        same key — so no shuffle). In the driver when in_driver says so for
        the snapshots' files (at most LOCAL_INPUT_BYTES, or a one-CPU
        cluster), the diffs joined into blocks (jobs_dataset); otherwise
        distributed: min(partitions, cluster CPUs) tasks, one block per
        partition, left in the object store.

        When the window CROSSES a partition-evolution boundary, partition
        ids change meaning, so the old snapshot is first RE-HASHED into the
        until-side generation's bucketing (the re-hash evolve_partitions
        uses) and each new-gen partition diffs its re-bucketed old state
        against its own snapshot — one extra exchange of the old snapshot,
        still no global shuffle of the new side. Requires the old
        generation's snapshot (history lakes retain it; non-history lakes
        GC it at evolution)."""
        return self._change_parts(since_txn, until_txn, pre_images,
                                  jobs_dataset)

    def changes_table(self, since_txn: int, until_txn: int | None = None,
                      pre_images: bool = False) -> pa.Table:
        """The change feed of changes() as one table (small results)."""
        parts = self._change_parts(since_txn, until_txn, pre_images,
                                   run_partition_jobs)
        parts = [t for t in parts if len(t)]
        if not parts:
            return pa.table({})
        return pa.concat_tables(parts, promote_options="permissive")

    def scan_plan(self, predicate=None, as_of_txn: int | None = None) -> dict:
        """Plan a snapshot scan: split partitions into pure-base vs
        delta-bearing, then prune with parquet footer statistics when a
        predicate is given (state.predicate: file-level for base partitions,
        whole-partition for delta partitions — delta resolution must read
        every surviving partition's full lineage, so per-file pruning there
        would be unsound). ``as_of_txn`` plans against the retained historical
        snapshot instead (time travel; partitions with no commit by then are
        skipped). Returns the plan — ``part_files``: the files to read per
        surviving partition — plus pruning counters so callers and tests
        can verify fewer files are opened."""
        from .predicate import normalize

        pred = normalize(predicate)
        snap = self.snapshot(as_of_txn)
        files_of = self._files(snap)
        delta_parts = [p for p, e in entries(snap).items() if e["n_deltas"] > 0]
        base = {p: fs_ for p, fs_ in files_of.items() if p not in delta_parts}
        n_base, n_delta = sum(map(len, base.values())), len(delta_parts)
        if pred is not None and pred.conjuncts:
            seen: dict[str, bool] = {}  # a shared file's footer read once

            def may_match(ref) -> bool:
                path = ref_path(ref)
                if path not in seen:
                    seen[path] = pred.file_may_match(self.fs, path)
                return seen[path]

            base = {p: [f for f in fs_ if may_match(f)]
                    for p, fs_ in base.items()}
            delta_parts = [p for p in delta_parts
                           if any(map(may_match, files_of[p]))]
        part_files = {p: fs_ for p, fs_ in base.items() if fs_}
        n_base_kept = sum(map(len, part_files.values()))
        part_files.update((p, files_of[p]) for p in delta_parts)
        return {
            "predicate": pred,
            "part_files": dict(sorted(part_files.items())),
            "base_files_total": n_base,
            "base_files_pruned": n_base - n_base_kept,
            "delta_parts_total": n_delta,
            "delta_parts_pruned": n_delta - len(delta_parts),
        }

    def dataset(self, columns: list[str] | None = None, predicate=None,
                as_of_txn: int | None = None):
        """Read of the lake snapshot as a Ray Dataset. Every surviving
        partition is one job of the same resolve/filter/project
        (``_read_job``): partitions with delta files resolve LWW over their
        whole lineage (partition-local — no shuffle), pure-base ones just
        read. Only ``columns``, the predicate columns and the key / lineage /
        tombstone columns are read; columns older files lack read as nulls.
        The jobs run in the driver when in_driver says so for that projected
        input (at most LOCAL_INPUT_BYTES, or a one-CPU cluster), their
        tables joined into blocks (jobs_dataset); otherwise distributed:
        min(partitions, cluster CPUs) tasks, one block per partition, left
        in the object store — the rows never pass through the driver.

        ``predicate`` — a list of ``(col, op, value)`` conjuncts or a
        ``state.predicate.Predicate`` — pushes down in two layers (see that
        module's docstring): footer-stats file/partition pruning in
        scan_plan, then post-LWW-resolve filtering inside each job.

        ``as_of_txn`` — time travel: read the snapshot at the retained
        historical commit instead (init(history=True) lakes)."""
        plan = self.scan_plan(predicate, as_of_txn=as_of_txn)
        pred = plan["predicate"]
        conjuncts = pred.conjuncts if pred is not None else []
        schema = self._state_schema(self.meta())
        local = self._in_driver(
            (f for fs_ in plan["part_files"].values() for f in fs_),
            _read_columns(columns, conjuncts))
        return jobs_dataset(
            _read_job, [(self, p, fs_, columns, conjuncts, None, schema)
                        for p, fs_ in plan["part_files"].items()], local)


def _rel_files(snaps: list[dict]) -> set[str]:
    """Every lake-relative data file the snapshots reference, each once."""
    return {f if isinstance(f, str) else f["path"]
            for s in snaps for e in entries(s).values() for f in e["files"]}


def _data_dir(name: str) -> bool:
    """Whether a top-level lake entry holds data files (any generation's
    partition or L0 directories)."""
    return "part=" in name or name.endswith("l0")
