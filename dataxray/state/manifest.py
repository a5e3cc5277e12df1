"""Parquet-lake layout + exactly-once per-partition manifest commits.

Commit protocol, composed from the two idempotency patterns in the reference:
  * hdfswriter: tasks write to a temp/uuid dir, the job's ``post()`` renames
    files into place atomically (HdfsWriter.java:196,293-326);
  * starrockswriter: every flushed batch carries a *label* and a re-sent label
    is recognized and skipped (StarRocksWriterManager.java:33-143, label :52).

Here: each per-partition merge task writes its new state file(s) under
``_staging/<run_id>/part-<p>/`` with uuid names (task retries collide on
nothing), and the driver commits by (a) renaming the staged files into
``part=<p>/txn=<txn_hi>/`` and (b) atomically replacing the partition's
manifest JSON. The label is ``(partition, txn_hi)`` with **monotonic txn
ids**: a commit whose txn_hi <= the manifest's is a recognized replay and is
skipped — re-running a committed batch changes nothing.

Layout:
    lake/
      _meta.json                    partitioner id, P, event schema (b64 Arrow)
      _manifests/part-00007.json    {partition, txn_hi, files, row_count, ...}
      _staging/<run_id>/part-00007/data-<uuid>.parquet
      part=00007/txn=0000000042/data-<uuid>.parquet

Storage is abstracted behind ``state.lakefs``: a plain path commits via
atomic rename (local/HDFS semantics); a ``mocks3://`` / ``s3://`` root runs
the SAME protocol with object-store semantics only — staged-object PUT,
server-side copy + delete to finalize, single-object manifest PUT as the
commit point, no rename anywhere (lakefs.ObjectLakeFS).
"""

from __future__ import annotations

import base64
import functools
import os
import uuid

import pyarrow as pa

from ..hashing import partitioner_id
from ..schema import unify
from . import lakefs

META = "_meta.json"
MANIFESTS = "_manifests"
STAGING = "_staging"


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

    out = [fn(*(ray.get(a) if isinstance(a, ray.ObjectRef) else a for a in job))
           for job in jobs]
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
        for i, job in enumerate(jobs):
            t = fn(*job)
            if len(t.schema):
                pending.append(t)
                held += t.nbytes
            if pending and (i == len(jobs) - 1
                            or (cap is not None and held >= cap)):
                refs.append(ray.put(
                    pa.concat_tables(pending, promote_options="permissive")))
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
        # generation + evolution epochs (and the history flag, fixed at
        # init), cached per instance: Lake objects are short-lived (one per
        # task) and the lake is single-writer, so a stale cache can only
        # happen on the driver instance that itself called
        # evolve_partitions — which invalidates it
        self._gen: int | None = None
        self._epochs: list[dict] | None = None
        self._history = False

    def _p(self, *parts: str) -> str:
        return os.path.join(self.base, *parts)

    # ---------- generations (online partition evolution) ----------
    def generation(self) -> int:
        if self._gen is None:
            meta = self.meta()
            self._gen = int(meta.get("generation", 0))
            self._epochs = meta.get("partition_epochs", [])
            self._history = bool(meta.get("history"))
        return self._gen

    def partition_epochs(self) -> list[dict]:
        """Evolution history: [{generation, num_partitions, boundary_txn}].
        Generation 0 (the layout at init) is implicit with boundary -inf."""
        self.generation()
        return self._epochs or []

    def _invalidate(self) -> None:
        self._gen = None
        self._epochs = None

    def _gen_for_txn(self, as_of_txn: int) -> int:
        """Generation whose manifests record the snapshot at ``as_of_txn``:
        the latest evolution whose boundary commit is <= as_of_txn (the
        evolved layout's first snapshot IS the boundary snapshot)."""
        g = 0
        for e in self.partition_epochs():
            if e["boundary_txn"] <= as_of_txn:
                g = e["generation"]
        return g

    def _resolve_gen(self, gen: int | None, as_of_txn: int | None) -> int:
        if gen is not None:
            return gen
        if as_of_txn is not None:
            return self._gen_for_txn(as_of_txn)
        return self.generation()

    def _mdir(self, gen: int | None = None) -> str:
        gen = self.generation() if gen is None else gen
        return self._p(MANIFESTS) if gen == 0 \
            else self._p(MANIFESTS, f"g{gen:04d}")

    def _part_prefix(self, p: int, gen: int | None = None) -> str:
        """Data directory for a partition — generation-scoped so an evolved
        layout's part=3 (a different url bucket) never collides with the old
        one, and old generations stay intact for time travel."""
        gen = self.generation() if gen is None else gen
        return f"part={p:05d}" if gen == 0 else f"g{gen:04d}-part={p:05d}"

    # ---------- meta ----------
    def exists(self) -> bool:
        return self.fs.exists(self._p(META))

    def init(
        self, num_partitions: int, event_schema: pa.Schema,
        pages_path: str | None = None, history: bool = False
    ) -> None:
        self.fs.makedirs(self._p(MANIFESTS))
        self.fs.put_json(
            self._p(META),
            {
                "partitioner": partitioner_id(),
                "num_partitions": num_partitions,
                "event_schema": _schema_to_b64(event_schema),
                # crash-safe bootstrap: until every partition has committed a
                # manifest, replays keep folding the base pages back in (the
                # per-partition watermark makes that a no-op where committed)
                "bootstrap_pages": pages_path,
                # history=True retains every committed manifest version (one
                # immutable JSON object per commit — no append, object-store
                # safe) and the data files it references until vacuum():
                # snapshot reads as of any retained commit (time travel)
                "history": history,
            },
        )

    def bootstrap_pages(self) -> str | None:
        """Pages path to keep replaying while any partition lacks a manifest."""
        meta = self.meta()
        if meta.get("bootstrap_pages") is None:
            return None
        if len(self.watermarks()) >= meta["num_partitions"]:
            return None  # bootstrap complete everywhere
        return meta["bootstrap_pages"]

    def meta(self) -> dict:
        return self.fs.read_json(self._p(META))

    def num_partitions(self) -> int:
        return self.meta()["num_partitions"]

    def event_schema(self) -> pa.Schema:
        return _schema_from_b64(self.meta()["event_schema"])

    def version_token(self) -> str:
        """Compact identity of the current committed snapshot — the staleness
        key sidecar indexes (state.dedup_index, state.ivf_index) record per
        epoch so an index that missed a lake commit is DETECTABLE instead of
        silently behind (sidecars version independently of the lake; the
        token closes the gap without a cross-store atomic commit, which
        object stores cannot give us)."""
        wm = self.watermarks()
        return f"g{self.generation()}:txn{max(wm.values(), default=-1)}"

    def validate_partitioner(self) -> None:
        """Resume safety: a changed hash implementation would silently route
        events to the wrong partitions — fail loudly instead."""
        got = self.meta()["partitioner"]
        if got != partitioner_id():
            raise RuntimeError(
                f"lake was partitioned with {got!r}, this install hashes with "
                f"{partitioner_id()!r}; refusing to resume"
            )

    def evolve_schema(self, new_event_schema: pa.Schema) -> None:
        """Additive promotion (pa.unify_schemas); old files stay valid —
        missing columns read as nulls (schema evolution, SURVEY.md §7.1)."""
        meta = self.meta()
        merged = unify([self.event_schema(), new_event_schema])
        meta["event_schema"] = _schema_to_b64(merged)
        self.fs.put_json(self._p(META), meta)

    # ---------- manifests ----------
    def _manifest_path(self, p: int, gen: int | None = None) -> str:
        return os.path.join(self._mdir(gen), f"part-{p:05d}.json")

    def history_enabled(self) -> bool:
        self.generation()  # reads the flag with the layout, once
        return self._history

    def _history_dir(self, p: int, gen: int | None = None) -> str:
        return os.path.join(self._mdir(gen), "history", f"part-{p:05d}")

    def _version_names(self, p: int, gen: int | None = None):
        """(current manifest, retained history file names oldest first);
        names is None when the partition keeps no history dir."""
        hdir = self._history_dir(p, gen)
        cur = self.manifest(p, gen)
        if not self.fs.exists(hdir):
            return cur, None
        # trust only versions <= the committed current one: a crash between
        # the history PUT and the current-manifest PUT (the commit point) can
        # leave one newer orphan entry, which the redone commit overwrites.
        # The file name carries the version (v-<version>.json)
        cur_v = cur.get("version", -1) if cur else -1
        vs = sorted(int(n[2:-5]) for n in self.fs.list_names(hdir)
                    if n.startswith("v-") and n.endswith(".json"))
        return cur, [f"v-{v:06d}.json" for v in vs if v <= cur_v]

    def versions(self, p: int, gen: int | None = None) -> list[dict]:
        """All retained committed manifest versions for a partition, oldest
        first. With history off this is just the current manifest."""
        cur, names = self._version_names(p, gen)
        if names is None:
            return [cur] if cur is not None else []
        hdir = self._history_dir(p, gen)
        return [self.fs.read_json(os.path.join(hdir, n)) for n in names]

    def manifest_as_of(self, p: int, as_of_txn: int,
                       gen: int | None = None) -> dict | None:
        """Latest retained version with txn_hi <= as_of_txn (time-travel
        floor — snapshot granularity is the commit boundary, like any
        versioned lake). None if the partition had no commit by then; raises
        if the snapshot has been vacuumed away. ``gen`` defaults to the
        generation active at ``as_of_txn`` (time travel across a partition
        evolution resolves against the OLD layout's manifests).

        Binary search over the retained versions: txn_hi never decreases
        from one version to the next (commits are monotonic, a compaction
        keeps it), so O(log versions) history reads, not one per version —
        a change feed on a long-tailed history lake resolves two snapshots
        per partition."""
        gen = self._resolve_gen(gen, as_of_txn)
        cur, names = self._version_names(p, gen)
        if cur is None or cur["txn_hi"] <= as_of_txn:
            return cur  # no commit yet, or the newest version is the answer
        names = names or []
        hdir = self._history_dir(p, gen)

        @functools.lru_cache(maxsize=None)
        def at(i: int) -> dict:
            return self.fs.read_json(os.path.join(hdir, names[i]))

        lo, hi = 0, len(names)  # lo ends as the count with txn_hi <= as_of
        while lo < hi:
            mid = (lo + hi) // 2
            if at(mid)["txn_hi"] <= as_of_txn:
                lo = mid + 1
            else:
                hi = mid
        if lo:
            return at(lo - 1)
        oldest = at(0) if names else cur
        if oldest.get("version", 0) > 0:  # partition exists, older ones gone
            raise ValueError(
                f"partition {p}: snapshot as of txn {as_of_txn} was "
                f"vacuumed (oldest retained commit is txn {oldest['txn_hi']})"
            )
        return None

    def manifest(self, p: int, gen: int | None = None) -> dict | None:
        path = self._manifest_path(p, gen)
        if not self.fs.exists(path):
            return None
        return self.fs.read_json(path)

    def watermarks(self, gen: int | None = None) -> dict[int, int]:
        """Per-partition committed txn_hi — the resumable checkpoint."""
        return {p: m["txn_hi"] for p, m in self._manifests(gen).items()}

    def _manifests(self, gen: int | None = None) -> dict[int, dict]:
        """Current manifest of every committed partition: one list, one
        read each."""
        out: dict[int, dict] = {}
        mdir = self._mdir(gen)
        for name in self.fs.list_names(mdir):
            if name.startswith("part-") and name.endswith(".json"):
                m = self.fs.read_json(os.path.join(mdir, name))
                out[m["partition"]] = m
        return out

    def _manifests_at(self, mans: dict[int, dict], as_of_txn: int | None,
                      gen: int) -> dict[int, dict]:
        """Manifests of the snapshot at ``as_of_txn`` (None = the current
        manifests ``mans``), by partition; partitions without a commit by
        then are left out."""
        if as_of_txn is not None:
            mans = {p: self.manifest_as_of(p, as_of_txn, gen) for p in mans}
        return {p: m for p, m in sorted(mans.items()) if m is not None}

    def _files_at(self, mans: dict[int, dict], as_of_txn: int | None,
                  gen: int) -> dict[int, list[str]]:
        """Data files per partition of the snapshot (see _manifests_at)."""
        return {p: [self._p(f) for f in m["files"]]
                for p, m in self._manifests_at(mans, as_of_txn, gen).items()}

    def _snapshot_files(self, as_of_txn: int | None = None) -> dict[int, list[str]]:
        """Data files per committed partition of the snapshot at
        ``as_of_txn`` (None = current), in that snapshot's generation."""
        gen = self._resolve_gen(None, as_of_txn)
        return self._files_at(self._manifests(gen), as_of_txn, gen)

    def _in_driver(self, files, columns: list[str] | None = None) -> bool:
        """The executor choice of one read of ``columns`` (all when None) of
        ``files``, made once and handed to run_partition_jobs or
        jobs_dataset, by in_driver. The files' total size answers for a
        read of every column (their column chunks plus small footers) and
        for any read it sends to the driver (an upper bound within the
        cutoff, or a cluster that cannot run tasks in parallel); otherwise
        the projection's compressed column bytes come from the Parquet
        footers."""
        files = list(files)
        local = in_driver(sum(self.fs.size(f) for f in files))
        if columns is None or local:
            return local
        return in_driver(lakefs.footer_bytes(self.fs, files, columns))

    # ---------- staging / data ----------
    def stage_dir(self, run_id: str, p: int) -> str:
        d = self._p(STAGING, run_id, f"part-{p:05d}")
        self.fs.makedirs(d)
        return d

    COMPRESSION = "zstd"  # lake files are long-lived: trade CPU for bytes

    def write_staged(self, run_id: str, p: int, table: pa.Table) -> dict:
        """Called from inside merge tasks: write new partition state, return
        commit metadata (a small row — the data itself never re-shuffles)."""
        path = os.path.join(self.stage_dir(run_id, p), f"data-{uuid.uuid4().hex}.parquet")
        self.fs.write_parquet(table, path, compression=self.COMPRESSION)
        return {
            "partition": p,
            "staged": [path],
            "row_count": len(table),
            "num_bytes": table.nbytes,
        }

    def partition_files(self, p: int, as_of_txn: int | None = None,
                        gen: int | None = None) -> list[str]:
        m = (self.manifest(p, gen) if as_of_txn is None
             else self.manifest_as_of(p, as_of_txn, gen))
        if m is None:
            return []
        return [self._p(f) for f in m["files"]]

    def read_state_raw(self, p: int, as_of_txn: int | None = None,
                       gen: int | None = None, columns: list[str] | None = None,
                       files: list[str] | None = None) -> pa.Table | None:
        """Concat of base + delta files — may contain superseded rows and
        tombstones; LWW lineage (txn_id, seq) resolves them. ``columns``
        reads only those columns plus LINEAGE (key, lineage and tombstone
        marker, so LWW still resolves). ``files`` reads that file list
        instead of looking up the partition's manifest (for callers that
        already hold it)."""
        if files is None:
            files = self.partition_files(p, as_of_txn, gen)
        if not files:
            return None
        cols = None if columns is None else _read_columns(columns)
        return pa.concat_tables(
            [self.fs.read_parquet(f, cols) for f in files],
            promote_options="permissive")

    # kept as the merge-path API: raw is correct input for an LWW merge
    read_state = read_state_raw

    def resolve(self, p: int, as_of_txn: int | None = None,
                gen: int | None = None, columns: list[str] | None = None,
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

        raw = self.read_state_raw(p, as_of_txn, gen, columns, files)
        if raw is None:
            return None
        return resolve_state(raw)

    def num_files(self, p: int) -> int:
        m = self.manifest(p)
        return len(m["files"]) if m else 0

    # ---------- commit ----------
    def commit(
        self, p: int, txn_hi: int, staged: list[str], row_count: int,
        num_bytes: int, run_id: str, mode: str = "rewrite"
    ) -> str:
        """Atomic label-deduped commit. Returns 'committed' or 'skipped'.

        mode="rewrite": staged files REPLACE the partition (full state or a
        compaction). mode="delta": staged files APPEND — they hold only this
        epoch's LWW winners incl. tombstones, resolved against older files at
        read time (the merge-amplification fix for steady-state epochs: an
        epoch touching 1% of a partition writes 1%, not 100%).
        mode="watermark": no data; advance txn_hi only (a partition that saw
        no rows in a fully-applied epoch still applied it — without this,
        one empty hash bucket pins the global low watermark forever and
        every future epoch re-reads the whole history).
        mode="compact": replace files at the SAME txn_hi (resolving deltas
        changes layout, not state) — exempt from the monotonic-label check."""
        cur = self.manifest(p)
        replayed = cur is not None and (
            cur["txn_hi"] > txn_hi if mode == "compact" else cur["txn_hi"] >= txn_hi
        )
        if replayed:
            for s in staged:  # replayed label → drop the duplicate output
                self.fs.delete_file(s)
            return "skipped"
        final_dir = self._p(self._part_prefix(p), f"txn={txn_hi:010d}")
        if staged:  # a watermark commit moves no file: no directory
            self.fs.makedirs(final_dir)
        rel_files = []
        for s in staged:
            dest = os.path.join(final_dir, os.path.basename(s))
            self.fs.finalize(s, dest)  # rename (local) / copy+delete (object)
            rel_files.append(os.path.relpath(dest, self.base))
        if mode == "watermark":
            files = list(cur["files"]) if cur else []
            n_deltas = cur.get("n_deltas", 0) if cur else 0
        elif mode == "compact":
            files = rel_files
            n_deltas = 0
        elif mode == "delta" and cur is not None:
            files = list(cur["files"]) + rel_files
            n_deltas = cur.get("n_deltas", 0) + 1
        else:
            files = rel_files
            n_deltas = 0
        manifest = {
            "partition": p,
            "txn_hi": txn_hi,
            "files": files,
            "n_deltas": n_deltas,
            "row_count": (cur.get("row_count", 0) if (mode == "watermark" and cur)
                          else row_count),
            "num_bytes": (cur.get("num_bytes", 0) if (mode == "watermark" and cur)
                          else num_bytes),
            "run_id": run_id,
            "version": (cur.get("version", -1) + 1) if cur else 0,
            "mode": mode,
        }
        history = self.history_enabled()
        if history:
            # one immutable object per committed version (no append — safe on
            # object stores); the CURRENT manifest PUT below stays the single
            # atomic commit point, so a crash between these two writes leaves
            # at worst an orphan history entry that the next commit's version
            # number simply overwrites
            hdir = self._history_dir(p)
            self.fs.makedirs(hdir)
            self.fs.put_json(
                os.path.join(hdir, f"v-{manifest['version']:06d}.json"),
                manifest,
            )
        self.fs.put_json(self._manifest_path(p), manifest)
        if not history:
            self._gc_partition(p, files)
        return "committed"

    def _gc_partition(self, p: int, live_rel_files: list[str]) -> int:
        """Drop txn dirs no longer referenced — best-effort; returns count."""
        pdir = self._p(self._part_prefix(p))
        live_dirs = {os.path.basename(os.path.dirname(f)) for f in live_rel_files}
        removed = 0
        for name in self.fs.list_names(pdir):
            if name.startswith("txn=") and name not in live_dirs:
                self.fs.delete_tree(os.path.join(pdir, name))
                removed += 1
        return removed

    def vacuum(self, retain_last: int = 1) -> dict:
        """Retention for history lakes: per partition, drop all but the
        newest ``retain_last`` committed versions (the current manifest is
        always version -1 of that list, so it is always retained) and GC txn
        dirs referenced only by dropped versions. Reading a snapshot older
        than the retention horizon afterwards raises (manifest_as_of).
        Returns {"versions_dropped", "txn_dirs_removed"}."""
        if retain_last < 1:
            raise ValueError("retain_last must be >= 1")
        stats = {"versions_dropped": 0, "txn_dirs_removed": 0}
        for p in sorted(self.watermarks()):
            vs = self.versions(p)
            if len(vs) <= retain_last:
                continue
            drop, keep = vs[:-retain_last], vs[-retain_last:]
            live = [f for v in keep for f in v["files"]]
            cur = self.manifest(p)
            if cur:
                live += cur["files"]
            stats["txn_dirs_removed"] += self._gc_partition(p, live)
            for v in drop:
                self.fs.delete_file(os.path.join(
                    self._history_dir(p), f"v-{v['version']:06d}.json"))
                stats["versions_dropped"] += 1
        return stats

    def compact_partition(self, p: int, run_id: str | None = None) -> str:
        """Resolve a partition's base+deltas into one base file at the same
        txn_hi. No-op on partitions without deltas; idempotent."""
        import uuid as _uuid

        from ..stages.merge import resolve_state

        m = self.manifest(p)
        if m is None or m.get("n_deltas", 0) == 0:
            return "noop"
        run_id = run_id or f"compact-{_uuid.uuid4().hex[:8]}"
        raw = self.read_state_raw(p)
        resolved = resolve_state(raw)
        meta = self.write_staged(run_id, p, resolved)
        status = self.commit(p, m["txn_hi"], meta["staged"], meta["row_count"],
                             meta["num_bytes"], run_id, mode="compact")
        self.cleanup_staging(run_id)
        return status

    def delta_bytes(self, p: int) -> int:
        """Bytes held in a partition's delta files (files after the base)."""
        m = self.manifest(p)
        if m is None or m.get("n_deltas", 0) == 0:
            return 0
        return sum(self.fs.size(self._p(f)) for f in m["files"][1:])

    def compact_all(self, parallel: bool = True,
                    min_delta_bytes: int | None = None) -> int:
        """Compact delta-bearing partitions; returns count compacted. One
        job per partition through run_partition_jobs: in the driver when
        in_driver says so for their files (or with ``parallel=False``),
        else distributed.

        min_delta_bytes schedules by accumulated DELTA VOLUME rather than
        file count: a hot partition with many large deltas compacts early, a
        cold one with a few tiny deltas is left alone — the knob that keeps
        steady-state compaction I/O proportional to churn, not to partition
        count."""
        mans = {p: m for p, m in self._manifests().items()
                if m.get("n_deltas", 0) > 0}
        if min_delta_bytes is not None:
            mans = {p: m for p, m in mans.items()
                    if self.delta_bytes(p) >= min_delta_bytes}
        if not mans:
            return 0
        local = not parallel or self._in_driver(
            self._p(f) for m in mans.values() for f in m["files"])
        return sum(r == "committed" for r in run_partition_jobs(
            Lake.compact_partition, [(self, p) for p in sorted(mans)], local))

    def cleanup_staging(self, run_id: str) -> None:
        self.fs.delete_tree(self._p(STAGING, run_id))

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
            pieces = {p: split(p) for p in src_parts}
        else:
            import ray

            task = ray.remote(num_cpus=1, num_returns=nret)(split)
            pieces = {p: task.remote(p) for p in src_parts}
        return run(gather, [(q, *[pieces[p][q] for p in src_parts])
                            for q in range(n_new)], local)

    def evolve_partitions(self, new_num_partitions: int) -> dict:
        """Re-bucket a LIVE lake to a new partition count, in place, with a
        manifest-recorded epoch boundary — no path swap, no downtime window
        for readers (reference analog: per-job split re-planning,
        plugin-rdbms-util/.../ReaderSplitUtil.java, made durable).

        Protocol (single atomic commit point, object-store safe):
          1. every current partition's resolved state is re-hashed into
             ``new_num_partitions`` buckets (distributed when Ray is up) and
             written under generation-scoped data dirs
             (``g<k+1>-part=…/txn=<boundary>/``) with fresh manifests in
             ``_manifests/g<k+1>/`` — all INVISIBLE while _meta.json still
             says generation k;
          2. one _meta.json PUT flips {generation, num_partitions} and
             appends the epoch {generation, num_partitions, boundary_txn}.
        A crash before the flip leaves orphan g-dirs (garbage, not
        corruption — re-running overwrites the manifests); after the flip
        the evolution is durable. Replays before/after the boundary route
        correctly: the WAL watermark carries over (boundary = min committed
        txn_hi, same rule as offline repartition_lake — a lagging partition
        must not have its unapplied events skipped), and every new partition
        gets a manifest at the boundary so the uniform-watermark invariant
        holds. Time travel to txns before the boundary resolves against the
        old generation's retained manifests (history lakes); with history
        off the old generation's files are GC'd after the flip.

        Cost: one full-lake rewrite (O(lake bytes), distributed) — a
        one-time reshape; steady-state epoch cost is unchanged."""
        import uuid as _uuid

        if new_num_partitions < 1:
            raise ValueError("new_num_partitions must be >= 1")
        self._invalidate()
        meta = self.meta()
        old_p = meta["num_partitions"]
        old_gen = int(meta.get("generation", 0))
        new_gen = old_gen + 1
        old_mans = self._manifests(old_gen)
        boundary = min((m["txn_hi"] for m in old_mans.values()), default=0)
        old_files = self._files_at(old_mans, None, old_gen)
        run_id = f"evolve-{_uuid.uuid4().hex[:8]}"

        def write_one(q: int, old: pa.Table | None) -> dict | None:
            return None if old is None else self.write_staged(run_id, q, old)

        src_parts = sorted(old_files)
        local = self._in_driver(f for fs_ in old_files.values() for f in fs_)
        staged = self._rehash(
            src_parts, lambda p: self.resolve(p, files=old_files[p]),
            new_num_partitions, write_one, local)

        # finalize + write new-generation manifests (invisible until flip)
        mdir = self._mdir(new_gen)
        self.fs.makedirs(mdir)
        rows_total = 0
        for q in range(new_num_partitions):
            s = staged[q]
            rel_files: list[str] = []
            if s is not None:
                final_dir = self._p(self._part_prefix(q, new_gen),
                                    f"txn={boundary:010d}")
                self.fs.makedirs(final_dir)
                for sf in s["staged"]:
                    dest = os.path.join(final_dir, os.path.basename(sf))
                    self.fs.finalize(sf, dest)
                    rel_files.append(os.path.relpath(dest, self.base))
            man = {
                "partition": q,
                "txn_hi": boundary,
                "files": rel_files,
                "n_deltas": 0,
                "row_count": s["row_count"] if s else 0,
                "num_bytes": s["num_bytes"] if s else 0,
                "run_id": run_id,
                "version": 0,
                "mode": "evolve",
            }
            rows_total += man["row_count"]
            if meta.get("history"):
                hdir = self._history_dir(q, new_gen)
                self.fs.makedirs(hdir)
                self.fs.put_json(os.path.join(hdir, "v-000000.json"), man)
            self.fs.put_json(self._manifest_path(q, new_gen), man)
        self.cleanup_staging(run_id)

        # the atomic flip
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

        if not meta.get("history"):
            # old generation is unreachable (no time travel) — GC it
            for p in src_parts:
                self.fs.delete_file(self._manifest_path(p, old_gen))
                self.fs.delete_tree(self._history_dir(p, old_gen))
                self.fs.delete_tree(self._p(self._part_prefix(p, old_gen)))
        return {"generation": new_gen, "num_partitions": new_num_partitions,
                "boundary_txn": boundary, "rows": rows_total}

    # ---------- reads ----------
    def all_files(self) -> list[str]:
        files: list[str] = []
        for p in sorted(self.watermarks()):
            files.extend(self.partition_files(p))
        return files

    def read_all(self, as_of_txn: int | None = None) -> pa.Table:
        """Whole-lake resolved table (tests / small results only).
        ``as_of_txn`` time-travels to the latest retained commit with
        txn_hi <= as_of_txn per partition (requires init(history=True) for
        snapshots older than the current one)."""
        gen = self._resolve_gen(None, as_of_txn)
        parts = [t for p in sorted(self.watermarks(gen))
                 if (t := self.resolve(p, as_of_txn, gen)) is not None]
        if not parts:
            return pa.table({})
        return pa.concat_tables(parts, promote_options="permissive")

    def _num_partitions(self, gen: int, meta: dict) -> int:
        """Partition count of generation ``gen``: an older generation's is
        the ``prev_num_partitions`` of the evolution that ended it."""
        for e in meta.get("partition_epochs", []):
            if e["generation"] == gen + 1:
                return e["prev_num_partitions"]
        return meta["num_partitions"]

    def _state_schema(self, meta: dict) -> pa.Schema:
        from ..schema import state_schema

        return state_schema(_schema_from_b64(meta["event_schema"]))

    def lookup(self, urls: list[str], as_of_txn: int | None = None,
               columns: list[str] | None = None) -> pa.Table:
        """Primary-key point lookup: hash each url to its bucket and
        resolve ONLY the touched partitions (≤ len(urls) of them, typically
        ≪ P), then filter to the requested keys — the O(keys/P) GET path a
        serving layer needs, no full scan, no shuffle. Reads the touched
        partitions' manifests only, and ``columns`` (plus the key, lineage
        and tombstone columns) of their files. Runs in the driver when
        in_driver says so for that input (at most LOCAL_INPUT_BYTES, or a
        one-CPU cluster); otherwise distributed: min(touched partitions,
        cluster CPUs) tasks (run_partition_jobs).
        Absent keys and uncommitted partitions simply return no row.
        ``as_of_txn`` looks up in a retained historical snapshot."""
        from ..hashing import partition_of

        if not urls:
            return pa.table({})
        meta = self.meta()
        gen = self._resolve_gen(None, as_of_txn)
        p_of = partition_of(pa.array(urls, pa.string()),
                            self._num_partitions(gen, meta))
        by_part: dict[int, list[str]] = {}
        for u, p in zip(urls, p_of.tolist()):
            by_part.setdefault(int(p), []).append(u)
        files = {p: self.partition_files(p, as_of_txn, gen) for p in sorted(by_part)}
        files = {p: fs_ for p, fs_ in files.items() if fs_}
        schema = self._state_schema(meta)
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
                          gen: int | None = None,
                          files: tuple | None = None) -> pa.Table:
        """CDF for one partition: diff of the resolved snapshots as of
        ``since_txn`` and ``until_txn`` (None = current). ``_change_type`` ∈
        {insert, update, delete}; see stages.merge.diff_snapshots. since_txn
        < the first commit diffs against the empty snapshot (all inserts).
        Both snapshots must live in the SAME generation ``gen`` (partition
        ids change meaning across an evolution) — ``changes()`` routes
        cross-generation windows through the re-hash path instead.
        ``files`` = (old snapshot's files, new snapshot's files) skips the
        manifest lookups when the caller already resolved them."""
        from ..stages.merge import diff_snapshots

        gen = self.generation() if gen is None else gen
        if self._gen_for_txn(since_txn) != gen or (
                until_txn is not None and self._gen_for_txn(until_txn) != gen):
            raise ValueError(
                "partition_changes cannot diff across a partition-evolution "
                "boundary (partition ids change meaning); use Lake.changes()"
                f" (epochs: {self.partition_epochs()})")
        old_files, new_files = files if files is not None else (None, None)
        old = self.resolve(p, as_of_txn=since_txn, gen=gen, files=old_files)
        new = self.resolve(p, as_of_txn=until_txn, gen=gen, files=new_files)
        return diff_snapshots(old, new, pre_images=pre_images)

    def _change_parts(self, since_txn: int, until_txn: int | None,
                      pre_images: bool, run):
        """``run`` (run_partition_jobs or jobs_dataset) over the window's
        per-partition diff jobs, see changes()."""
        from ..stages.merge import diff_snapshots

        g_until = (self.generation() if until_txn is None
                   else self._gen_for_txn(until_txn))
        g_since = self._gen_for_txn(since_txn)
        mans = self._manifests(g_until)
        new = self._files_at(mans, until_txn, g_until)
        if g_since == g_until:
            old = self._files_at(mans, since_txn, g_until)
            local = self._in_driver(
                f for fs_ in (*old.values(), *new.values()) for f in fs_)
            return run(Lake.partition_changes,
                       [(self, p, since_txn, until_txn, pre_images, g_until,
                         (old.get(p, []), new.get(p, []))) for p in sorted(mans)
                        if old.get(p) or new.get(p)], local)

        # ---- cross-generation window: re-hash the old snapshot ----
        old_mans = self._manifests(g_since)
        if not old_mans:
            raise ValueError(
                f"generation {g_since} manifests are gone (evolution on a "
                "non-history lake GCs them) — cross-boundary change feeds "
                "need init(history=True)")
        old = self._files_at(old_mans, since_txn, g_since)

        def diff_new(p: int, old_rows: pa.Table | None) -> pa.Table:
            return diff_snapshots(old_rows, self.resolve(p, files=new.get(p, [])),
                                  pre_images=pre_images)

        local = self._in_driver(
            f for fs_ in (*old.values(), *new.values()) for f in fs_)
        return self._rehash(
            sorted(old), lambda q: self.resolve(q, files=old[q]),
            self._num_partitions(g_until, self.meta()), diff_new, local, run)

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
        generation's manifests (history lakes retain them; non-history lakes
        GC them at evolution)."""
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
        version instead (time travel; partitions with no commit by then are
        skipped). Returns the plan — ``part_files``: the files to read per
        surviving partition — plus pruning counters so callers and tests
        can verify fewer files are opened."""
        from .predicate import normalize

        pred = normalize(predicate)
        gen = self._resolve_gen(None, as_of_txn)
        mans = self._manifests_at(self._manifests(gen), as_of_txn, gen)
        files_of = {p: [self._p(f) for f in m["files"]] for p, m in mans.items()}
        delta_parts = [p for p, m in mans.items() if m.get("n_deltas", 0) > 0]
        base = {p: fs_ for p, fs_ in files_of.items() if p not in delta_parts}
        n_base, n_delta = sum(map(len, base.values())), len(delta_parts)
        if pred is not None and pred.conjuncts:
            base = {p: [f for f in fs_ if pred.file_may_match(self.fs, f)]
                    for p, fs_ in base.items()}
            delta_parts = [p for p in delta_parts
                           if any(pred.file_may_match(self.fs, f)
                                  for f in files_of[p])]
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
