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
        out: dict[int, int] = {}
        mdir = self._mdir(gen)
        for name in self.fs.list_names(mdir):
            if name.startswith("part-") and name.endswith(".json"):
                m = self.fs.read_json(os.path.join(mdir, name))
                out[m["partition"]] = m["txn_hi"]
        return out

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
                       gen: int | None = None) -> pa.Table | None:
        """Concat of base + delta files — may contain superseded rows and
        tombstones; LWW lineage (txn_id, seq) resolves them."""
        files = self.partition_files(p, as_of_txn, gen)
        if not files:
            return None
        return pa.concat_tables(
            [self.fs.read_parquet(f) for f in files], promote_options="permissive"
        )

    # kept as the merge-path API: raw is correct input for an LWW merge
    read_state = read_state_raw

    def resolve(self, p: int, as_of_txn: int | None = None,
                gen: int | None = None) -> pa.Table | None:
        """Materialized view of a partition: LWW over base+deltas, tombstones
        dropped, op column removed (delta-file resolution). ``as_of_txn``
        resolves the snapshot at a retained historical commit instead
        (requires init(history=True) for snapshots older than the current);
        across a partition evolution it resolves in the generation active at
        that txn (where ``p`` means the OLD layout's bucket)."""
        from ..stages.merge import resolve_state

        raw = self.read_state_raw(p, as_of_txn, gen)
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
        """Compact delta-bearing partitions; returns count compacted.
        Distributed when Ray is up (one task per partition).

        min_delta_bytes schedules by accumulated DELTA VOLUME rather than
        file count: a hot partition with many large deltas compacts early, a
        cold one with a few tiny deltas is left alone — the knob that keeps
        steady-state compaction I/O proportional to churn, not to partition
        count."""
        parts = [p for p in self.watermarks()
                 if (self.manifest(p) or {}).get("n_deltas", 0) > 0]
        if min_delta_bytes is not None:
            parts = [p for p in parts if self.delta_bytes(p) >= min_delta_bytes]
        if not parts:
            return 0
        if parallel:
            try:
                import ray

                if ray.is_initialized():
                    root = self.root
                    fn = ray.remote(num_cpus=1)(
                        lambda p: Lake(root).compact_partition(p))
                    return sum(r == "committed"
                               for r in ray.get([fn.remote(p) for p in parts]))
            except Exception:  # pragma: no cover
                pass
        return sum(self.compact_partition(p) == "committed" for p in parts)

    def cleanup_staging(self, run_id: str) -> None:
        self.fs.delete_tree(self._p(STAGING, run_id))

    # ---------- online partition evolution ----------
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
        wm = self.watermarks(old_gen)
        boundary = min(wm.values(), default=0)
        run_id = f"evolve-{_uuid.uuid4().hex[:8]}"
        root = self.root

        nret = max(new_num_partitions, 2)  # Ray unpacks only num_returns>=2

        def split_one(p: int) -> tuple:
            from ..hashing import partition_of
            from ..stages.exchange import split_by_part
            from ..schema import PART_COL

            t = Lake(root).resolve(p, gen=old_gen)
            if t is None or len(t) == 0:
                return tuple([None] * nret)
            codes = partition_of(t["url"], new_num_partitions)
            t = t.append_column(PART_COL, pa.array(codes))
            out = list(split_by_part(t, new_num_partitions))
            while len(out) < nret:
                out.append(None)
            return tuple(out)

        def write_one(q: int, *pieces) -> dict | None:
            lk = Lake(root)
            parts = [t for t in pieces if t is not None and len(t)]
            if not parts:
                return None
            merged = pa.concat_tables(parts, promote_options="permissive")
            return lk.write_staged(run_id, q, merged)

        use_ray = False
        try:
            import ray

            use_ray = ray.is_initialized()
        except Exception:  # pragma: no cover
            pass
        src_parts = sorted(wm)
        if use_ray:
            import ray

            rsplit = ray.remote(num_cpus=1, num_returns=nret)(split_one)
            rwrite = ray.remote(num_cpus=1)(write_one)
            outs = {p: rsplit.remote(p) for p in src_parts}
            staged = ray.get([
                rwrite.remote(q, *[outs[p][q] for p in src_parts])
                for q in range(new_num_partitions)])
        else:
            split = {p: split_one(p) for p in src_parts}
            staged = [write_one(q, *[split[p][q] for p in src_parts])
                      for q in range(new_num_partitions)]

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

    def lookup(self, urls: list[str], as_of_txn: int | None = None,
               columns: list[str] | None = None) -> pa.Table:
        """Primary-key point lookup: hash each url to its bucket and
        resolve ONLY the touched partitions (≤ len(urls) of them, typically
        ≪ P), then filter to the requested keys — the O(keys/P) GET path a
        serving layer needs, no full scan, no shuffle. Distributed: one
        task per touched partition; absent keys simply return no row.
        ``as_of_txn`` looks up in a retained historical snapshot."""
        import ray

        from ..hashing import partition_of

        if not urls:
            return pa.table({})
        gen = self._resolve_gen(None, as_of_txn)
        p_of = partition_of(pa.array(urls, pa.string()),
                            self.num_partitions())
        by_part: dict[int, list[str]] = {}
        for u, p in zip(urls, p_of.tolist()):
            by_part.setdefault(int(p), []).append(u)
        committed = self.watermarks(gen)
        root = self.root

        @ray.remote(num_cpus=1)
        def fetch(p: int, keys: list[str]) -> pa.Table | None:
            import pyarrow.compute as _pc

            t = Lake(root).resolve(p, as_of_txn, gen)
            if t is None:
                return None
            t = t.filter(_pc.is_in(t["url"],
                                   value_set=pa.array(keys, pa.string())))
            if columns:
                t = t.select(columns)
            return t if len(t) else None

        refs = [fetch.remote(p, ks) for p, ks in sorted(by_part.items())
                if p in committed]
        parts = [t for t in ray.get(refs) if t is not None]
        if not parts:
            return pa.table({})
        return pa.concat_tables(parts, promote_options="permissive")

    # ---------- change feed ----------
    def partition_changes(self, p: int, since_txn: int,
                          until_txn: int | None = None,
                          pre_images: bool = False,
                          gen: int | None = None) -> pa.Table:
        """CDF for one partition: diff of the resolved snapshots as of
        ``since_txn`` and ``until_txn`` (None = current). ``_change_type`` ∈
        {insert, update, delete}; see stages.merge.diff_snapshots. since_txn
        < the first commit diffs against the empty snapshot (all inserts).
        Both snapshots must live in the SAME generation ``gen`` (partition
        ids change meaning across an evolution) — ``changes()`` routes
        cross-generation windows through the re-hash path instead."""
        from ..stages.merge import diff_snapshots

        gen = self.generation() if gen is None else gen
        if self._gen_for_txn(since_txn) != gen or (
                until_txn is not None and self._gen_for_txn(until_txn) != gen):
            raise ValueError(
                "partition_changes cannot diff across a partition-evolution "
                "boundary (partition ids change meaning); use Lake.changes()"
                f" (epochs: {self.partition_epochs()})")
        old = self.resolve(p, as_of_txn=since_txn, gen=gen)
        new = self.resolve(p, gen=gen) if until_txn is None \
            else self.resolve(p, as_of_txn=until_txn, gen=gen)
        return diff_snapshots(old, new, pre_images=pre_images)

    def changes(self, since_txn: int, until_txn: int | None = None,
                pre_images: bool = False):
        """Distributed change feed: one remote diff task per partition (the
        diff is partition-local by construction — both snapshots hash on the
        same key — so no shuffle), returned as a Ray Dataset.

        When the window CROSSES a partition-evolution boundary, partition
        ids change meaning, so the old snapshot is first RE-HASHED into the
        until-side generation's bucketing (one split task per old
        partition, same machinery as evolve_partitions) and each new-gen
        partition diffs its re-bucketed old state against its own snapshot
        — one extra exchange of the old snapshot, still no global shuffle
        of the new side. Requires the old generation's manifests (history
        lakes retain them; non-history lakes GC them at evolution)."""
        import ray
        import ray.data

        root = self.root
        g_until = (self.generation() if until_txn is None
                   else self._gen_for_txn(until_txn))
        g_since = self._gen_for_txn(since_txn)

        if g_since == g_until:
            @ray.remote(num_cpus=1)
            def _diff(p: int):
                return Lake(root).partition_changes(
                    p, since_txn, until_txn, pre_images=pre_images,
                    gen=g_until)

            parts = sorted(self.watermarks(g_until))
            if not parts:
                return ray.data.from_items([])
            refs = [_diff.remote(p) for p in parts]
            # settle the refs before handing them to Dataset: building a
            # Dataset over still-pending tiny task outputs intermittently
            # trips a Ray core ref-count race (reference_count.cc CHECK on
            # inlined dependencies, observed twice in gate sweeps); waiting
            # costs nothing — the diffs must finish before any consumer
            ray.wait(refs, num_returns=len(refs), fetch_local=False)
            return ray.data.from_arrow_refs(refs)

        # ---- cross-generation window ----
        old_parts = sorted(self.watermarks(g_since))
        if not old_parts:
            raise ValueError(
                f"generation {g_since} manifests are gone (evolution on a "
                "non-history lake GCs them) — cross-boundary change feeds "
                "need init(history=True)")
        new_parts = sorted(self.watermarks(g_until))
        new_p = len(new_parts)
        nret = max(new_p, 2)

        @ray.remote(num_cpus=1, num_returns=nret)
        def _split_old(q: int) -> tuple:
            from ..hashing import partition_of
            from ..schema import PART_COL
            from ..stages.exchange import split_by_part

            t = Lake(root).resolve(q, as_of_txn=since_txn, gen=g_since)
            if t is None or len(t) == 0:
                return tuple([None] * nret)
            codes = partition_of(t["url"], new_p)
            t = t.append_column(PART_COL, pa.array(codes))
            out = list(split_by_part(t, new_p))
            while len(out) < nret:
                out.append(None)
            return tuple(out)

        @ray.remote(num_cpus=1)
        def _diff_new(p: int, *pieces) -> pa.Table:
            from ..stages.merge import diff_snapshots

            olds = [t for t in pieces if t is not None and len(t)]
            old = pa.concat_tables(olds, promote_options="permissive") \
                if olds else None
            lk = Lake(root)
            new = (lk.resolve(p, gen=g_until) if until_txn is None
                   else lk.resolve(p, as_of_txn=until_txn, gen=g_until))
            return diff_snapshots(old, new, pre_images=pre_images)

        outs = {q: _split_old.remote(q) for q in old_parts}
        refs = [_diff_new.remote(p, *[outs[q][p] for q in old_parts])
                for p in new_parts]
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
        return ray.data.from_arrow_refs(refs)

    def changes_table(self, since_txn: int, until_txn: int | None = None,
                      pre_images: bool = False) -> pa.Table:
        """Driver-side change feed (tests / small results only). Routes
        through the distributed path when the window crosses an evolution
        boundary (the re-hash needs Ray)."""
        import ray

        g_until = (self.generation() if until_txn is None
                   else self._gen_for_txn(until_txn))
        if self._gen_for_txn(since_txn) != g_until:
            ds = self.changes(since_txn, until_txn, pre_images=pre_images)
            parts = [t for t in ray.get(ds.to_arrow_refs())
                     if t is not None and len(t)]
        else:
            parts = [self.partition_changes(p, since_txn, until_txn,
                                            pre_images=pre_images,
                                            gen=g_until)
                     for p in sorted(self.watermarks(g_until))]
            parts = [t for t in parts if t is not None and len(t)]
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
        skipped). Returns the plan plus pruning counters so callers and tests
        can verify fewer files are opened."""
        from .predicate import normalize

        pred = normalize(predicate)
        gen = self._resolve_gen(None, as_of_txn)
        wm = self.watermarks(gen)
        mans = {p: (self.manifest(p, gen) if as_of_txn is None
                    else self.manifest_as_of(p, as_of_txn, gen)) for p in wm}
        mans = {p: m for p, m in mans.items() if m is not None}
        delta_parts = sorted(
            p for p, m in mans.items() if m.get("n_deltas", 0) > 0)
        # thread the already-resolved manifests into file listing instead of
        # re-resolving via partition_files → manifest_as_of → versions (each
        # of which re-reads the whole history dir on object stores)
        files_of = {p: [self._p(f) for f in m["files"]]
                    for p, m in mans.items()}
        base_files = [f for p in sorted(mans) if p not in delta_parts
                      for f in files_of[p]]
        n_base, n_delta = len(base_files), len(delta_parts)
        if pred is not None and pred.conjuncts:
            base_files = [f for f in base_files
                          if pred.file_may_match(self.fs, f)]
            delta_parts = [p for p in delta_parts
                           if any(pred.file_may_match(self.fs, f)
                                  for f in files_of[p])]
        return {
            "predicate": pred,
            "base_files": base_files,
            "delta_parts": delta_parts,
            "base_files_total": n_base,
            "base_files_pruned": n_base - len(base_files),
            "delta_parts_total": n_delta,
            "delta_parts_pruned": n_delta - len(delta_parts),
        }

    def dataset(self, columns: list[str] | None = None, predicate=None,
                as_of_txn: int | None = None, **kwargs):
        """Distributed read of the current lake snapshot. Partitions with
        delta files resolve inside one remote task each (partition-local LWW
        — no shuffle); pure-base partitions stream via read_parquet. Column
        pruning applies on BOTH paths (delta resolution must still read the
        key/lineage/op columns to run LWW, then projects).

        ``predicate`` — a list of ``(col, op, value)`` conjuncts or a
        ``state.predicate.Predicate`` — pushes down in three layers (see
        that module's docstring): footer-stats file/partition pruning, an
        Arrow scan filter on the base path, and post-LWW-resolve filtering
        inside each delta partition's resolve task.

        ``as_of_txn`` — distributed time travel: stream the snapshot at the
        retained historical commit instead (init(history=True) lakes)."""
        import ray
        import ray.data

        plan = self.scan_plan(predicate, as_of_txn=as_of_txn)
        pred = plan["predicate"]
        pieces = []
        if plan["base_files"]:
            if self.fs.pafs is not None and "filesystem" not in kwargs:
                kwargs = {**kwargs, "filesystem": self.fs.pafs}
            if pred is not None and pred.conjuncts:
                kwargs = {**kwargs, "filter": pred.to_expression()}
            pieces.append(ray.data.read_parquet(plan["base_files"],
                                                columns=columns, **kwargs))
        if plan["delta_parts"]:
            root = self.root
            conjuncts = pred.conjuncts if pred is not None else []

            @ray.remote(num_cpus=1)
            def _resolve(p: int):
                from .predicate import Predicate

                t = Lake(root).resolve(p, as_of_txn=as_of_txn)
                if conjuncts:
                    t = Predicate(conjuncts).filter_table(t)
                return t.select(columns) if columns else t

            refs = [_resolve.remote(p) for p in plan["delta_parts"]]
            ray.wait(refs, num_returns=len(refs), fetch_local=False)
            pieces.append(ray.data.from_arrow_refs(refs))
        if not pieces:
            return ray.data.from_items([])
        ds = pieces[0]
        for extra in pieces[1:]:
            ds = ds.union(extra)
        return ds
