"""Out-of-program tracing: spans around calls into the engine's layers.

The engine is not modified. ``install`` wraps public (and a few
module-level) functions of each layer in place; the main process installs
it directly, and Ray workers install it from ``worker_setup``, a
``runtime_env`` ``worker_process_setup_hook``. A span is ``(id, name, start,
end, parent, request, attrs)`` with ``time.perf_counter`` stamps
(CLOCK_MONOTONIC, shared by every process on the host). Main-process spans
stay in memory until the run ends; a worker appends its spans to its own
file each time a top-level call returns, because Ray stops workers without
running exit handlers.

After the run, ``load`` adopts each worker's top-level spans into the
innermost main-process span whose interval contains them (the task ran
while the main process was inside that call), so phase, epoch/request id
and parent carry across processes, and ``layer_metrics`` turns the span
tree into the per-layer metrics. Self time = duration minus the union of
child spans.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    def __init__(self, flush_path: str | None = None):
        self.spans: list[list] = []  # [sid, name, start, end, parent, req, attrs]
        self._local = threading.local()
        self._flush_path = flush_path
        self._flushed = 0
        self.request_id: str | None = None
        self.paused = False

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current_name(self) -> str | None:
        st = self._stack()
        return self.spans[st[-1]][1] if st else None

    def begin(self, name: str, attrs: dict | None = None) -> int | None:
        if self.paused:
            return None
        st = self._stack()
        sid = len(self.spans)
        self.spans.append([sid, name, time.perf_counter(), None,
                           st[-1] if st else None, self.request_id,
                           attrs or {}])
        st.append(sid)
        return sid

    def end(self, sid: int | None, attrs: dict | None = None) -> None:
        if sid is None:
            return
        span = self.spans[sid]
        span[3] = time.perf_counter()
        if attrs:
            span[6].update(attrs)
        st = self._stack()
        while st and st.pop() != sid:
            pass
        if not st and self._flush_path is not None:
            self._flush()

    @contextmanager
    def span(self, name: str, **attrs):
        sid = self.begin(name, attrs)
        try:
            yield
        finally:
            self.end(sid)

    @contextmanager
    def request(self, req: str):
        prev, self.request_id = self.request_id, req
        try:
            yield
        finally:
            self.request_id = prev

    @contextmanager
    def pause(self):
        """Record nothing inside (correctness checks and bookkeeping)."""
        prev, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = prev

    def _flush(self) -> None:
        new = self.spans[self._flushed:]
        if not new:
            return
        with open(self._flush_path, "a") as f:
            f.write("".join(json.dumps(s) + "\n" for s in new))
        self._flushed = len(self.spans)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("".join(json.dumps(s) + "\n" for s in self.spans))


class NullTracer(Tracer):
    """Untraced runs: the same calls, nothing recorded."""

    def begin(self, name, attrs=None):
        return None

    @contextmanager
    def span(self, name, **attrs):
        yield

    @contextmanager
    def request(self, req):
        yield


# ---------------------------------------------------------------- patches

def _rows(t) -> int:
    return 0 if t is None else len(t)


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _wrap(owner, attr: str, tracer: Tracer, name: str, on_result=None,
          restore: list | None = None) -> None:
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            out = orig(*args, **kwargs)
        except BaseException:
            tracer.end(sid, {"error": True})
            raise
        tracer.end(sid, on_result(args, kwargs, out) if on_result and sid is not None else None)
        return out

    setattr(owner, attr, traced)
    if restore is not None:
        restore.append((owner, attr, orig))


def _merge_attrs(args, kwargs, out):
    p, tables = args[0], args[1]
    wm = kwargs.get("wm") or {}
    return {"rows_in": sum(len(t) for t in tables), "mode": out["mode"],
            "rows_out": out["row_count"], "existed": wm.get(p, -1) >= 0}


def _scan_attrs(args, kwargs, out):
    return {k: out[k] for k in ("base_files_total", "base_files_pruned",
                                "delta_parts_total", "delta_parts_pruned")}


def _replay_attrs(args, kwargs, out):
    return {"applied": out.read_succeed_records,
            "committed": out.partitions_committed,
            "skipped": out.partitions_skipped}


def install(tracer: Tracer):
    """Wrap every traced entry point; returns a callable that undoes it."""
    import ray.data

    from dataxray.pipelines import maintenance
    from dataxray.pipelines import replay as replay_mod
    from dataxray.sources import wal
    from dataxray.stages import exchange
    from dataxray.stages.decode import Validate
    from dataxray.stages.merge import BatchCombiner
    from dataxray.stages.partition import AssignPartition
    from dataxray.state.lakefs import LocalLakeFS
    from dataxray.state.manifest import Lake

    undo: list = []
    w = functools.partial(_wrap, tracer=tracer, restore=undo)
    # sources.wal
    w(wal, "scan_event_files", name="wal.scan",
      on_result=lambda a, k, r: {"files": len(r)})
    w(wal, "read_events", name="wal.read",
      on_result=lambda a, k, r: {"files": len(a[0]) if isinstance(a[0], list) else -1,
                                 "rows": r[2]})
    # stages
    w(Validate, "__call__", name="decode",
      on_result=lambda a, k, r: {"rows_in": len(a[1]), "rows_out": len(r)})
    w(AssignPartition, "__call__", name="partition",
      on_result=lambda a, k, r: {"rows": len(r)})
    w(BatchCombiner, "__call__", name="combine",
      on_result=lambda a, k, r: {"rows_in": len(a[1]), "rows_out": len(r)})
    w(exchange, "direct_exchange", name="exchange")
    w(exchange, "split_by_codes", name="exchange.split",
      on_result=lambda a, k, r: {"rows": len(a[0])})
    w(replay_mod, "_merge_tables", name="merge", on_result=_merge_attrs)
    # pipelines.replay
    w(replay_mod, "replay", name="replay", on_result=_replay_attrs)
    w(maintenance, "sweep_staging", name="replay.sweep")
    # state.manifest
    w(Lake, "commit", name="manifest.commit",
      on_result=lambda a, k, r: {"mode": k.get("mode", "rewrite"), "status": r})
    w(Lake, "watermarks", name="manifest.watermarks")
    w(Lake, "read_state", name="merge.read_state",
      on_result=lambda a, k, r: {"rows": _rows(r)})
    w(Lake, "read_state_raw", name="lake.read_raw",
      on_result=lambda a, k, r: {"rows": _rows(r)})
    w(Lake, "resolve", name="lake.resolve",
      on_result=lambda a, k, r: {"rows": _rows(r)})
    w(Lake, "lookup", name="lookup",
      on_result=lambda a, k, r: {"keys": len(a[1]), "rows": len(r)})
    w(Lake, "scan_plan", name="scan.plan", on_result=_scan_attrs)
    w(Lake, "dataset", name="scan.dataset")
    w(Lake, "changes_table", name="changes",
      on_result=lambda a, k, r: {"rows": len(r)})
    w(Lake, "partition_changes", name="changes.partition",
      on_result=lambda a, k, r: {"rows": len(r)})
    # state.lakefs
    w(LocalLakeFS, "read_json", name="fs.read_json")
    w(LocalLakeFS, "put_json", name="fs.put_json")
    w(LocalLakeFS, "list_names", name="fs.list")
    w(LocalLakeFS, "finalize", name="fs.finalize")
    w(LocalLakeFS, "read_parquet", name="fs.read_parquet",
      on_result=lambda a, k, r: {"bytes": _size(a[1])})
    w(LocalLakeFS, "write_parquet", name="fs.write_parquet",
      on_result=lambda a, k, r: {"bytes": _size(a[2])})

    # exchange drain = the split-submission loop over the dataset stream
    iter_bundles = ray.data.Dataset.iter_internal_ref_bundles

    def _drain(it):
        sid = tracer.begin("exchange.drain")
        try:
            yield from it
        finally:
            tracer.end(sid)

    @functools.wraps(iter_bundles)
    def traced_iter(self, *args, **kwargs):
        it = iter_bundles(self, *args, **kwargs)
        return _drain(it) if tracer.current_name() == "exchange" else it

    ray.data.Dataset.iter_internal_ref_bundles = traced_iter
    undo.append((ray.data.Dataset, "iter_internal_ref_bundles", iter_bundles))

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


def worker_setup() -> None:
    """``worker_process_setup_hook``: trace this Ray worker into its own file."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    tracer = Tracer(os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl"))
    install(tracer)


# ---------------------------------------------------------------- analysis

class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "req", "attrs",
                 "children", "phase")

    def __init__(self, sid, name, start, end, parent, req, attrs):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.req, self.attrs = parent, req, attrs
        self.children: list[Span] = []
        self.phase: str | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        covered, lo_end = 0.0, self.start
        for c in sorted(self.children, key=lambda c: c.start):
            s, e = max(c.start, lo_end), min(c.end, self.end)
            if e > s:
                covered += e - s
                lo_end = e
        return self.dur - covered

    def ancestors(self):
        p = self.parent
        while p is not None:
            yield p
            p = p.parent

    def record(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end,
                "parent": self.parent.sid if self.parent else None,
                "request": self.req, "phase": self.phase, **self.attrs}


def _read(path: str, tag: str) -> list[Span]:
    spans: dict[int, Span] = {}
    out = []
    with open(path) as f:
        for line in f:
            sid, name, start, end, parent, req, attrs = json.loads(line)
            if end is None:  # still open when the run ended
                continue
            s = Span(f"{tag}.{sid}", name, start, end, parent, req, attrs)
            spans[sid] = s
            out.append(s)
    for s in out:
        s.parent = spans.get(s.parent) if s.parent is not None else None
    return out


def load(trace_dir: str) -> list[Span]:
    """Main-process + worker spans as one tree (worker roots adopted by time)."""
    main = _read(os.path.join(trace_dir, "spans-main.jsonl"), "m")
    order = sorted(main, key=lambda s: s.start)
    starts = [s.start for s in order]
    every = list(main)
    for name in sorted(os.listdir(trace_dir)):
        if not name.startswith("spans-") or name == "spans-main.jsonl":
            continue
        spans = _read(os.path.join(trace_dir, name), name[6:-6])
        for s in spans:
            if s.parent is None:
                i = bisect.bisect_right(starts, s.start) - 1
                host = order[i] if i >= 0 else None
                while host is not None and host.end < s.end:
                    host = host.parent
                s.parent = host
                if host is not None:
                    s.req = host.req
        every.extend(spans)
    for s in every:
        if s.parent is not None:
            s.parent.children.append(s)
    for s in every:
        if s.name.startswith("phase."):
            s.phase = s.name[6:]
            continue
        for a in s.ancestors():
            if a.name.startswith("phase."):
                s.phase = a.name[6:]
                break
        if s.req is None:
            s.req = next((a.req for a in s.ancestors() if a.req), None)
    return every


def write_spans(spans: list[Span], path: str) -> None:
    with open(path, "w") as f:
        for s in sorted(spans, key=lambda s: s.start):
            f.write(json.dumps(s.record()) + "\n")


# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "wal.scan_s": "s", "wal.files_scanned": "count", "wal.files_read": "count",
    "wal.files_scanned_growth": "count", "wal.rows_read": "count",
    "decode.busy_s": "s", "decode.rows_in": "count", "decode.rows_dirty": "count",
    "partition.busy_s": "s",
    "combine.busy_s": "s", "combine.rows_in": "count", "combine.rows_out": "count",
    "exchange.drain_s": "s", "exchange.merge_tail_s": "s",
    "exchange.rows_moved": "count", "exchange.partition_skew": "ratio",
    "exchange.split_tasks": "count", "exchange.merge_tasks": "count",
    "merge.busy_s": "s", "merge.state_rows_read": "count",
    "merge.rows_written": "count", "merge.rewrite_count": "count",
    "merge.delta_count": "count",
    "manifest.commit_s": "s", "manifest.commits_data": "count",
    "manifest.commits_watermark": "count", "manifest.watermarks_calls": "count",
    "manifest.compactions": "count", "manifest.write_amp": "ratio",
    "lakefs.json_reads": "count", "lakefs.json_puts": "count",
    "lakefs.lists": "count", "lakefs.finalizes": "count",
    "lakefs.bytes_read": "B", "lakefs.bytes_written": "B",
    "replay.epochs": "count", "replay.epoch_s": "s", "replay.driver_s": "s",
    "replay.sweep_s": "s",
    "tail.shards_per_epoch": "count", "tail.backlog_max": "count",
    "tail.publish_late_s": "s",
    "lookup.partitions_touched": "count", "resolve.files_read": "count",
    "resolve.rows_read": "count", "resolve.rows_returned": "count",
    "scan.base_files_pruned": "count", "scan.base_files_total": "count",
    "scan.delta_parts_pruned": "count", "scan.delta_parts_total": "count",
    "changes.partitions": "count", "changes.rows": "count",
    "report.read_succeed_records": "count",
    "report.partitions_committed": "count",
    "report.partitions_skipped": "count",
}


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans: list[Span], phase: str, units: int,
                  tail_stats: dict, serve_rounds: int) -> dict[str, float]:
    """Per-layer metrics of one phase. Totals are divided by ``units`` (the
    phase's repetitions: backfill reps, 1 for the tail), so a count is per
    repetition and repeats exactly for a fixed seed. The read path's metrics
    (lookup, resolve, scan, change feed, bytes read) come from the serve
    rounds every workload runs, per op or per round."""
    def index(ss):
        by: dict[str, list[Span]] = {}
        for s in ss:
            by.setdefault(s.name, []).append(s)
        return lambda n: by.get(n, [])

    get = index([s for s in spans if s.phase == phase])
    get_sv = index([s for s in spans if s.phase == "serve"])
    per = lambda x: x / max(units, 1)  # noqa: E731

    def tot(name, key=None, where=None, get=get):
        ss = [s for s in get(name) if where is None or where(s)]
        return float(len(ss) if key is None else sum(s.attrs.get(key, 0) for s in ss))

    def sv(name, key=None, where=None):
        return tot(name, key, where, get=get_sv)

    def under(name):
        return lambda s: any(a.name == name for a in s.ancestors())

    epochs = sorted(get("replay"), key=lambda s: s.start)
    scanned = [sum(c.attrs.get("files", 0) for c in e.children if c.name == "wal.scan")
               for e in epochs]
    skews = []
    for ex in get("exchange"):
        rows = [c.attrs["rows_in"] for c in ex.children if c.name == "merge"]
        if rows and sum(rows):
            skews.append(max(rows) / (sum(rows) / len(rows)))
    tails = []
    for ex in get("exchange"):
        drains = [c for c in ex.children if c.name == "exchange.drain"]
        if drains:
            tails.append(ex.end - max(d.end for d in drains))
    merges = get("merge")
    applied = tot("replay", "applied")
    written = tot("merge", "rows_out")
    n_lookup = max(len(get_sv("lookup")), 1)
    n_scan = max(len(get_sv("scan.plan")), 1)
    n_changes = max(len(get_sv("changes")), 1)
    in_lookup = under("lookup")
    busy = lambda n: per(sum(s.self_time() for s in get(n)))  # noqa: E731
    m = {
        "wal.scan_s": per(sum(s.dur for s in get("wal.scan"))),
        "wal.files_scanned": per(tot("wal.scan", "files")),
        "wal.files_read": per(tot("wal.read", "files")),
        "wal.files_scanned_growth": float(scanned[-1] - scanned[0]) if scanned else 0.0,
        "wal.rows_read": per(tot("wal.read", "rows")),
        "decode.busy_s": busy("decode"),
        "decode.rows_in": per(tot("decode", "rows_in")),
        "decode.rows_dirty": per(tot("decode", "rows_in") - tot("decode", "rows_out")),
        "partition.busy_s": busy("partition"),
        "combine.busy_s": busy("combine"),
        "combine.rows_in": per(tot("combine", "rows_in")),
        "combine.rows_out": per(tot("combine", "rows_out")),
        "exchange.drain_s": per(sum(s.dur for s in get("exchange.drain"))),
        "exchange.merge_tail_s": per(sum(tails)),
        "exchange.rows_moved": per(tot("merge", "rows_in")),
        "exchange.partition_skew": _median(skews),
        "exchange.split_tasks": per(tot("exchange.split")),
        "exchange.merge_tasks": per(len(merges)),
        "merge.busy_s": busy("merge"),
        "merge.state_rows_read": per(tot("merge.read_state", "rows")),
        "merge.rows_written": per(written),
        "merge.rewrite_count": per(sum(s.attrs.get("mode") == "rewrite" for s in merges)),
        "merge.delta_count": per(sum(s.attrs.get("mode") == "delta" for s in merges)),
        "manifest.commit_s": per(sum(s.dur for s in get("manifest.commit"))),
        "manifest.commits_data": per(tot("manifest.commit", where=lambda s: s.attrs.get("mode") != "watermark")),
        "manifest.commits_watermark": per(tot("manifest.commit", where=lambda s: s.attrs.get("mode") == "watermark")),
        "manifest.watermarks_calls": per(tot("manifest.watermarks")),
        "manifest.compactions": per(sum(s.attrs.get("mode") == "rewrite" and s.attrs.get("existed", False)
                                        for s in merges)),
        "manifest.write_amp": written / applied if applied else 0.0,
        "lakefs.json_reads": per(tot("fs.read_json")),
        "lakefs.json_puts": per(tot("fs.put_json")),
        "lakefs.lists": per(tot("fs.list")),
        "lakefs.finalizes": per(tot("fs.finalize")),
        "lakefs.bytes_read": sv("fs.read_parquet", "bytes") / max(serve_rounds, 1),
        "lakefs.bytes_written": per(tot("fs.write_parquet", "bytes")),
        "replay.epochs": per(len(epochs)),
        "replay.epoch_s": _median([e.dur for e in epochs]),
        "replay.driver_s": _median([e.dur - sum(c.dur for c in e.children if c.name == "exchange")
                                    for e in epochs]),
        "replay.sweep_s": _median([sum(c.dur for c in e.children if c.name == "replay.sweep")
                                   for e in epochs]),
        "tail.shards_per_epoch": float(tail_stats.get("shards_per_epoch", 0.0)),
        "tail.backlog_max": float(tail_stats.get("backlog_max", 0)),
        "tail.publish_late_s": float(tail_stats.get("publish_late_s", 0.0)),
        "lookup.partitions_touched": sv("lake.resolve", where=in_lookup) / n_lookup,
        "resolve.files_read": sv("fs.read_parquet", where=in_lookup) / n_lookup,
        "resolve.rows_read": sv("lake.read_raw", "rows", where=in_lookup) / n_lookup,
        "resolve.rows_returned": sv("lake.resolve", "rows", where=in_lookup) / n_lookup,
        "scan.base_files_pruned": sv("scan.plan", "base_files_pruned") / n_scan,
        "scan.base_files_total": sv("scan.plan", "base_files_total") / n_scan,
        "scan.delta_parts_pruned": sv("scan.plan", "delta_parts_pruned") / n_scan,
        "scan.delta_parts_total": sv("scan.plan", "delta_parts_total") / n_scan,
        "changes.partitions": sv("changes.partition") / n_changes,
        "changes.rows": sv("changes", "rows") / n_changes,
        "report.read_succeed_records": per(applied),
        "report.partitions_committed": per(tot("replay", "committed")),
        "report.partitions_skipped": per(tot("replay", "skipped")),
    }
    assert list(m) == list(LAYER_METRICS)
    return m
