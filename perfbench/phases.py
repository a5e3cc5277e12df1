"""The benchmark's run lifecycle. Every workload runs the same phases on one
working history lake; the workload picks the measured phase (backfill or
tail):

    set-up   Ray init, bootstrap of the working lake from base pages + WAL
             backlog (the first one also starts the Ray workers); more
             bootstraps into fresh lakes later in the run, median reported
    tail     one consumer publishes every due WAL segment (a file move into
             the WAL dir), then runs one delta-sink ``replay`` epoch;
             segments fall due at a fixed rate (open loop, tail workload)
             or one at a time as the previous epoch returns (closed loop)
    serve    closed loop: one client repeats a fixed seeded round of
             lookups, predicate scans and change-feed reads, a fixed number
             of times
    backfill (backfill workload only) fresh-lake replays of one large
             backlog with ``ReplayConfig()`` defaults, repeated for --seconds

The fresh-lake units (later bootstraps, backfill reps) are interleaved with
the working lake's tail and serve units; see ``Run.execute``. The engine is
driven only through its public API. Every timed operation is checked
against ``reference.Reference`` outside its timed region.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .config import LOOKUP_KEYS, SETTLE_SHARDS, Size
from .inputs import materialize
from .reference import Reference, lake_matches
from .tracing import NullTracer, Tracer

LANGS = ["en", "de", "zh", "fr", "es", "pt", "ru", "ja"]


def pct(xs: list[float], q: int) -> float:
    """q-th percentile (inclusive method); the value itself for one sample."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def url(i: int) -> str:
    return f"https://host{i % 97}.example/p/{i}"


class Ops:
    """Operations attempted and failed (exceptions + wrong answers)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {reason}")


def _link_dir(files: list[str], d: str) -> str:
    os.makedirs(d)
    for f in files:
        os.link(f, os.path.join(d, os.path.basename(f)))
    return d


def _freeze_heap() -> None:
    """Move the harness's own objects (reference tables, expected answers)
    out of the garbage collector's reach, so collections triggered inside a
    timed engine call do not scan them."""
    gc.collect()
    gc.freeze()


def lake_bytes(lake_dir: str) -> int:
    from dataxray.state.manifest import Lake

    return sum(os.path.getsize(f) for f in Lake(lake_dir).all_files())


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, size: Size,
                 work_root: str, run_dir: str, tracer: Tracer | None = None,
                 clock=time.perf_counter):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.size = size
        self.cache = os.path.join(work_root, "cache")
        self.dir = run_dir
        self.tracer = tracer or NullTracer()
        # every measured interval is read on this clock (envinfo.RunClock:
        # steal excluded); phase walls stay plain wall time
        self.clock = clock
        self.ops = Ops()
        self.m: dict = {}  # end-to-end metric values
        self.n: dict = {}  # sample count behind each metric
        self.ctx: dict = {}  # context: reference baseline, loop stats
        self.rss = None  # envinfo.RssSampler, set by execute()

    # ------------------------------------------------------------ inputs
    def prepare(self) -> None:
        """Generate (or reuse) inputs and the reference; never timed."""
        started = time.perf_counter()
        self.tail_n = self.size.tail_shards(self.workload, self.seconds)
        settle = SETTLE_SHARDS if self.workload == "tail" else 0
        self.work = materialize(f"work-{self.workload}",
                                self.size.working_log(self.tail_n + settle),
                                self.seed, self.cache)
        t = self.clock()
        self.ref = Reference(self.work.pages, self.work.backlog + self.work.tail)
        self.ref.snapshot()
        ref_s = self.clock() - t
        events = self.work.n_events + self.work.n_pages
        if self.workload == "backfill":
            self.bf = materialize("backfill", self.size.backfill_log(),
                                  self.seed, self.cache)
            t = self.clock()
            self.bf_ref = Reference(self.bf.pages, self.bf.backlog)
            self.bf_snap = self.bf_ref.snapshot()
            ref_s = self.clock() - t
            events = self.bf.n_events + self.bf.n_pages
        self.ctx["reference_lww_s"] = ref_s
        self.ctx["reference_events_per_s"] = events / ref_s
        # every expected answer is built here, before the memory sampler
        # takes the harness's baseline: all tail segments are applied, so
        # the final state is known up front
        self.final_txn = self.work.tail_txn_hi[-1]
        self.ref.snapshot(self.work.backlog_txn_hi)
        self.serve_ops = self._serve_ops(np.random.default_rng([self.seed, 0x5E7E]))
        self.ctx["phase_wall_s"] = {"prepare": time.perf_counter() - started}
        os.makedirs(self.dir)
        self.tail_names = [os.path.basename(p) for p in self.work.tail[:self.tail_n]]
        self.wal = _link_dir(self.work.backlog, os.path.join(self.dir, "wal"))
        self.boot_wal = _link_dir(self.work.backlog, os.path.join(self.dir, "boot_wal"))
        self.pending = _link_dir(self.work.tail, os.path.join(self.dir, "pending"))
        if self.workload == "backfill":
            self.bf_wal = _link_dir(self.bf.backlog, os.path.join(self.dir, "bf_wal"))

    # ------------------------------------------------------------ units
    # A run is a sequence of units. Units on the working lake run in
    # lifecycle order (bootstrap, tail epochs, serve rounds); units on fresh
    # lakes of their own (the warm set-up bootstraps, the backfill reps) are
    # interleaved between them, so every metric's samples are spread over
    # the whole run rather than one window of it: the host's speed drifts
    # by up to 20 % over a few seconds, and a short window catches a single
    # level of it.
    def setup(self, init_ray) -> None:
        """Ray init + the first (cold) bootstrap, whose lake is the working
        lake; the other bootstraps are ``bootstrap`` units."""
        with self.tracer.span("phase.setup"):
            t = self.clock()
            init_ray()
            self.ctx["ray_init_s"] = self.clock() - t
            self.lake = self._bootstrap(self.wal)

    def bootstrap(self) -> None:
        """A warm set-up repetition into a fresh lake, removed after its
        check. It reads its own copy of the backlog directory: the working
        WAL directory gains tail segments as the run goes on."""
        with self.tracer.span("phase.setup"):
            lake = self._bootstrap(self.boot_wal)
        shutil.rmtree(lake, ignore_errors=True)

    def _bootstrap(self, wal: str) -> str:
        from dataxray.pipelines import replay as rp

        i = len(self.boots)
        lake = os.path.join(self.dir, f"lake-{i}")
        events = self.work.n_pages + self.size.backlog_shards * self.size.shard_events
        with self.tracer.request(f"bootstrap-{i}"):
            t = self.clock()
            try:
                rp.replay(wal, lake, pages_path=self.work.pages, cfg=self._work_cfg())
                err = None
            except Exception as e:  # a failed op is reported, not fatal
                err = f"{type(e).__name__}: {e}"
            dt = self.clock() - t
        self.boots.append(dt)
        self.boot_rates.append(events / dt)
        with self._untimed():
            snap = self.ref.snapshot(self.work.backlog_txn_hi)
            self.ops.check(f"bootstrap {i}", err or self._lake_check(lake, snap))
        return lake

    def backfill_rep(self) -> None:
        """One fresh-lake replay of the backfill backlog, ``ReplayConfig()``
        defaults; the lake is removed after its check."""
        from dataxray.pipelines import replay as rp

        rep = len(self.bf_rates)
        lake = os.path.join(self.dir, f"bf-lake-{rep}")
        with self.tracer.span("phase.backfill"), self.tracer.request(f"backfill-{rep}"):
            t = self.clock()
            try:
                rp.replay(self.bf_wal, lake, pages_path=self.bf.pages, cfg=rp.ReplayConfig())
                err = None
            except Exception as e:
                err = f"{type(e).__name__}: {e}"
            dt = self.clock() - t
        self.bf_timed += dt
        self.bf_rates.append((self.bf.n_events + self.bf.n_pages) / dt)
        with self._untimed():
            err = err or self._lake_check(lake, self.bf_snap)
            self.ops.check(f"backfill {rep}", err)
            if err is None:
                self.bf_lake_mb = lake_bytes(lake) / 2**20
        shutil.rmtree(lake, ignore_errors=True)

    def backfill_more(self) -> bool:
        """At least ``backfill_min_reps``, then every rep that should end
        within --seconds of replay time."""
        rep = len(self.bf_rates)
        return (rep < self.size.backfill_min_reps
                or self.bf_timed + self.bf_timed / rep <= self.seconds)

    def tail_open(self) -> None:
        """The tail workload: every segment, due at a fixed rate."""
        with self.tracer.span("phase.tail"):
            self._tail(self.tail_names, open_loop=True)

    def tail_closed(self, names: list[str]) -> None:
        """Segments due one at a time, as the previous epoch returns."""
        with self.tracer.span("phase.tail"):
            self._tail(names, open_loop=False)

    def _tail(self, names: list[str], open_loop: bool) -> None:
        fresh, per_epoch, late_max, backlog_max = self._tail_loop(names, open_loop)
        tl = self.tl
        tl["fresh"] += fresh
        tl["per_epoch"] += per_epoch
        tl["late_max"] = max(tl["late_max"], late_max)
        tl["backlog_max"] = max(tl["backlog_max"], backlog_max)

    def _tail_loop(self, names: list[str], open_loop: bool) -> tuple:
        from dataxray.pipelines import replay as rp

        cfg = rp.ReplayConfig(sink_mode="delta")
        rate = self.size.tail_rate
        due: list[float] = []
        fresh, per_epoch = [], []
        late_max, backlog_max = 0.0, 0
        published = applied = 0
        t0 = self.clock()
        while applied < len(names):
            now = self.clock()
            if not open_loop:
                due.append(now)
            while open_loop and len(due) < len(names) and t0 + len(due) / rate <= now:
                due.append(t0 + len(due) / rate)
            while published < len(due):
                os.rename(os.path.join(self.pending, names[published]),
                          os.path.join(self.wal, names[published]))
                late_max = max(late_max, self.clock() - due[published])
                published += 1
            if published == applied:
                time.sleep(max(t0 + published / rate - self.clock(), 0))
                continue
            backlog_max = max(backlog_max, published - applied)
            self.n_epochs += 1
            with self.tracer.request(f"epoch-{self.n_epochs}"):
                try:
                    rp.replay(self.wal, self.lake, cfg=cfg)
                    err = None
                except Exception as e:
                    err = f"{type(e).__name__}: {e}"
            done = self.clock()
            self.ops.check(f"tail epoch {self.n_epochs}", err)
            if err is not None:
                break
            fresh += [done - due[i] for i in range(applied, published)]
            per_epoch.append(published - applied)
            applied = published
        return fresh, per_epoch, late_max, backlog_max

    def settle(self) -> None:
        """Tail workload, untimed: the open loop leaves a timing-dependent
        number of deltas since the last auto-compaction. Compact, then apply
        the remaining segments one epoch each, so lake_mb and the serve
        phase see the same layout on every run, with deltas in every
        partition as on backfill (serving a fully compacted
        lake was erratic on one pinned core). Compaction runs in this
        process, not as Ray tasks."""
        from dataxray.state.manifest import Lake

        names = [os.path.basename(p) for p in self.work.tail[self.tail_n:]]
        with self._untimed():
            try:
                self.ctx["tail_lake_mb_before_compaction"] = lake_bytes(self.lake) / 2**20
                Lake(self.lake).compact_all(parallel=False)
                err = None
            except Exception as e:
                err = f"{type(e).__name__}: {e}"
            self.ops.check("compaction", err)
            self._tail_loop(names, open_loop=False)

    def _serve_ops(self, rng: np.random.Generator) -> list[tuple]:
        """One fixed seeded round of (kind, args, expected) operations: the
        lookups, a language-equality scan, a recent-changes scan and the
        change feeds since the bootstrap. Lookup keys follow the writes' url
        popularity (the generator's Zipf draw), plus one never-written url
        per batch. Every seed gives the same shape and order, so per-round
        costs are comparable across seeds."""
        u = self.size.n_urls
        now = self.ref.snapshot(self.final_txn)
        rows = {k: i for i, k in enumerate(now["url"].to_pylist())}
        text = now["text"]
        # the recent-changes scan keeps rows written in the tail's second half
        mid = self.work.tail_txn_hi[len(self.work.tail_txn_hi) // 2 - 1]
        since = self.work.backlog_txn_hi
        lookups = []
        for _ in range(self.size.lookups_per_round):
            ids = (rng.zipf(1.1, size=LOOKUP_KEYS - 1) - 1) % u
            keys = [url(int(i)) for i in ids] + [url(u + int(rng.integers(0, u)))]
            want = {k: text[rows[k]].as_py() for k in keys if k in rows}
            lookups.append(("lookup", keys, want))
        lang = LANGS[int(rng.integers(0, len(LANGS)))]
        scans = [("scan", ([("lang", "==", lang)], ["url", "lang"]),
                  int(pc.sum(pc.equal(now["lang"], lang)).as_py() or 0)),
                 ("scan", ([("txn_id", ">", mid)], ["url", "txn_id"]),
                  int(pc.sum(pc.greater(now["txn_id"], mid)).as_py() or 0))]
        feed = ("changes", since, self._expected_changes(since, now))
        # each kind spread over the round: a quarter of the lookups before
        # each scan and each change feed
        q = len(lookups) // 4
        ops = []
        for i, op in enumerate([scans[0], feed, scans[1], feed]):
            ops += lookups[i * q:(i + 1) * q] + [op]
        return ops + lookups[4 * q:]

    def _expected_changes(self, since: int, now: pa.Table) -> set:
        old = self.ref.snapshot(since)
        o = dict(zip(old["url"].to_pylist(),
                     zip(old["txn_id"].to_pylist(), old["seq"].to_pylist())))
        out = set()
        for k, t, q in zip(now["url"].to_pylist(), now["txn_id"].to_pylist(),
                           now["seq"].to_pylist()):
            if k not in o:
                out.add((k, "insert", t, q))
            elif o.pop(k) != (t, q):
                out.add((k, "update", t, q))
        out.update((k, "delete", t, q) for k, (t, q) in o.items())
        return out

    def serve_round(self) -> None:
        """One pass over the fixed op list; the first call also runs an
        untimed warm-up of one op of each kind, so lazy first-use costs land
        outside the measurement."""
        from dataxray.state.manifest import Lake

        lake = Lake(self.lake)
        sv = self.sv
        if not sv["rounds"]:
            first = {}
            for op in self.serve_ops:
                first.setdefault(op[0], op)
            with self._untimed():
                for kind, arg, _ in first.values():
                    try:
                        self._serve_op(lake, kind, arg)
                    except Exception:  # the timed op of this kind records it
                        pass
        rnd = sv["rounds"]
        with self.tracer.span("phase.serve"):
            for j, (kind, arg, want) in enumerate(self.serve_ops):
                with self.tracer.request(f"{kind}-{rnd}-{j}"):
                    t = self.clock()
                    try:
                        got = self._serve_op(lake, kind, arg)
                        err = None
                    except Exception as e:
                        got, err = None, f"{type(e).__name__}: {e}"
                    dt = self.clock() - t
                with self._untimed():
                    if err is None:
                        err = self._serve_check(kind, got, want)
                    del got
                self.ops.check(f"{kind} {rnd}.{j}", err)
                if kind == "lookup":
                    sv["lookup_s"].append(dt)
                elif kind == "changes":
                    sv["changefeed_s"].append(dt)
                else:
                    sv["scan_rows_s"].append((want if err is None else 0, dt))
        sv["rounds"] += 1

    @staticmethod
    def _serve_op(lake, kind: str, arg):
        if kind == "lookup":
            return lake.lookup(arg)
        if kind == "scan":
            pred, cols = arg
            return lake.dataset(predicate=pred, columns=cols).count()
        return lake.changes_table(since_txn=arg)

    @staticmethod
    def _serve_check(kind: str, got, want) -> str | None:
        if kind == "lookup":
            have = (dict(zip(got["url"].to_pylist(), got["text"].to_pylist()))
                    if len(got) else {})
            return None if have == want else f"{len(have)} rows, expected {len(want)}"
        if kind == "scan":
            return None if got == want else f"count {got}, expected {want}"
        have = set()
        if len(got):
            have = set(zip(got["url"].to_pylist(), got["_change_type"].to_pylist(),
                           got["txn_id"].to_pylist(), got["seq"].to_pylist()))
        return None if have == want else f"{len(have)} change rows, expected {len(want)}"

    # ------------------------------------------------------------ helpers
    @contextmanager
    def _untimed(self):
        """Checks and bookkeeping: no spans, no memory samples."""
        with self.tracer.pause(), (self.rss.pause() if self.rss else nullcontext()):
            yield

    @staticmethod
    def _work_cfg():
        from dataxray.pipelines.replay import ReplayConfig

        # the working lake keeps history so the serve phase's change feed
        # can diff earlier epoch snapshots
        return ReplayConfig(sink_mode="delta", history=True)

    @staticmethod
    def _lake_check(lake_dir: str, snap: pa.Table) -> str | None:
        from dataxray.state.manifest import Lake

        try:
            return lake_matches(Lake(lake_dir).read_all(), snap)
        except Exception as e:  # an unreadable lake is a wrong answer, not a crash
            return f"reading the lake: {type(e).__name__}: {e}"

    def execute(self, init_ray, rss=None) -> None:
        """Set-up, then the workload's schedule of units (see ``units``).
        ``rss`` (an ``envinfo.RssSampler``) is paused during checks."""
        self.rss = rss
        _freeze_heap()
        walls = self.ctx["phase_wall_s"]
        self.boots, self.boot_rates = [], []
        self.bf_rates, self.bf_timed, self.bf_lake_mb = [], 0.0, 0.0
        self.tl = {"fresh": [], "per_epoch": [], "late_max": 0.0, "backlog_max": 0}
        self.n_epochs = 0  # every tail epoch of the run, settle's included
        self.sv = {"rounds": 0, "lookup_s": [], "changefeed_s": [],
                   "scan_rows_s": []}

        def run(name, fn, *args):
            t = time.perf_counter()
            fn(*args)
            walls[name] = walls.get(name, 0.0) + time.perf_counter() - t

        run("setup", self.setup, init_ray)
        warm = self.size.bootstraps - 1

        def fresh_unit():
            """The next fresh-lake unit, or None: the warm bootstraps, and
            on backfill the backfill reps, alternating."""
            boots_left = warm - (len(self.boots) - 1)
            if self.workload == "backfill":
                if boots_left and len(self.bf_rates) >= warm - boots_left:
                    return self.bootstrap
                if self.backfill_more():
                    return self.backfill_rep
            return self.bootstrap if boots_left else None

        def run_fresh():
            unit = fresh_unit()
            if unit is not None:
                run("setup" if unit == self.bootstrap else "backfill", unit)

        if self.workload == "tail":
            run("tail", self.tail_open)
            self.settle()
        else:
            k = self.size.tail_chunk
            starts = range(0, len(self.tail_names), k)
            for i in starts:
                run("tail", self.tail_closed, self.tail_names[i:i + k])
                if i != starts[-1]:
                    run_fresh()
        with self._untimed():
            self.ops.check("tail final state",
                           self._lake_check(self.lake, self.ref.snapshot(self.final_txn)))
            try:
                self.m["lake_mb"] = lake_bytes(self.lake) / 2**20
            except Exception as e:
                self.m["lake_mb"] = 0.0
                self.ops.check("lake size", f"{type(e).__name__}: {e}")
        for _ in range(self.size.serve_rounds):
            run("serve", self.serve_round)
            run_fresh()
        while fresh_unit() is not None:
            run_fresh()
        self._finish()

    def _finish(self) -> None:
        """End-to-end metrics from the units' samples."""
        m, n, tl, sv = self.m, self.n, self.tl, self.sv
        m["setup_s"] = self.ctx["ray_init_s"] + statistics.median(self.boots)
        self.ctx["bootstrap_s"] = self.boots
        rates = self.bf_rates if self.workload == "backfill" else self.boot_rates
        m["backfill_events_per_s"] = statistics.median(rates)
        n["backfill_events_per_s"] = len(rates)
        if self.workload == "backfill":
            m["lake_mb"] = self.bf_lake_mb
        fresh = tl["fresh"]
        m["tail_freshness_p50_s"] = pct(fresh, 50) if fresh else 0.0
        m["tail_freshness_p90_s"] = pct(fresh, 90) if fresh else 0.0
        n["tail_freshness_p50_s"] = n["tail_freshness_p90_s"] = len(fresh)
        open_loop = self.workload == "tail"
        self.ctx["tail"] = {
            "shards": len(fresh), "epochs": len(tl["per_epoch"]),
            "shards_per_epoch": len(fresh) / max(len(tl["per_epoch"]), 1),
            "backlog_max": tl["backlog_max"], "publish_late_s": tl["late_max"],
            "rate_per_s": self.size.tail_rate if open_loop else None,
        }
        self.ctx["tail_freshness_s"] = fresh
        lookups, feeds, scans = sv["lookup_s"], sv["changefeed_s"], sv["scan_rows_s"]
        m["serve_lookup_p50_s"] = pct(lookups, 50)
        m["serve_lookup_p90_s"] = pct(lookups, 90)
        m["serve_scan_rows_per_s"] = sum(r for r, _ in scans) / sum(t for _, t in scans)
        m["serve_changefeed_p50_s"] = pct(feeds, 50)
        n.update(serve_lookup_p50_s=len(lookups), serve_lookup_p90_s=len(lookups),
                 serve_changefeed_p50_s=len(feeds), serve_scan_rows_per_s=len(scans))
        self.ctx["serve_samples"] = {k: sv[k] for k in ("lookup_s", "changefeed_s", "scan_rows_s")}
        # repetitions of the measured phase, the per-layer metrics' divisor
        self.units = len(self.bf_rates) if self.workload == "backfill" else 1
