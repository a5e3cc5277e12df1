"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {backfill,tail} --seed N \
        [--seconds S] [--trace 0|1] [--size full|tiny]

Run from the repository root. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs it traced and prints the per-layer metrics plus the
tracing overhead (traced minus untraced end-to-end value); the untraced
value comes from an earlier untraced run of the same workload, seed and
size in this checkout, or else from one run first in a child process. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> {value, unit}). Everything the run writes lives
under ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
# about five times the largest input (the backfill backlog: ~100 MB as Arrow)
OBJECT_STORE_BYTES = 512 << 20

END_TO_END = {
    "setup_s": "s",
    "backfill_events_per_s": "events/s",
    "tail_freshness_p50_s": "s",
    "tail_freshness_p90_s": "s",
    "serve_lookup_p50_s": "s",
    "serve_lookup_p90_s": "s",
    "serve_scan_rows_per_s": "rows/s",
    "serve_changefeed_p50_s": "s",
    "peak_rss_mb": "MB",
    "lake_mb": "MB",
}
# reported with the per-layer metrics of a traced run (no regression bound)
EXTRA_LAYER = {
    "failed_op_frac": "ratio",
    "reference.events_per_s": "events/s",
    "env.steal_pct": "%",
    "env.busy_pct": "%",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["backfill", "tail"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    return ap.parse_args(argv)


@contextmanager
def _ray_temp_dir():
    """Ray's temp dir for this run, inside the work dir; removed on exit.
    Ray's socket paths (this dir + about 64 bytes) must fit AF_UNIX's 107
    bytes, which a deep checkout overruns; then Ray is given the dir as
    ``/proc/<pid>/fd/<n>``, a short name every process on the host resolves
    to the same directory, so nothing is written outside the checkout."""
    d = os.path.join(WORK, f"ray-{os.getpid()}")
    os.makedirs(d, exist_ok=True)
    fd = None
    try:
        if len(d) <= 43:
            yield d
        else:
            fd = os.open(d, os.O_RDONLY | os.O_DIRECTORY)
            yield f"/proc/{os.getpid()}/fd/{fd}"
    finally:
        if fd is not None:
            os.close(fd)
        shutil.rmtree(d, ignore_errors=True)


def _init_ray(temp_dir: str, trace_dir: str | None):
    def init():
        import ray
        from ray.data import DataContext

        from perfbench.envinfo import nproc
        from perfbench.tracing import TRACE_DIR_ENV

        runtime_env = None
        if trace_dir is not None:
            runtime_env = {"env_vars": {TRACE_DIR_ENV: trace_dir},
                           "worker_process_setup_hook": "perfbench.tracing.worker_setup"}
        kwargs = dict(address="local", num_cpus=nproc(),
                      include_dashboard=False, logging_level="ERROR",
                      log_to_driver=False, _temp_dir=temp_dir,
                      object_store_memory=OBJECT_STORE_BYTES, runtime_env=runtime_env)
        try:
            ray.init(**kwargs)
        except Exception as e:
            # the raylet can fail to come up with its store in /dev/shm on a
            # loaded host; once more, with the store in a file of the temp dir
            print(f"ray.init failed ({type(e).__name__}: {e}); retrying with the "
                  "object store on disk", file=sys.stderr)
            ray.shutdown()
            ray.init(**kwargs, _plasma_directory=temp_dir)
        DataContext.get_current().enable_progress_bars = False

    return init


def _result_path(args, trace: int) -> str:
    return os.path.join(WORK, "results", f"{args.workload}-s{args.seed}-t{trace}.json")


def _untraced_baseline(args) -> tuple[dict, bool]:
    """The untraced result of the same workload, seed and size: the record
    an earlier untraced run in this checkout left, else a fresh run in a
    child process. Returns (result, ran_now)."""
    try:
        with open(_result_path(args, 0)) as f:
            rec = json.load(f)
        if (rec["seconds"], rec["size"]) == (args.seconds, args.size):
            return {"metrics": {k: {"value": v} for k, v in rec["e2e"].items()}}, False
    except (OSError, ValueError, KeyError):
        pass
    return _untraced_child(args), True


def _untraced_child(args) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--size", args.size]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"untraced run failed (exit {out.returncode})")
    return json.loads(lines[-1])


def run_once(args, trace: bool) -> dict:
    """One workload run in this process; returns the result record."""
    from perfbench import envinfo
    from perfbench.config import SIZES
    from perfbench.phases import Run
    from perfbench.tracing import Tracer, install, layer_metrics, load, write_spans

    started = time.perf_counter()
    run_dir = os.path.join(WORK, "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    trace_dir = os.path.join(run_dir, "trace") if trace else None
    tracer = Tracer() if trace else None
    run = Run(args.workload, args.seed, args.seconds, SIZES[args.size], WORK,
              run_dir, tracer, clock=envinfo.RunClock())
    run.prepare()
    if trace:
        os.makedirs(trace_dir)
        uninstall = install(tracer)
    with _ray_temp_dir() as temp_dir:
        before_procs = envinfo.descendants()
        cpu0 = envinfo.cpu_times()
        try:
            with envinfo.RssSampler() as rss:
                run.execute(_init_ray(temp_dir, trace_dir), rss)
            cpu1 = envinfo.cpu_times()
            env = {**envinfo.versions(), "cpus": sorted(os.sched_getaffinity(0)),
                   **envinfo.cpu_shares(cpu0, cpu1)}
        finally:
            import ray

            ray_procs = envinfo.descendants() - before_procs
            ray.shutdown()
            envinfo.wait_gone(ray_procs)
            if trace:
                uninstall()
    run.m["peak_rss_mb"] = rss.peak_mb
    run.ctx["run_wall_s"] = time.perf_counter() - started
    rec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": int(trace), "env": env,
        "attempted": run.ops.attempted, "failed": run.ops.failed,
        "errors": run.ops.errors, "e2e": {k: run.m[k] for k in END_TO_END},
        "samples": run.n, "context": run.ctx,
    }
    if trace:
        tracer.dump(os.path.join(trace_dir, "spans-main.jsonl"))
        spans = load(trace_dir)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out = os.path.join(WORK, "traces", f"{args.workload}-s{args.seed}-{stamp}.jsonl")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        write_spans(spans, out)
        rec["spans_file"] = os.path.relpath(out, ROOT)
        tail_loop = run.ctx["tail"] if args.workload == "tail" else {}
        rec["layer"] = layer_metrics(spans, args.workload, run.units, tail_loop,
                                     run.sv["rounds"])
    shutil.rmtree(run_dir, ignore_errors=True)
    return rec


def _table(rows: list[tuple]) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:32s} {value:>16.6g} {unit:10s} {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    # import the package as ``perfbench.*`` from the repository root, never
    # its modules as top-level names from this directory
    sys.path[:] = [ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    from perfbench import envinfo

    # one core means one core: the run and every process it starts (Ray's
    # included) share nproc CPUs, whose steal the run clock leaves out
    envinfo.pin(envinfo.nproc())
    try:
        import dataxray.pipelines.replay  # noqa: F401
        import ray  # noqa: F401
    except ImportError as e:
        print(f"cannot import the engine from {ROOT}: {e}", file=sys.stderr)
        return 2
    # the memory monitor would kill workers when other tenants fill the host's
    # memory, which says nothing about the engine
    for k, v in {"RAY_USAGE_STATS_ENABLED": "0", "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
                 "RAY_DEDUP_LOGS": "0", "RAY_memory_monitor_refresh_ms": "0"}.items():
        os.environ.setdefault(k, v)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    if args.trace:
        base, base_ran = _untraced_baseline(args)
    rec = run_once(args, trace=bool(args.trace))
    from perfbench.tracing import LAYER_METRICS

    frac = rec["failed"] / max(rec["attempted"], 1)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"size={args.size} trace={args.trace}")
    print("environment: " + json.dumps(rec["env"]))
    print(f"end-to-end ({'traced' if args.trace else 'untraced'}):")
    _table([(k, rec["e2e"][k], u, f"n={rec['samples'][k]}" if k in rec["samples"] else "")
            for k, u in END_TO_END.items()]
           + [("failed_op_frac", frac, "ratio",
               f"{rec['failed']} of {rec['attempted']} operations")])
    ctx = rec["context"]
    print(f"context: reference LWW (pyarrow, one thread) {ctx['reference_lww_s']:.3f} s = "
          f"{ctx['reference_events_per_s']:.0f} events/s; set-up parts "
          f"ray_init={ctx['ray_init_s']:.3f}s "
          f"bootstraps={[round(b, 3) for b in ctx['bootstrap_s']]}; run wall {ctx['run_wall_s']:.1f} s")
    print("phase walls: " + " ".join(f"{k}={v:.1f}s" for k, v in ctx["phase_wall_s"].items()))
    print(f"tail loop: {ctx['tail']}")
    for e in rec["errors"]:
        print("FAILED " + e)

    if args.trace:
        layer = dict(rec["layer"])
        units = dict(LAYER_METRICS)
        layer.update({"failed_op_frac": frac,
                      "reference.events_per_s": ctx["reference_events_per_s"],
                      "env.steal_pct": rec["env"]["steal_pct"],
                      "env.busy_pct": rec["env"]["busy_pct"]})
        units.update(EXTRA_LAYER)
        for k, u in END_TO_END.items():
            layer[f"overhead.{k}"] = rec["e2e"][k] - base["metrics"][k]["value"]
            units[f"overhead.{k}"] = u
        print(f"per-layer ({args.workload} phase; spans in {rec['spans_file']}):")
        _table([(k, layer[k], units[k], "") for k in units])
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
        attempted, failed, correct = rec["attempted"], rec["failed"], rec["failed"] == 0
        if base_ran:  # the child's operations belong to this invocation
            attempted += base["attempted"]
            failed += base["failed"]
            correct = correct and base["correct"]
    else:
        metrics = {k: {"value": rec["e2e"][k], "unit": u} for k, u in END_TO_END.items()}
        attempted, failed, correct = rec["attempted"], rec["failed"], rec["failed"] == 0

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(_result_path(args, args.trace), "w") as f:
        json.dump(rec, f, indent=1, default=str)
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
