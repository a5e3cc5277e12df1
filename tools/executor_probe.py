"""Time a fresh-lake replay in the driver and distributed, on N logical Ray
CPUs, at 1x and 4x the perfbench ``backfill`` size (24k pages + 240k
events in 16 WAL files), and check every resulting lake against
gen.sequential_oracle.

The executor is forced through the one cutoff, state/manifest.py
LOCAL_INPUT_BYTES (2^40: every epoch in the driver; 0: distributed, which
also needs N >= 2). Per size and executor it runs one cold replay (worker
start-up included, reported apart) and then ``--runs`` warm ones, each
into a fresh lake, with ReplayConfig() defaults.

Usage:
    python tools/executor_probe.py --cpus 4 --runs 3 [--sizes 1,4]

Prints one JSON line per (size, executor) and a last summary line. The
numbers are host-bound: give the host's CPU model and core count with them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

BACKFILL = dict(n_urls=24_000, n_events=240_000, n_shards=16)


def _oracle(data: str):
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from dataxray.gen import sequential_oracle

    events = pa.concat_tables(
        [pq.read_table(f) for f in
         sorted(glob.glob(os.path.join(data, "events", "*.parquet")))],
        promote_options="permissive")
    want = sequential_oracle(pq.read_table(os.path.join(data, "pages.parquet")),
                             events)
    return want.sort_values("url").reset_index(drop=True)


def _matches(lake: str, want) -> bool:
    from dataxray.state.manifest import Lake

    got = Lake(lake).read_all().to_pandas().sort_values("url") \
        .reset_index(drop=True)
    return all(got[c].tolist() == want[c].tolist()
               for c in ("url", "txn_id", "seq", "text", "html"))


def _replay_s(data: str, lake: str, cutoff: int) -> tuple[float, str]:
    from dataxray.pipelines.replay import ReplayConfig, replay
    from dataxray.state import manifest

    manifest.LOCAL_INPUT_BYTES = cutoff
    t0 = time.perf_counter()
    rep = replay(os.path.join(data, "events"), lake,
                 pages_path=os.path.join(data, "pages.parquet"),
                 cfg=ReplayConfig())
    return time.perf_counter() - t0, rep.executor


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cpus", type=int, default=4,
                    help="logical CPUs of the local Ray instance")
    ap.add_argument("--runs", type=int, default=3,
                    help="warm runs per size and executor")
    ap.add_argument("--sizes", default="1,4",
                    help="comma-separated multiples of the backfill size")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    import ray
    from ray.data import DataContext

    from dataxray.gen import GenConfig, write_dataset

    # the local Ray instance's workers inherit this environment
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    work = tempfile.mkdtemp(prefix="executor_probe_")
    summary = {"cpus": args.cpus, "runs": args.runs, "ok": True}
    try:
        for m in (int(x) for x in args.sizes.split(",")):
            data = os.path.join(work, f"data-x{m}")
            gen = GenConfig(**{k: v * m for k, v in BACKFILL.items()},
                            seed=args.seed)
            write_dataset(data, gen, parallel=False)
            want = _oracle(data)
            for name, cutoff in (("driver", 1 << 40), ("distributed", 0)):
                times, executors, ok = [], set(), True
                for i in range(args.runs + 1):
                    lake = os.path.join(work, f"lake-x{m}-{name}-{i}")
                    dt, executor = _replay_s(data, lake, cutoff)
                    times.append(round(dt, 3))
                    executors.add(executor)
                    ok = ok and _matches(lake, want)
                    shutil.rmtree(lake, ignore_errors=True)
                row = {"size": m, "executor": name,
                       "ran_as": sorted(executors), "cold_s": times[0],
                       "warm_s": times[1:],
                       "warm_median_s": statistics.median(times[1:]),
                       "oracle_ok": ok}
                print(json.dumps(row), flush=True)
                summary[f"x{m}_{name}_median_s"] = row["warm_median_s"]
                summary["ok"] = summary["ok"] and ok
    finally:
        shutil.rmtree(work, ignore_errors=True)
        ray.shutdown()
    print(json.dumps(summary))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
