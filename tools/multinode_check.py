"""Fake-multi-node validation: a `ray.cluster_utils.Cluster` of 4 raylets
(1 head + 3 workers, 8 CPUs each) in one box gives real multi-node
semantics — separate raylets/object stores, forced non-local object
transfer, location-transparent scheduling — without real machines.

Runs, on the 4-node cluster:
  1. the headline replay as a CHUNKED backlog (tail.replay_chunked with a
     small byte budget → several delta epochs) and asserts the final lake
     state equals the single-process sequential oracle byte-for-byte;
  2. one graph query (pagerank_users over sf0.001) vs its py-model oracle;
and records node-spread evidence: the distinct node ids that actually
executed the engine's tasks (via ray.util.state.list_tasks when the state
API is up, else a scheduling probe).

Reference analog: the dispatcher's distribute mode
(core/src/main/java/com/alibaba/datax/core/job/scheduler/processouter/
DistributeTaskGroupScheduler.java) ships TaskGroups to remote executors;
here the Ray scheduler plays that role and this check proves the engine's
stages really are location-transparent (no driver-local paths, no
node-affine state).

Usage: PYTHONPATH=/root/repo python tools/multinode_check.py
Prints one JSON line with the verdicts + wall times.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

NODES = 4
CPUS_PER_NODE = 8


def main() -> int:
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    from ray.cluster_utils import Cluster

    os.environ.pop("RAY_ADDRESS", None)  # never attach to an outer session
    cluster = Cluster(
        initialize_head=True,
        head_node_args={"num_cpus": CPUS_PER_NODE,
                        "object_store_memory": 2 << 30,
                        "include_dashboard": False},
    )
    for _ in range(NODES - 1):
        cluster.add_node(num_cpus=CPUS_PER_NODE,
                         object_store_memory=2 << 30)
    ray.init(address=cluster.address, logging_level="ERROR")
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        alive = [n for n in ray.nodes() if n["Alive"]]
        out: dict = {"nodes": len(alive),
                     "cpus_total": int(ray.cluster_resources().get("CPU", 0))}

        from dataxray.gen import GenConfig, sequential_oracle, write_dataset
        from dataxray.pipelines.replay import ReplayConfig
        from dataxray.pipelines.tail import replay_chunked
        from dataxray.state.manifest import Lake

        root = tempfile.mkdtemp(prefix="multinode_")
        try:
            data = os.path.join(root, "data")
            lake = os.path.join(root, "lake")
            write_dataset(data, GenConfig(n_urls=4000, n_events=40_000,
                                          n_shards=8, seed=23))
            ev_dir = os.path.join(data, "events")
            # small chunk budget → a real multi-epoch chunked backlog
            wal_bytes = sum(os.path.getsize(f)
                            for f in glob.glob(os.path.join(ev_dir, "*.parquet")))
            t0 = time.perf_counter()
            reports = replay_chunked(
                ev_dir, lake, pages_path=os.path.join(data, "pages.parquet"),
                cfg=ReplayConfig(num_partitions=16, sink_mode="delta"),
                max_chunk_bytes=max(1, wal_bytes // 3))
            out["replay_sec"] = round(time.perf_counter() - t0, 3)
            out["replay_chunks"] = len(reports)
            # executors the chunks ran on: each chunk is ~3 MB, over the
            # in-process cutoff, so all of them use the cross-node exchange
            out["replay_executors"] = sorted({r.executor for r in reports})

            got = Lake(lake).read_all().to_pandas() \
                .sort_values("url").reset_index(drop=True)
            pages_t = pq.read_table(os.path.join(data, "pages.parquet"))
            ev_t = pa.concat_tables(
                [pq.read_table(f) for f in
                 sorted(glob.glob(os.path.join(ev_dir, "*.parquet")))],
                promote_options="permissive")
            want = sequential_oracle(pages_t, ev_t) \
                .sort_values("url").reset_index(drop=True)
            cols = sorted(got.columns)
            assert sorted(want.columns) == cols, (cols, sorted(want.columns))
            pd.testing.assert_frame_equal(got[cols], want[cols],
                                          check_dtype=False)
            out["replay_equal"] = True
            out["replay_rows"] = len(got)
        finally:
            shutil.rmtree(root, ignore_errors=True)

        # one graph query with forced cross-node exchange of bucket refs
        from dataxray import oracle_models as M
        from dataxray.pipelines import reports as R

        t0 = time.perf_counter()
        pg = R.pagerank_user_graph("/root/testdata/sf0.001")
        pg = pg.to_pandas() if not isinstance(pg, pd.DataFrame) else pg
        out["pagerank_sec"] = round(time.perf_counter() - t0, 3)
        pm = M.pagerank_users("/root/testdata/sf0.001")
        pm = pm.to_pandas() if not isinstance(pm, pd.DataFrame) else pm
        cols = sorted(pg.columns)
        g = pg[cols].sort_values(cols).reset_index(drop=True)
        w = pm[cols].sort_values(cols).reset_index(drop=True)
        ok = len(g) == len(w)
        for c in cols:
            if ok and np.issubdtype(g[c].dtype, np.floating):
                ok = bool(np.allclose(g[c], w[c], rtol=0, atol=1e-9))
            elif ok:
                ok = bool(g[c].astype(str).equals(w[c].astype(str)))
        assert ok, "pagerank multi-node result != py-model oracle"
        out["pagerank_equal"] = True
        out["pagerank_rows"] = len(g)

        # one exchange-heavy dedup op (shuffle + broadcast df + verify)
        t0 = time.perf_counter()
        mh = R.minhash_dedup("/root/testdata/sf0.001")
        mh_pairs = sorted((r["id_a"], r["id_b"]) for r in mh.take_all())
        out["minhash_sec"] = round(time.perf_counter() - t0, 3)
        pm2 = M.minhash_dedup("/root/testdata/sf0.001")
        pm2 = pm2.to_pandas() if not isinstance(pm2, pd.DataFrame) else pm2
        want_pairs = sorted(zip(pm2["id_a"].tolist(), pm2["id_b"].tolist()))
        assert mh_pairs == want_pairs, "minhash multi-node != py-model"
        out["minhash_equal"] = True
        out["minhash_pairs"] = len(mh_pairs)

        # node-spread evidence: which nodes executed engine tasks
        task_nodes: set[str] = set()
        try:
            from ray.util.state import list_tasks

            for t in list_tasks(limit=10_000, filters=[("state", "=",
                                                        "FINISHED")]):
                name = t.name or ""
                if ("merge" in name or "MapBatches" in name
                        or "bucket" in name or "_diff" in name):
                    if t.node_id:
                        task_nodes.add(t.node_id)
        except Exception:  # state API unavailable → scheduling probe
            @ray.remote(num_cpus=1)
            def where() -> str:
                return ray.get_runtime_context().get_node_id()

            task_nodes = set(ray.get([where.remote() for _ in range(64)]))
        out["task_nodes"] = len(task_nodes)
        assert out["nodes"] == NODES, out
        assert out["task_nodes"] >= 2, (
            "engine tasks all ran on one node — not multi-node evidence")
        print(json.dumps(out))
        return 0
    finally:
        ray.shutdown()
        cluster.shutdown()


if __name__ == "__main__":
    sys.exit(main())
