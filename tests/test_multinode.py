"""Fake-multi-node validation (tools/multinode_check.py): 4 raylets × 8
CPUs in one box via ray.cluster_utils.Cluster — real separate object
stores, forced non-local transfer — must reproduce single-node results
byte-for-byte for the chunked headline replay and a graph query, with
engine tasks demonstrably spread across ≥2 nodes.

Runs as a SUBPROCESS: the Cluster owns its own Ray instance and must not
share the suite's session-scoped local one.
"""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fake_multinode_cluster_matches_single_node():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("RAY_ADDRESS", None)
    p = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "multinode_check.py")],
        capture_output=True, text=True, timeout=1200, env=env, cwd=REPO)
    assert p.returncode == 0, f"stdout:\n{p.stdout}\nstderr:\n{p.stderr[-4000:]}"
    line = [ln for ln in p.stdout.splitlines() if ln.startswith("{")][-1]
    d = json.loads(line)
    assert d["nodes"] == 4
    assert d["cpus_total"] == 32
    assert d["replay_equal"] is True
    assert d["replay_chunks"] >= 2  # the backlog really was chunked
    assert d["replay_executors"] == ["distributed"]  # through the exchange
    assert d["pagerank_equal"] is True
    assert d["minhash_equal"] is True
    assert d["task_nodes"] >= 2  # engine tasks spread across raylets
