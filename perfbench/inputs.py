"""Seeded benchmark inputs, generated in this one process through the
engine's public generator (``gen.GenConfig`` / ``generate_event_shard``)
and cached by (log spec, seed) under the benchmark's own work directory.

Generation is never timed. A changed spec or seed maps to a new cache key,
so it regenerates; a half-written entry is never visible (built in a temp
dir, renamed into place last).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from .config import LogSpec

GEN_VERSION = 1
CACHE_KEEP = 32  # most recently used entries kept; older ones are evicted


@dataclass(frozen=True)
class Inputs:
    pages: str
    backlog: list[str]  # packed backlog files, txn order
    tail: list[str]  # one WAL segment per shard, txn order
    tail_txn_hi: list[int]  # last txn of each tail segment
    backlog_txn_hi: int
    n_events: int
    n_pages: int


def _gen_config(spec: LogSpec, seed: int):
    from dataxray.gen import GenConfig

    return GenConfig(
        n_urls=spec.n_urls, n_events=spec.n_events, n_shards=spec.n_shards,
        seed=seed,
        # int(n_shards * evo_frac) must land exactly on evo_shard
        evo_frac=(spec.evo_shard + 0.5) / spec.n_shards,
    )


def _write(table: pa.Table, path: str) -> None:
    pq.write_table(table, path, compression="zstd", row_group_size=32_768)


def _build(spec: LogSpec, seed: int, out: str) -> dict:
    from dataxray.gen import generate_event_shard, generate_pages, shard_txn_range

    cfg = _gen_config(spec, seed)
    os.makedirs(os.path.join(out, "backlog"))
    os.makedirs(os.path.join(out, "tail"))
    pages = generate_pages(cfg)
    _write(pages, os.path.join(out, "pages.parquet"))
    backlog = []
    for lo in range(0, spec.backlog_shards, spec.pack):
        shards = range(lo, min(lo + spec.pack, spec.backlog_shards))
        t = pa.concat_tables([generate_event_shard(cfg, s) for s in shards],
                             promote_options="permissive")
        name = os.path.join("backlog", f"wal-{lo:06d}.parquet")
        _write(t, os.path.join(out, name))
        backlog.append(name)
    tail, tail_hi = [], []
    for s in range(spec.backlog_shards, spec.n_shards):
        name = os.path.join("tail", f"wal-{s:06d}.parquet")
        _write(generate_event_shard(cfg, s), os.path.join(out, name))
        tail.append(name)
        tail_hi.append(shard_txn_range(cfg, s)[1])
    return {
        "pages": "pages.parquet", "backlog": backlog, "tail": tail,
        "tail_txn_hi": tail_hi,
        "backlog_txn_hi": shard_txn_range(cfg, spec.backlog_shards - 1)[1],
        "n_events": spec.n_events,
        "n_pages": len(pages),
    }


def materialize(name: str, spec: LogSpec, seed: int, cache_root: str) -> Inputs:
    """Inputs for (spec, seed), generated on first use and cached."""
    key = json.dumps({"spec": asdict(spec), "seed": seed, "v": GEN_VERSION},
                     sort_keys=True)
    digest = hashlib.sha1(key.encode()).hexdigest()[:16]
    d = os.path.join(cache_root, f"{name}-s{seed}-{digest}")
    meta_path = os.path.join(d, "inputs.json")
    if not os.path.exists(meta_path):
        tmp = f"{d}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        meta = _build(spec, seed, tmp)
        with open(os.path.join(tmp, "inputs.json"), "w") as f:
            json.dump(meta, f)
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
        _evict(cache_root)
    os.utime(d)
    with open(meta_path) as f:
        meta = json.load(f)
    j = lambda p: os.path.join(d, p)  # noqa: E731
    return Inputs(
        pages=j(meta["pages"]), backlog=[j(p) for p in meta["backlog"]],
        tail=[j(p) for p in meta["tail"]], tail_txn_hi=meta["tail_txn_hi"],
        backlog_txn_hi=meta["backlog_txn_hi"], n_events=meta["n_events"],
        n_pages=meta["n_pages"],
    )


def _evict(cache_root: str) -> None:
    entries = [os.path.join(cache_root, n) for n in os.listdir(cache_root)
               if os.path.exists(os.path.join(cache_root, n, "inputs.json"))]
    entries.sort(key=os.path.getmtime, reverse=True)
    for old in entries[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)
