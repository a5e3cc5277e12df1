"""Direct hash exchange — the write path's one shuffle: a two-level
partition/merge exchange on raw Ray tasks, or the same steps in-process for
a small epoch.

Why raw tasks: Ray Data's ``groupby(key)`` is a general sort shuffle —
boundary sampling, per-block sorts, range partitioning. Our merge key is a
*precomputed integer partition id in [0, P)* (``_part = hash(url) % P``,
stages/partition.py), so none of that machinery is needed: a key-only
argsort of the int32 codes and zero-copy slices route every row.

Per map block, streamed out of the Dataset executor as it lands:

    split task    fuse_fn(block)  (assign _part + pre-shuffle LWW combine)
                  → g ≈ √P coarse slices, each a consecutive _part range
    fan-out task  up to REGROUP slices of one group → that group's
                  per-partition slices (_part dropped)
    merge task    one per partition: merge_fn(p, slices, **merge_kwargs)

The coarse level keeps the driver's ObjectRef bookkeeping at
O(S×√P + S×P/REGROUP) for S split tasks instead of O(S×P): at P=256 that
is 32 refs per split task instead of 256, the coordinator cost that erodes
weak scaling (BASELINE.md round-4, drain-phase attribution). The merge
tasks start once every slice has landed (the all-to-all barrier is inherent
to any shuffle). Objects flow through the local plasma store; on a
multi-node cluster the same code moves slices over the network via Ray's
object transfer.

In-process mode: given an iterable of Arrow tables instead of a Dataset
(the replay's driver executor, pipelines/replay.py), the driver runs the
same steps itself — fuse_fn and split_by_part per table as it arrives,
then merge_fn once per non-empty partition — with no task, object or
plan. With ``fold_fn`` (the replay's LWW combiner) a partition's buffered
slices are folded into one whenever they hold more than twice the rows of
its last fold, so what the driver holds is about the stream's winners plus
one table, not the stream. The caller picks this mode when starting tasks
would cost more than the work (a tail epoch of a few hundred KB, whose
merges take about 2 ms each) or when no two tasks could run at once (a
one-CPU cluster).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..schema import PART_COL

REGROUP = 16  # coarse slices of one group consumed per fan-out task


def split_by_codes(block: pa.Table, edges: np.ndarray,
                   drop_part: bool = True) -> list[pa.Table]:
    """Key-only split along arbitrary _part-code boundaries: argsort the
    int32 codes, take once, slice len(edges)-1 contiguous ranges (payload
    copied once, never sorted per slice). ``edges`` are half-open code
    boundaries: slice i holds rows with edges[i] <= _part < edges[i+1]."""
    codes = block[PART_COL].combine_chunks().to_numpy(zero_copy_only=False)
    order = np.argsort(codes, kind="stable")
    sorted_block = block.take(pa.array(order))
    if drop_part:
        sorted_block = sorted_block.drop_columns([PART_COL])
    sorted_codes = codes[order]
    bounds = np.searchsorted(sorted_codes, edges)
    return [
        sorted_block.slice(bounds[i], bounds[i + 1] - bounds[i])
        for i in range(len(edges) - 1)
    ]


def split_by_part(block: pa.Table, num_partitions: int) -> list[pa.Table]:
    """Key-only split: argsort the int32 _part codes, take once, slice P
    contiguous ranges (payload copied once, never sorted per partition)."""
    return split_by_codes(block, np.arange(num_partitions + 1))


def group_edges(num_partitions: int) -> np.ndarray:
    """Half-open _part boundaries of the g ≈ √P coarse groups: k consecutive
    partition ids each, the last group possibly narrower (P=21 → widths
    5,5,5,5,1); P ≤ 2 gives a single group."""
    g = max(int(round(num_partitions ** 0.5)), 1)
    k = -(-num_partitions // g)  # ceil
    g = -(-num_partitions // k)
    return np.minimum(np.arange(g + 1) * k, num_partitions)


def _slices(tables, edges: np.ndarray, drop_part: bool):
    """Task body of both levels: concat, split along ``edges``. A single
    slice is returned bare, as Ray stores a num_returns=1 result as is."""
    t = tables[0] if len(tables) == 1 else pa.concat_tables(
        tables, promote_options="permissive")
    out = split_by_codes(t, edges, drop_part=drop_part)
    return out[0] if len(out) == 1 else tuple(out)


def _submit(remote_fn, n: int, *args) -> list:
    """Submit with num_returns=n and always get a list of refs back (Ray
    returns a bare ObjectRef, not a list, when n is 1)."""
    out = remote_fn.options(num_returns=n).remote(*args)
    return [out] if n == 1 else out


def _exchange_in_process(tables, num_partitions: int, merge_fn,
                         merge_kwargs: dict, fuse_fn, fold_fn) -> list:
    """direct_exchange over a stream of in-memory tables, entirely in this
    process (see the module docstring's in-process mode)."""
    per_part: list[list] = [[] for _ in range(num_partitions)]
    held = [0] * num_partitions  # rows buffered per partition
    last = [0] * num_partitions  # rows out of its last fold
    for t in tables:
        if not len(t):
            continue
        if fuse_fn is not None:
            t = fuse_fn(t)
        for p, s in enumerate(split_by_part(t, num_partitions)):
            if not len(s):
                continue
            per_part[p].append(s)
            held[p] += len(s)
            if fold_fn is not None and len(per_part[p]) > 1 \
                    and held[p] > 2 * last[p]:
                folded = fold_fn(pa.concat_tables(
                    per_part[p], promote_options="permissive"))
                per_part[p] = [folded]
                held[p] = last[p] = len(folded)
    return [merge_fn(p, parts, **merge_kwargs)
            for p, parts in enumerate(per_part) if parts]


def direct_exchange(ds, num_partitions: int, merge_fn, merge_kwargs: dict,
                    fuse_fn=None, fold_fn=None):
    """Run the partition exchange + per-partition merge with raw Ray tasks,
    or in this process when ``ds`` is an iterable of Arrow tables (a list
    or a generator; ``fold_fn`` applies to this mode only).

    ``merge_fn(p, tables, **merge_kwargs)`` runs once per non-empty
    partition (remotely for a Dataset) and returns a small metadata dict.
    Returns the list of results.

    ``fuse_fn`` (optional, picklable block→block callable that appends
    ``_part``) runs INSIDE each split task before splitting, so the last map
    stage's output block is never written to the store as its own object.
    Without it the blocks must already carry ``_part``.
    """
    import ray.data

    if not isinstance(ds, ray.data.Dataset):
        return _exchange_in_process(ds, num_partitions, merge_fn,
                                    merge_kwargs, fuse_fn, fold_fn)
    import os
    import time

    import ray

    edges = group_edges(num_partitions)
    n_groups = len(edges) - 1

    def _split(block):
        if fuse_fn is not None:
            block = fuse_fn(block)
        return _slices([block], edges, False)

    def _fanout(base, width, *tables):
        return _slices(tables, np.arange(width + 1) + base, True)

    def _merge(p, kwargs, *tables):
        parts = [t for t in tables if len(t)]
        return merge_fn(p, parts, **kwargs) if parts else None

    split_remote = ray.remote(num_cpus=1)(_split)
    fanout_remote = ray.remote(num_cpus=1)(_fanout)
    merge_remote = ray.remote(num_cpus=1)(_merge)

    per_part: list[list] = [[] for _ in range(num_partitions)]
    # coarse slices buffered per group until REGROUP of them are ready for
    # one fan-out task (or the stream ends)
    group_buf: list[list] = [[] for _ in range(n_groups)]

    def _flush_group(g: int):
        base = int(edges[g])
        width = int(edges[g + 1]) - base
        for j, r in enumerate(_submit(fanout_remote, width, base, width,
                                      *group_buf[g])):
            per_part[base + j].append(r)
        group_buf[g] = []

    t0 = time.perf_counter()
    keep = []  # hold bundle + block refs so the store can't release them
    for bundle in ds.iter_internal_ref_bundles():
        keep.append(bundle)
        for block_ref in bundle.block_refs:
            keep.append(block_ref)
            for g, r in enumerate(_submit(split_remote, n_groups, block_ref)):
                group_buf[g].append(r)
                if len(group_buf[g]) >= REGROUP:
                    _flush_group(g)
    for g in range(n_groups):
        if group_buf[g]:
            _flush_group(g)
    t1 = time.perf_counter()
    metas = ray.get(
        [merge_remote.remote(p, merge_kwargs, *per_part[p]) for p in range(num_partitions)]
    )
    if os.environ.get("DATAXRAY_PRINT_STATS"):
        # map+split drain vs merge tail, for BASELINE.md phase attribution
        import sys

        print(f"[exchange] map+split drain {t1 - t0:.2f}s, merge tail "
              f"{time.perf_counter() - t1:.2f}s", file=sys.stderr)
        try:
            print(ds.stats(), file=sys.stderr)
        except Exception:
            pass
    return [m for m in metas if m is not None]
