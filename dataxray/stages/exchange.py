"""Direct hash exchange — the write path's one shuffle: k shares of the
input each gathered into per-partition slices, then one merge per
partition.

Why no sort shuffle: Ray Data's ``groupby(key)`` is a general sort shuffle —
boundary sampling, per-block sorts, range partitioning. Our merge key is a
*precomputed integer partition id in [0, P)* (``_part = hash(url) % P``,
stages/partition.py), so none of that machinery is needed: a key-only
argsort of the int32 codes and zero-copy slices route every row.

The input comes as k shares, each a callable that yields Arrow tables (the
replay's shares read a contiguous run of WAL files and base-page row
groups, pipelines/replay.py). Each share runs one fused pipeline:

    gather   per table: fuse_fn (assign _part + pre-shuffle LWW combine)
             → split_by_part → append to its partition's slices; with
             fold_fn (the replay's LWW combiner) a partition's slices are
             folded into one whenever they hold more than twice the rows
             of its last fold, so a share holds about its winners plus one
             table, not its input
    merge    one per non-empty partition: merge_fn(p, slices, **merge_kwargs)

In this process (``local``; the caller's choice, state/manifest.py
in_driver) the shares are gathered here and the merges run here: no task,
object or plan — the right call when starting tasks would cost more than
the work (a tail epoch of a few hundred KB, whose merges take about 2 ms
each) or when no two tasks could run at once (a one-CPU cluster).
Otherwise each share is one Ray task returning its P partitions' slices as
P objects (num_returns=P), and the P merges run through
state/manifest.py:run_partition_jobs as min(P, CPUs) tasks, each
resolving its partitions' k slices from the object store. The k × P
objects are the exchange's only all-to-all step; on a multi-node cluster
Ray's object transfer moves them between nodes.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pyarrow as pa

from ..schema import PART_COL


def split_by_codes(block: pa.Table, edges: np.ndarray) -> list[pa.Table]:
    """Key-only split along _part-code boundaries, _part dropped: argsort
    the int32 codes, take once, slice len(edges)-1 contiguous ranges
    (payload copied once, never sorted per slice). ``edges`` are half-open
    code boundaries: slice i holds rows with edges[i] <= _part < edges[i+1]."""
    codes = block[PART_COL].combine_chunks().to_numpy(zero_copy_only=False)
    order = np.argsort(codes, kind="stable")
    sorted_block = block.take(pa.array(order)).drop_columns([PART_COL])
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


def _gather(tables, num_partitions: int, fuse_fn=None,
            fold_fn=None) -> list[list[pa.Table]]:
    """Route a stream of tables to per-partition slices, in this process
    (the module docstring's gather step): P lists of non-empty tables
    without _part."""
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
    return per_part


def _gather_share(share, num_partitions: int, fuse_fn, fold_fn):
    """Shard task body: one share's slices as one table per partition
    (None for a partition it has no rows of). A single partition's table
    is returned bare, as Ray stores a num_returns=1 result as is."""
    per_part = _gather(share(), num_partitions, fuse_fn, fold_fn)
    out = tuple(pa.concat_tables(parts, promote_options="permissive")
                if parts else None for parts in per_part)
    return out[0] if num_partitions == 1 else out


def _merge_job(merge_fn, merge_kwargs: dict, p: int, *tables):
    """Merge task body for one partition: its non-empty slices, one per
    share (None when it got no rows)."""
    parts = [t for t in tables if t is not None]
    return merge_fn(p, parts, **merge_kwargs) if parts else None


def direct_exchange(shares, num_partitions: int, merge_fn, merge_kwargs: dict,
                    fuse_fn=None, fold_fn=None, local: bool = True) -> list:
    """Run the partition exchange + per-partition merge over ``shares``
    (zero-argument callables, each returning an iterable of Arrow tables;
    picklable for tasks), in this process when ``local``, else as k shard
    tasks and the merges as partition jobs (module docstring).

    ``merge_fn(p, tables, **merge_kwargs)`` runs once per non-empty
    partition and returns a small metadata dict; returns those, in
    partition order. ``fuse_fn`` (optional, block→block, appends ``_part``)
    runs on each table before it is split; without it the tables must
    already carry ``_part``. ``fold_fn`` folds a partition's buffered
    slices (_gather)."""
    if local:
        per_part = _gather(itertools.chain.from_iterable(s() for s in shares),
                           num_partitions, fuse_fn, fold_fn)
        return [merge_fn(p, parts, **merge_kwargs)
                for p, parts in enumerate(per_part) if parts]
    import ray

    from ..state.manifest import _submit, run_partition_jobs

    task = ray.remote(num_cpus=1)(_gather_share)
    refs = [_submit(task, num_partitions, s, num_partitions, fuse_fn, fold_fn)
            for s in shares]
    # settle the shard outputs before the merges take them as arguments:
    # passing still-pending task outputs on intermittently trips a Ray core
    # ref-count race (reference_count.cc CHECK; jobs_dataset does the same)
    flat = [r for rs in refs for r in rs]
    ray.wait(flat, num_returns=len(flat), fetch_local=False)
    jobs = [(p, *(rs[p] for rs in refs)) for p in range(num_partitions)]
    metas = run_partition_jobs(
        functools.partial(_merge_job, merge_fn, merge_kwargs), jobs,
        local=False)
    return [m for m in metas if m is not None]
