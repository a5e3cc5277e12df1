"""Url-hash partition assignment — the engine's single wide shuffle key.

The reference splits *input* by key ranges (SingleTableSplitUtil.java:34-130)
and delegates keyed merge to the destination DB (WriterUtil.java:110-167).
Our engine owns the merge, so it must own the partitioning: ``_part =
hash(url) % P`` routes every event for a url to exactly one partition group,
which restores per-key total order (the analog of otsstreamreader's
parent-shard-before-child ordering, ShardStatusChecker.java:36-73).

Hot urls need no separate path: the pre-shuffle LWW combiner that runs right
after this stage (stages/merge.py BatchCombiner) collapses a url to one row
per block, so a url owning most of the events still moves about one row per
block through the exchange (stages/exchange.py).
"""

from __future__ import annotations

import pyarrow as pa

from ..hashing import partition_of
from ..schema import PART_COL


class AssignPartition:
    """Block callable: append the ``_part`` column."""

    def __init__(self, num_partitions: int, key: str = "url"):
        self.num_partitions = num_partitions
        self.key = key

    def __call__(self, batch: pa.Table) -> pa.Table:
        part = partition_of(batch[self.key], self.num_partitions)
        return batch.append_column(PART_COL, pa.array(part))
