"""Workload sizing. ``FULL`` is the regression-gate size (one CPU core);
``TINY`` is the size the benchmark's own test runs at.

Every run of every workload goes through the same lifecycle on one
"working" history lake — set-up bootstraps, a WAL tail, a closed-loop
serving client — and the workload decides which phase is the measured one
(it gets ``--seconds``); the others are fixed-size secondaries, sized to
give their metrics enough samples for a steady median within the run's
time budget. The ``backfill`` workload adds its own phase: repeated
fresh-lake backfills of one large backlog with ``ReplayConfig()`` defaults,
interleaved with the others.
"""

from __future__ import annotations

from dataclasses import dataclass

# tail workload: after the open loop and a compaction, this many more
# one-shard epochs (untimed), so every partition the serve phase reads
# carries deltas, as on backfill
SETTLE_SHARDS = 2
LOOKUP_KEYS = 4  # urls per lookup batch; one of them is never written


@dataclass(frozen=True)
class LogSpec:
    """One generated change log: base pages + ``n_shards`` txn-contiguous
    shards of ``shard_events`` events. The first ``backlog_shards`` shards
    are packed ``pack`` per file into the backlog; the rest stay one file
    each (the tail's publishable WAL segments). ``content_hash`` appears
    from shard ``evo_shard`` on."""

    n_urls: int
    shard_events: int
    n_shards: int
    backlog_shards: int
    pack: int
    evo_shard: int

    @property
    def n_events(self) -> int:
        return self.n_shards * self.shard_events


@dataclass(frozen=True)
class Size:
    # working lake: pages + backlog bootstrapped in set-up
    n_urls: int
    shard_events: int  # events per tail WAL segment
    backlog_shards: int
    pack: int
    bootstraps: int  # set-up repetitions (median reported)
    # open-loop tail
    tail_rate: float  # shards due per second
    # backfill workload's tail: a closed loop of one-shard epochs (the
    # next shard falls due when the previous epoch returns), so the lake
    # the serve phase reads has the same layout on every run
    tail_shards_secondary: int
    tail_chunk: int  # closed-loop segments per tail unit
    # closed-loop serve: one round = a fixed seeded op list (these lookups
    # of LOOKUP_KEYS urls each, two predicate scans, two change feeds),
    # repeated
    lookups_per_round: int
    serve_rounds: int
    # backfill workload's own large backlog
    backfill_urls: int
    backfill_events: int
    backfill_shards: int
    backfill_min_reps: int

    def working_log(self, tail_shards: int) -> LogSpec:
        n = self.backlog_shards + tail_shards
        # schema evolution lands halfway through the tail
        return LogSpec(self.n_urls, self.shard_events, n, self.backlog_shards,
                       self.pack, self.backlog_shards + tail_shards // 2)

    def backfill_log(self) -> LogSpec:
        per = self.backfill_events // self.backfill_shards
        # additive content_hash evolution halfway through the backlog
        return LogSpec(self.backfill_urls, per, self.backfill_shards,
                       self.backfill_shards, 1, self.backfill_shards // 2)

    def tail_shards(self, workload: str, seconds: float) -> int:
        if workload == "tail":
            return max(int(round(seconds * self.tail_rate)), 2)
        return self.tail_shards_secondary


FULL = Size(
    # small tail segments keep the per-segment share of an epoch low, so
    # the open loop's queue does not amplify a slower host into freshness
    n_urls=14_000, shard_events=200, backlog_shards=140, pack=20,
    bootstraps=4,
    # 23 one-shard epochs: the 8th and 16th deltas auto-compact, the last 7
    # leave deltas in the partitions the serve phase reads, and p90 of the
    # 23 freshness samples falls between regular epochs, not on a
    # compaction
    tail_rate=10.0, tail_shards_secondary=23, tail_chunk=4,
    lookups_per_round=16, serve_rounds=4,
    backfill_urls=24_000, backfill_events=240_000, backfill_shards=16,
    backfill_min_reps=2,
)

# one shard per tail epoch (rate well below epoch time) keeps every traced
# count a pure function of the seed, which the benchmark's test asserts
TINY = Size(
    n_urls=400, shard_events=40, backlog_shards=20, pack=5,
    bootstraps=2,
    tail_rate=1.0, tail_shards_secondary=3, tail_chunk=1,
    lookups_per_round=4, serve_rounds=1,
    backfill_urls=600, backfill_events=4_000, backfill_shards=4,
    backfill_min_reps=1,
)

SIZES = {"full": FULL, "tiny": TINY}
