"""Run reports, throughput/lag metrics, and checkpoint helpers.

Counter names follow the reference's Communication counter map
(CommunicationTool.java:19-53,76-99: readSucceedRecords, writeSucceedRecords,
totalErrorRecords, byteSpeed, recordSpeed, percentage) re-expressed per run:
the lake snapshot itself is the durable checkpoint (per-partition txn_hi
watermarks, analog of ShardCheckpoint.java:8-75); a run report JSON captures
progress + rates for observability.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field


@dataclass
class RunReport:
    run_id: str
    read_succeed_records: int = 0  # valid events APPLIED this run (post-watermark)
    total_error_records: int = 0  # dirty rows captured
    write_succeed_records: int = 0  # rows in committed partition states
    partitions_committed: int = 0
    partitions_skipped: int = 0  # replayed labels recognized (exactly-once)
    txn_hi: int = 0  # max committed txn watermark
    elapsed_sec: float = 0.0
    record_speed: float = 0.0  # events/s (the headline metric)
    partition_lag: dict = field(default_factory=dict)  # part -> txn_hi
    stalled_partitions: list = field(default_factory=list)  # watchdog flags
    executor: str = ""  # "local" (in the driver) | "distributed" (Ray tasks)
    input_bytes: int = 0  # footer-known WAL + page bytes that sized the executor

    def finish(self, started: float) -> "RunReport":
        self.elapsed_sec = time.perf_counter() - started
        if self.elapsed_sec > 0:
            self.record_speed = self.read_succeed_records / self.elapsed_sec
        return self

    def write(self, lake_root: str) -> None:
        from . import lakefs

        fs, base = lakefs.resolve(lake_root)
        d = os.path.join(base, "_runs")
        fs.makedirs(d)
        fs.put_json(os.path.join(d, f"{self.run_id}.json"), asdict(self))


def global_low_watermark(watermarks: dict[int, int], num_partitions: int) -> int:
    """File-level pruning bound: every partition has applied at least this txn.
    Event files entirely at/below it can be skipped at the read (the analog of
    resuming from the nearest time-checkpoint, OTSStreamReaderSlaveProxy.java:93-107)."""
    if len(watermarks) < num_partitions:
        return 0  # some partition has no state yet → cannot prune anything
    return min(watermarks.values())
