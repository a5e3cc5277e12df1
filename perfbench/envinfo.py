"""Environment evidence and process bookkeeping, all read from ``/proc``:
the run's CPUs and its steal-excluded clock, CPU steal/busy shares over the
run window, peak resident memory of the
main process plus its Ray worker processes (less what the harness itself
holds), and the descendant processes a run must see exit before it
reports."""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
from contextlib import contextmanager

_PAGE = os.sysconf("SC_PAGE_SIZE")


def cpu_times() -> list[int]:
    """Jiffies (user nice system idle iowait irq softirq steal) summed over
    the CPUs this process may run on, from /proc/stat."""
    mine = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    total = [0] * 8
    with open("/proc/stat") as f:
        for line in f:
            parts = line.split()
            if parts and parts[0] in mine:
                total = [a + int(b) for a, b in zip(total, parts[1:9])]
    return total


def cpu_shares(before: list[int], after: list[int]) -> dict:
    d = [b - a for a, b in zip(before, after)]
    total = max(sum(d), 1)
    idle = d[3] + d[4]
    return {"steal_pct": 100.0 * d[7] / total,
            "busy_pct": 100.0 * (total - idle - d[7]) / total}


def pin(n: int) -> list[int]:
    """Restrict this process, and every process it starts from now on, to
    ``n`` CPUs of its affinity set: the highest-numbered, as CPU 0 usually
    takes the most interrupts. Call it before any thread is started."""
    cpus = sorted(os.sched_getaffinity(0))[-n:]
    os.sched_setaffinity(0, cpus)
    return cpus


class RunClock:
    """Seconds on CLOCK_MONOTONIC minus the time the hypervisor held this
    process's CPUs (steal, from /proc/stat, averaged over those CPUs).

    On a shared cloud host the same work takes up to twice as long in wall
    time while other guests load the host, because the guest's CPU is not
    running for part of it; on this clock it takes what it would on a core
    that is never taken away. Everything else the run waits on (I/O, sleeps,
    other processes in this guest) still counts. Resolution: one clock tick
    of steal (10 ms)."""

    def __init__(self):
        self._names = {f"cpu{c}" for c in os.sched_getaffinity(0)}
        self._tick = os.sysconf("SC_CLK_TCK") * len(self._names)

    def steal_s(self) -> float:
        total = 0
        with open("/proc/stat") as f:
            for line in f:
                if not line.startswith("cpu"):
                    break
                parts = line.split()
                if parts[0] in self._names:
                    total += int(parts[8])
        return total / self._tick

    def __call__(self) -> float:
        return time.perf_counter() - self.steal_s()


def nproc() -> int:
    """What coreutils ``nproc`` prints: usable CPUs, lowered by
    OMP_NUM_THREADS / OMP_THREAD_LIMIT when set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = int(v) if var == "OMP_NUM_THREADS" else min(n, int(v))
    return n


def versions() -> dict:
    import pyarrow
    import ray

    return {"nproc": nproc(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__}


def _rss(pid: int) -> int:
    """Anonymous resident bytes (statm resident - shared): the process's own
    memory, without shared libraries or the shared-memory object store,
    which a plain RSS sum would count once per worker."""
    try:
        with open(f"/proc/{pid}/statm") as f:
            fields = f.read().split()
            return (int(fields[1]) - int(fields[2])) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def _ray_worker_pids() -> list[int]:
    """This run's Ray workers: descendants whose title starts ``ray::``."""
    out = []
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read(5) == b"ray::":
                    out.append(pid)
        except OSError:
            continue
    return out


def _release_arrow_memory() -> None:
    import pyarrow as pa

    pa.default_memory_pool().release_unused()


class RssSampler:
    """Background sampler of main-process + Ray worker anonymous RSS.

    The main process is also the benchmark harness: what it holds when the
    sampler starts (inputs, reference tables, expected answers) is taken as
    ``baseline`` and left out, and nothing is sampled inside ``pause()``
    (correctness checks, which materialise whole lakes in this process).
    ``peak_mb`` is the largest sum seen, minus the baseline."""

    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        self.peak = 0
        self.baseline = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        me = os.getpid()
        workers, listed = [], 0.0
        while not self._stop.is_set():
            if time.monotonic() - listed > 1.0:  # walking /proc costs more
                workers, listed = _ray_worker_pids(), time.monotonic()
            with self._lock:
                total = _rss(me) + sum(_rss(p) for p in workers)
            self.peak = max(self.peak, total)
            self._stop.wait(self.period_s)

    @contextmanager
    def pause(self):
        """Sample nothing inside; on the way out, hand the memory the block
        freed back to the OS so later samples do not count it."""
        with self._lock:
            try:
                yield
            finally:
                _release_arrow_memory()

    def __enter__(self) -> "RssSampler":
        gc.collect()
        _release_arrow_memory()
        self.baseline = _rss(os.getpid())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    @property
    def peak_mb(self) -> float:
        return (self.peak - self.baseline) / 2**20


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int | None = None) -> set[int]:
    kids = _children()
    out, todo = set(), [pid or os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_gone(pids: set[int], timeout_s: float = 20.0) -> None:
    """Wait for ``pids`` to exit; SIGKILL what is left at the deadline."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not any(_alive(p) for p in pids):
            return
        time.sleep(0.1)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
    while any(_alive(p) for p in pids) and time.monotonic() < deadline + 5:
        time.sleep(0.1)
