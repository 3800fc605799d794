"""Host record, speed probe, core pinning, child-process accounting and
leftover checks.

Process data comes from ``/proc``; no third-party dependency is needed.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import struct
import sys
import time
from typing import Dict, List

import numpy as np

SHM_PATTERN = "/dev/shm/repro-wheels-*"
#: The cores this process may use, read before :func:`pin_one_core` narrows it.
ALLOWED_CORES = tuple(sorted(os.sched_getaffinity(0)))
_TICKS = os.sysconf("SC_CLK_TCK")


#: The speed probe does, ``PROBE_ROUNDS`` times, the kinds of work the
#: workloads do: a JSON round trip, struct packing, a hash, a sort with a
#: Python key function, a small NumPy draw and search, and string
#: formatting.  A loop of integer arithmetic slowed down less than the
#: workloads when the host did, and corrected only part of the change.
PROBE_ROUNDS = 250
_PROBE_DOC = {"op": "draw", "wheel": "w1:" + "ab" * 32, "n": 8, "seed": 12345,
              "items": list(range(40)), "meta": {"a": 1.5, "b": [1, 2, 3], "c": "x" * 20}}
_PROBE_CUM = np.cumsum(np.random.default_rng(2).random(1000))
_PROBE_RNG = np.random.default_rng(3)
#: Seconds the probe takes on the reference host.  Only the ratio
#: matters: every time the benchmark reports is scaled to this host.
REFERENCE_PROBE_S = 0.012


def probe_s() -> float:
    """Seconds the speed probe takes now.

    Shared hosts change speed by up to 2x over minutes without any steal
    time showing, so each report also carries this probe from before and
    after the run.
    """
    t0 = time.perf_counter()
    acc = 0
    for k in range(PROBE_ROUNDS):
        doc = json.loads(json.dumps(_PROBE_DOC))
        key = struct.pack("<QQI", k, doc["seed"], doc["n"]) + doc["wheel"].encode()
        acc += len(hashlib.sha256(key).hexdigest())
        acc += sorted(doc["items"], key=lambda x: -x)[0]
        u = _PROBE_RNG.random(doc["n"]) * _PROBE_CUM[-1]
        acc += int(np.searchsorted(_PROBE_CUM, u).sum())
        acc += len(f"{doc['op']}:{k}:{doc['meta']['a']}".split(":"))
    return time.perf_counter() - t0


def speed() -> float:
    """The host's speed now, relative to the reference host (> 1: faster).

    The probe is benchmark code, so no change to the program moves it.
    A measured time multiplied by this (a rate divided by it) is what the
    reference host would have shown.  The serving and table windows probe
    between slices, while the program is idle.
    """
    return REFERENCE_PROBE_S / probe_s()


def interval_speeds(probes: List[float], reach: int = 2) -> List[float]:
    """Host speed during each interval between consecutive probes: the
    median of the probes within ``reach`` intervals of it.

    One probe reads the host over about 10 ms and differs from the next
    by several percent.  Latency percentiles multiplied by that noise
    spread more from run to run than unscaled ones; the median keeps
    phases of a few seconds and drops the noise.
    """
    return [statistics.median(probes[max(0, i - reach):i + reach + 2])
            for i in range(len(probes) - 1)]


def host_record() -> Dict[str, object]:
    """The settings a result depends on that the benchmark cannot pin."""
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "probe_s": probe_s(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def children() -> List[int]:
    """Live (not zombie) pids whose parent is this process."""
    me = os.getpid()
    out = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != b"Z":
            out.append(int(stat.split("/")[2]))
    return out


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of one process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def rss_peak_mb() -> float:
    """Peak RSS of this process plus its children.

    Children are counted once: the summed high-water marks of the live
    ones, or the largest reaped one (``RUSAGE_CHILDREN`` keeps only the
    maximum), whichever is larger.
    """
    live = sum(hwm_mb(pid) for pid in children())
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return hwm_mb(os.getpid()) + max(live, reaped)


def pin_one_core() -> int:
    """Run this process, and every process it forks later, on one core.

    Left to the scheduler, a cluster's front end and shard sometimes share
    a core and sometimes not, and throughput swings between modes up to
    3x apart from run to run.  On one core it repeats within a few
    percent.  Returns the number of cores the run may use.
    """
    os.sched_setaffinity(0, ALLOWED_CORES[:1])
    return 1


def shm_dirs() -> set:
    return set(glob.glob(SHM_PATTERN))


def reap_leftovers(shm_before: set) -> Dict[str, list]:
    """Find, report and remove what a run left behind.

    A shard process still alive or a new shared-memory store directory
    after the service was closed is a defect of the run; both are
    cleaned up here so the benchmark itself never leaks them.
    """
    import multiprocessing
    import shutil

    multiprocessing.active_children()  # reaps finished Process objects
    procs = children()
    for pid in procs:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    for pid in procs:
        while time.monotonic() < deadline:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            time.sleep(0.01)
    dirs = sorted(shm_dirs() - shm_before)
    for path in dirs:
        shutil.rmtree(path, ignore_errors=True)
    return {"processes": procs, "shm_dirs": dirs}


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
