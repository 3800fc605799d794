"""The ``tables`` workload: the paper's Monte Carlo tables, repeated.

Table I is ``f_i = i`` for ``n = 10``; Table II is ``f_0 = 1`` and every
other processor ``2`` for ``n = 100``.  Each is histogrammed for
``log_bidding`` and ``independent`` through
``parallel_counts(..., kernel="faithful", workers=2)``, in a fixed
round-robin, until the window ends.  A Table II call draws a fifth as
many selections as a Table I call, so the two cost about the same.
The host's speed is probed between calls, and every time is reported at
the reference host's speed (:func:`host.speed`).
"""

from __future__ import annotations

import statistics
import time
from time import perf_counter
from typing import Dict, List

import numpy as np

import gate
import host
from repro.engine.compiled import CompiledWheel
from repro.engine.parallel import parallel_counts, shard_sizes

WORKERS = 2
WARMUP_DRAWS = 10_000
SETUP_REPEATS = 5
METHODS = ("log_bidding", "independent")
TABLES = {
    "t1": (np.arange(1, 11, dtype=np.float64), 2_000_000),
    "t2": (np.array([1.0] + [2.0] * 99), 400_000),
}
CONFIGS = [(t, m) for t in TABLES for m in METHODS]

#: Passes the race kernel makes over its ``n``-wide float64 key row per
#: draw, read from ``CompiledWheel._transform_*``: the uniform fill
#: writes it, each in-place ufunc reads and writes it, the arg-max reads
#: it.  Computed, not measured.
RACE_PASSES = {"log_bidding": 1 + 2 + 2 + 2 + 1, "independent": 1 + 2 + 2 + 1}


def _zero_items(table: str, method: str):
    return (0,) if (table, method) == ("t2", "independent") else ()


def _setup(seed: int) -> Dict:
    """Exact distributions plus one small warm-up call per table cell."""
    expected = {}
    for i, (t, m) in enumerate(CONFIGS):
        f, _ = TABLES[t]
        expected[t, m] = gate.expected_probabilities(f, m)
        parallel_counts(f, WARMUP_DRAWS, method=m, seed=seed + i,
                        workers=WORKERS, kernel="faithful")
    return expected


def run(seed: int, seconds: float, tracer, tmpdir: str) -> Dict:
    base = int(np.random.default_rng([seed, 0]).integers(0, 1 << 40))
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        s0 = host.speed()
        t0 = perf_counter()
        expected = _setup(base)
        raw_setups.append(perf_counter() - t0)
        setups.append(raw_setups[-1] * (s0 + host.speed()) / 2)
    if tracer is not None:
        from tracing import take_task_times

        take_task_times(tmpdir)  # drop the warm-up calls' task times
        tracer.active = True

    calls: List[Dict] = []
    cpu = elapsed = 0.0
    probes = [host.speed()]
    t0 = perf_counter()
    stop = t0 + seconds
    i = 0
    while perf_counter() < stop:
        t, m = CONFIGS[i % len(CONFIGS)]
        f, size = TABLES[t]
        p0 = time.process_time()
        c0 = perf_counter()
        counts = parallel_counts(f, size, method=m, seed=base + 1000 + i,
                                 workers=WORKERS, kernel="faithful")
        wall = perf_counter() - c0
        cpu += time.process_time() - p0
        elapsed += wall
        probes.append(host.speed())
        call = {"table": t, "method": m, "size": size, "wall": wall, "counts": counts}
        if tracer is not None:
            call["tasks_s"] = [ns / 1e9 for ns in take_task_times(tmpdir)]
        calls.append(call)
        i += 1
    span = perf_counter() - t0
    rss = host.rss_peak_mb()
    for call, s in zip(calls, host.interval_speeds(probes)):
        call["speed"] = s

    wrong = 0
    problems = []
    for call in calls:
        key = (call["table"], call["method"])
        found = gate.check_counts(call["counts"], call["size"], expected[key],
                                  _zero_items(*key))
        if found:
            wrong += 1
            problems.append({"cell": key, "problems": found})
    for p in problems:
        host.log(f"table check failed: {p}")

    attempted = len(calls)
    e2e = {
        "setup_s": statistics.median(setups),
        **_timed(calls, [c["speed"] for c in calls]),
        "ok_share": (attempted - wrong) / attempted,
        "rss_peak_mb": rss,
    }
    per_cell = {}
    for t, m in CONFIGS:
        cell = [c for c in calls if (c["table"], c["method"]) == (t, m)]
        per_cell[f"{t}.{m}"] = {
            "calls": len(cell),
            "draws_per_s": sum(c["size"] for c in cell) / sum(c["wall"] for c in cell),
        }
    report = {
        "unscaled": {
            **_timed(calls, [1.0] * attempted),
            "setup_s": statistics.median(raw_setups),
            "window_draws_per_s": sum(c["size"] for c in calls) / elapsed,
        },
        "call_speed": [c["speed"] for c in calls],
        "samples": {"call": attempted, "draw_p99_quantile": _tail_q(attempted)},
        "failed_share": wrong / attempted,
        "wrong_outputs": wrong,
        "setups_s": setups,
        "per_cell": per_cell,
        "probe_share": 1.0 - elapsed / span,
        "frontend_cpu_share": cpu / elapsed,
        "busy_processes": WORKERS,
        "cores": len(host.ALLOWED_CORES),
    }
    layer = None
    if tracer is not None:
        layer = _layers(calls, base)
        layer["trace.req_per_s"] = e2e["req_per_s"]
        layer["trace.draws_per_s"] = e2e["draws_per_s"]
    return {"e2e": e2e, "layer": layer, "attempted": attempted,
            "failed": wrong, "report": report}


def _tail_q(calls: int) -> float:
    """A window holds 50-150 calls, too few for a p99: the tail reported
    is the highest quantile with ten calls beyond it (p80-p93)."""
    return min(0.99, max(0.5, 1.0 - 10.0 / calls))


def _timed(calls: List[Dict], speed: List[float]) -> Dict:
    """Rates and latencies of the window, each call's wall time
    multiplied by ``speed`` (its host speed, or all ones).

    Rates are totals over the whole round-robin cycles (one call per
    table cell) in the window, so every cell weighs the same.
    """
    wall = [c["wall"] * s for c, s in zip(calls, speed)]
    n = len(CONFIGS)
    whole = len(calls) - len(calls) % n
    cycle_s = sum(wall[:whole]) / (whole // n)
    lat_us = np.array(wall) * 1e6
    return {
        "req_per_s": n / cycle_s,
        "draws_per_s": sum(size for _, size in TABLES.values()) * len(METHODS) / cycle_s,
        "draw_p50_us": float(np.quantile(lat_us, 0.50)),
        "draw_p99_us": float(np.quantile(lat_us, _tail_q(len(calls)))),
    }


def _layers(calls, base: int) -> Dict:
    overhead = [c["wall"] - max(c["tasks_s"]) for c in calls]
    busy = [sum(c["tasks_s"]) / (WORKERS * c["wall"]) for c in calls]
    layer = {
        "parallel.overhead_s": statistics.median(overhead),
        "parallel.busy_share": statistics.median(busy),
    }
    for t, m in CONFIGS:
        f, size = TABLES[t]
        shard = shard_sizes(size, WORKERS)[0]
        wheel = CompiledWheel(f, m, kernel="faithful")
        times = []
        for r in range(3):
            rng = np.random.default_rng([base, r])
            c0 = time.perf_counter_ns()
            wheel.counts(shard, rng=rng)
            times.append(time.perf_counter_ns() - c0)
        layer[f"compiled.counts_ns_per_draw.{t}_{m}"] = statistics.median(times) / shard
        layer[f"compiled.bytes_per_draw.{t}_{m}"] = 8 * f.size * RACE_PASSES[m]
    return layer
