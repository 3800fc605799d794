"""The engine's perf gate: measure, compare, and record throughput.

:func:`run_bench` times the registry path against the compiled kernels
on one wheel configuration and returns a JSON-serialisable report;
``python -m repro bench-engine`` records it as ``BENCH_engine.json`` (via
:func:`repro.bench.record.write_report`) so subsequent changes have a
perf trajectory to regress against.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.bench.record import check_envelope, host_meta
from repro.core.fitness import validate_fitness
from repro.core.methods.base import get_method
from repro.engine.compiled import DEFAULT_CHUNK_BYTES, CompiledWheel
from repro.engine.parallel import parallel_counts, suggest_workers
from repro.tune.timers import timed

__all__ = ["run_bench", "validate_bench", "render_bench", "BENCH_SCHEMA"]

#: Schema tag for BENCH_engine.json (bump on layout changes).
BENCH_SCHEMA = "repro/bench-engine/v1"

#: Keys every result block must carry (used by the CI smoke check).
_REQUIRED_RESULT_KEYS = (
    "registry_select_many_s",
    "compiled_select_many_s",
    "compiled_race_select_many_s",
    "stream_counts_s",
    "parallel_counts_s",
    "speedup_compiled_vs_registry",
    "speedup_race_vs_registry",
)


def run_bench(
    n: int = 1000,
    draws: int = 1_000_000,
    seed: int = 0,
    method: str = "log_bidding",
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Dict[str, Any]:
    """Time registry vs compiled selection on one wheel.

    The default configuration (``n=1000``, ``draws=10**6``) is the
    acceptance gate: ``speedup_compiled_vs_registry`` must stay >= 3.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if draws <= 0:
        raise ValueError(f"draws must be positive, got {draws}")
    f = validate_fitness(1.0 - np.random.default_rng(seed).random(n))
    sel = get_method(method)

    registry_s = timed(lambda: sel.select_many(f, np.random.default_rng(seed + 1), draws))

    compiled_auto = CompiledWheel(f, method, kernel="auto", chunk_bytes=chunk_bytes)
    compiled_s = timed(
        lambda: compiled_auto.select_many(draws, rng=np.random.default_rng(seed + 1))
    )

    compiled_race = CompiledWheel(f, method, kernel="faithful", chunk_bytes=chunk_bytes)
    race_s = timed(
        lambda: compiled_race.select_many(draws, rng=np.random.default_rng(seed + 1))
    )

    counts_s = timed(lambda: compiled_auto.counts(draws, rng=np.random.default_rng(seed + 1)))

    workers = suggest_workers(draws)
    parallel_s = timed(
        lambda: parallel_counts(
            f, draws, method=method, seed=seed, workers=workers, chunk_bytes=chunk_bytes
        )
    )

    return {
        "schema": BENCH_SCHEMA,
        "config": {
            "n": n,
            "draws": draws,
            "seed": seed,
            "method": method,
            "chunk_bytes": chunk_bytes,
            "kernel_auto": compiled_auto.kernel,
            "kernel_faithful": compiled_race.kernel,
            "workers": workers,
        },
        "results": {
            "registry_select_many_s": registry_s,
            "compiled_select_many_s": compiled_s,
            "compiled_race_select_many_s": race_s,
            "stream_counts_s": counts_s,
            "parallel_counts_s": parallel_s,
            "speedup_compiled_vs_registry": registry_s / compiled_s if compiled_s else float("inf"),
            "speedup_race_vs_registry": registry_s / race_s if race_s else float("inf"),
            "registry_ns_per_draw": 1e9 * registry_s / draws,
            "compiled_ns_per_draw": 1e9 * compiled_s / draws,
        },
        "meta": host_meta(),
    }


def validate_bench(report: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``report`` is a well-formed bench record."""
    check_envelope(report, BENCH_SCHEMA)
    missing = [k for k in _REQUIRED_RESULT_KEYS if k not in report["results"]]
    if missing:
        raise ValueError(f"missing result keys: {missing}")
    for key in _REQUIRED_RESULT_KEYS:
        value = report["results"][key]
        if not isinstance(value, (int, float)) or value < 0:
            raise ValueError(f"result {key!r} must be a non-negative number, got {value!r}")


def render_bench(report: Dict[str, Any]) -> str:
    """One-screen human summary of a bench report."""
    c, r = report["config"], report["results"]
    lines = [
        f"== engine bench: n={c['n']}, draws={c['draws']}, method={c['method']} ==",
        f"registry select_many      {r['registry_select_many_s']:.3f} s"
        f"  ({r['registry_ns_per_draw']:.0f} ns/draw)",
        f"compiled ({c['kernel_auto']:>12s})  {r['compiled_select_many_s']:.3f} s"
        f"  ({r['compiled_ns_per_draw']:.0f} ns/draw)",
        f"compiled ({c['kernel_faithful']:>12s})  {r['compiled_race_select_many_s']:.3f} s",
        f"stream_counts             {r['stream_counts_s']:.3f} s",
        f"parallel_counts (w={c['workers']})    {r['parallel_counts_s']:.3f} s",
        f"speedup compiled/registry {r['speedup_compiled_vs_registry']:.1f}x",
        f"speedup race/registry     {r['speedup_race_vs_registry']:.2f}x",
    ]
    return "\n".join(lines)
