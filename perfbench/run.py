"""Repo benchmark: one workload, one seed, one measured window.

Usage, from the repository root::

    python3 perfbench/run.py --workload draw-inproc --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` reruns the
same workload with every layer boundary wrapped and prints the per-layer
metrics.  Times and rates are scaled to a reference host's speed, probed
between slices of the window (``host.speed``).  The last stdout line is
the result object; the line before it is a report with the host record,
the unscaled values, sample counts and checks.  The metric
names and units come from ``BENCHMARK.json`` at the repository root;
``perfbench/README.md`` defines each one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("draw-inproc", "draw-cluster", "mutate-cluster", "tables")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    declared = declared_metrics()
    # SIGTERM unwinds like an exception, so the service is closed and the
    # temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    # Pinned before the package is imported: no run reads or writes the
    # per-user calibration cache.
    os.environ["REPRO_TUNE_CACHE"] = os.path.join(tmpdir, "tune")
    sys.path.insert(0, str(src))
    try:
        return _run(args, declared, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _run(args, declared: dict, tmpdir: str) -> int:
    import host

    before = host.host_record()
    shm_before = host.shm_dirs()
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer, tmpdir)
    if args.workload == "tables":
        import tables

        result = tables.run(args.seed, args.seconds, tracer, tmpdir)
    else:
        import serving

        result = serving.run(args.workload, args.seed, args.seconds, tracer, tmpdir)
    leftovers = host.reap_leftovers(shm_before)
    after = host.host_record()

    cores = result["report"]["cores"]
    busy = result["report"]["busy_processes"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": before,
        "loadavg_after": after["loadavg"],
        "probe_s_after": after["probe_s"],
        "oversubscribed": busy > cores,
        "leftovers": leftovers,
        **result["report"],
    }
    if busy > cores:
        host.log(f"{args.workload} keeps {busy} processes busy on {cores} cores")
    values = dict(result["layer"] if args.trace else result["e2e"])
    names = declared[args.trace]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = sorted(set(names) - set(values))
    if missing and not args.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # A layer this workload never reaches reports 0 (see README.md).
    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u in names.items()}
    clean = not leftovers["processes"] and not leftovers["shm_dirs"]
    correct = clean and result["failed"] == 0
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
