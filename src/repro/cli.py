"""Command-line entry point: ``python -m repro <command> [options]``.

Commands:

* the paper-reproduction experiments registered in
  :data:`repro.bench.experiments.EXPERIMENTS` (``all`` runs every one),
  printed as tables or ``--json``;
* ``audit`` — the differential degenerate-wheel audit (exit 0 iff zero
  violations across every backend);
* ``serve`` — the async selection service (binary frames + JSON-lines
  over TCP, or JSON-lines over stdio; sharded with ``--workers N``);
* the benches, each recording one ``BENCH_*.json`` through the
  :data:`BENCHES` table: ``bench-engine`` (compiled selection engine),
  ``bench-race`` (race kernel vs Theorem 1's round-count law),
  ``bench-aco`` (end-to-end colony construction), ``bench-serve``
  (serving stack), ``bench-select`` (selection workloads) and
  ``bench-tune`` (calibration, speedup predictor, autotuner);
* ``lab`` — the experiment workbench (its own subcommands, see
  :mod:`repro.lab.cli`); ``lab bench`` records ``BENCH_lab.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro._version import __version__
from repro.bench.experiments import EXPERIMENTS

__all__ = ["main", "build_parser"]


def _jsonable(obj):
    """Recursively convert experiment data (ndarrays etc.) to JSON types."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _commands() -> List[str]:
    """Every command name: the paper experiments, ``all``, then the tools."""
    return sorted(EXPERIMENTS) + ["all"] + sorted({"audit", "serve", *BENCHES})


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the experiments of 'The Logarithmic Random Bidding "
            "for the Parallel Roulette Wheel Selection with Precise "
            "Probabilities' (IPPS 2024)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        # `lab` has its own parser; main() hands it over before this one runs.
        choices=[name for name in _commands() if name != "lab"],
        help=(
            "experiment to run ('all' runs every paper experiment; "
            "'audit' runs the differential degenerate-wheel audit over "
            "every selection backend; "
            "'bench-aco' times end-to-end colony construction scalar vs "
            "the vectorized lockstep engine; "
            "'bench-engine' times the compiled selection engine; "
            "'bench-race' validates the batched race kernel against the "
            "exact round-count law at paper-scale k; "
            "'bench-select' gates the selection workloads — smooth-"
            "lottery marginal exactness (precise vs independent-roulette "
            "at one draw budget) and ranking-&-selection PCS with a "
            "1-vs-N-worker determinism certificate; "
            "'bench-serve' measures the micro-batching selection service "
            "against the per-request baseline, binary frames against "
            "JSON-lines, and the sharded cluster scaling sweep; "
            "'bench-tune' calibrates this host, scores the Las Vegas "
            "speedup predictor against a measured worker sweep, and "
            "checks autotuned configs against a static sweep; "
            "'lab' is the declarative experiment workbench — "
            "'lab run CONFIG' executes a TOML/JSON design matrix resumably "
            "with per-cell caching (see 'lab --help'); "
            "'serve' runs the selection service — binary frames + "
            "JSON-lines over TCP, sharded across processes with "
            "--workers N)"
        ),
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="Monte-Carlo draws for table experiments (default: driver's default; "
        "the paper used 10**9)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--engine",
        type=str,
        default=None,
        help=(
            "drive table1/table2 with a from-scratch RNG engine at 32-bit "
            "resolution (e.g. 'mt19937' = the paper's exact rand(); slower)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the experiment's raw data as JSON instead of a table",
    )
    parser.add_argument(
        "--wheel-size",
        type=int,
        default=1000,
        help="bench-engine only: items on the benchmarked wheel (default 1000)",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help=(
            "bench-*: where to record the measurements (default "
            "BENCH_<name>.json, e.g. BENCH_engine.json for bench-engine); "
            "audit: also write the JSON report here"
        ),
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=200,
        help=(
            "audit only: draws per (backend, case) pair for vectorised "
            "backends; simulated machines get max(20, trials//2) (default 200)"
        ),
    )
    parser.add_argument(
        "--race-k",
        type=int,
        nargs="+",
        default=None,
        help="bench-race only: k grid to sweep (default 2^10 2^14 2^17 2^20)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "bench-race: fan-out processes (default: auto-tuned); "
            "serve: shard worker processes — >1 starts the sharded "
            "multi-process cluster (default: 1, in-process)"
        ),
    )
    parser.add_argument(
        "--aco-n",
        type=int,
        default=500,
        help="bench-aco only: TSP instance size (default 500, the gate scale)",
    )
    parser.add_argument(
        "--aco-ants",
        type=int,
        default=128,
        help="bench-aco only: ants per lockstep iteration (default 128)",
    )
    parser.add_argument(
        "--select-replications",
        type=int,
        default=None,
        help="bench-select only: screening replications for the PCS gate (default 40)",
    )
    parser.add_argument(
        "--select-systems",
        type=int,
        default=None,
        help="bench-select only: systems K in the slippage configuration (default 10)",
    )
    parser.add_argument(
        "--host",
        type=str,
        default="127.0.0.1",
        help="serve only: TCP bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=7077,
        help="serve only: TCP port (default 7077)",
    )
    parser.add_argument(
        "--stdio",
        action="store_true",
        help="serve only: speak JSON-lines over stdin/stdout instead of TCP",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="serve / bench-serve: requests coalesced per kernel call (default 64)",
    )
    parser.add_argument(
        "--max-delay-us",
        type=float,
        default=200.0,
        help="serve / bench-serve: batching delay bound in microseconds (default 200)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=1024,
        help="serve only: queued requests before shedding (default 1024)",
    )
    parser.add_argument(
        "--max-wheels",
        type=int,
        default=256,
        help="serve only: registry LRU capacity (default 256)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=64,
        help="bench-serve only: concurrent closed-loop clients (default 64)",
    )
    parser.add_argument(
        "--requests-per-client",
        type=int,
        default=32,
        help="bench-serve only: sequential requests per client (default 32)",
    )
    parser.add_argument(
        "--draws-per-request",
        type=int,
        default=8,
        help="bench-serve only: draws per request (default 8)",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=1,
        help=(
            "bench-serve only: load-generator processes for the TCP legs "
            "(default 1; raise on multi-core hosts so the client side is "
            "not the bottleneck)"
        ),
    )
    parser.add_argument(
        "--cluster-workers",
        type=int,
        nargs="+",
        default=None,
        help=(
            "bench-serve only: cluster worker counts to sweep "
            "(default: {1,2,4,8} capped by cpu_count)"
        ),
    )
    parser.add_argument(
        "--mutate",
        action="store_true",
        help=(
            "bench-serve only: run the served mutate leg (mixed UPDATE/DRAW "
            "traffic with per-version latency histograms) at the full "
            "--clients count instead of the light default"
        ),
    )
    parser.add_argument(
        "--update-every",
        type=int,
        default=4,
        help=(
            "bench-serve only: mutate leg sends one UPDATE per this many "
            "requests (default 4; 0 disables updates)"
        ),
    )
    parser.add_argument(
        "--update-k",
        type=int,
        default=8,
        help="bench-serve only: indices mutated per UPDATE (default 8)",
    )
    parser.add_argument(
        "--update-n",
        type=int,
        default=100_000,
        help=(
            "bench-serve only: wheel size for the delta-update-vs-"
            "re-register gate (default 100000, the recorded gate point)"
        ),
    )
    return parser


def _or(value, default):
    """``value``, or ``default`` when the flag was not given."""
    return default if value is None else value


def _given(**kwargs):
    """The keyword arguments whose flags were given (not None)."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _race_kwargs(args) -> dict:
    kwargs = {"trials": _or(args.iterations, 100_000), "seed": args.seed,
              "workers": args.workers}
    if args.race_k is not None:
        kwargs["ks"] = args.race_k
        # A custom grid may exclude the default gate point; anchor the
        # PRAM speedup leg at the grid's smallest k (capped for per-step
        # machine feasibility).
        kwargs["pram_k"] = min(min(args.race_k), 256)
    return kwargs


#: Every command that records a ``BENCH_*.json``: command -> (module, run
#: function, flags -> run kwargs, validator, renderer, default output).
#: ``lab`` is ``python -m repro lab bench``, parsed by :mod:`repro.lab.cli`.
BENCHES = {
    "bench-aco": (
        "repro.engine.aco_bench", "run_bench_aco",
        lambda a: dict(n=a.aco_n, n_ants=a.aco_ants,
                       iterations=_or(a.iterations, 2), seed=a.seed),
        "validate_bench_aco", "render_bench_aco", "BENCH_aco.json",
    ),
    "bench-engine": (
        "repro.engine.bench", "run_bench",
        lambda a: dict(n=a.wheel_size, draws=_or(a.iterations, 1_000_000),
                       seed=a.seed),
        "validate_bench", "render_bench", "BENCH_engine.json",
    ),
    "bench-race": (
        "repro.engine.race_bench", "run_bench_race", _race_kwargs,
        "validate_bench_race", "render_bench_race", "BENCH_race.json",
    ),
    "bench-select": (
        "repro.select.bench", "run_bench_select",
        lambda a: dict(seed=a.seed, **_given(
            lottery_draws=a.iterations, rs_replications=a.select_replications,
            rs_systems=a.select_systems)),
        "validate_bench_select", "render_bench_select", "BENCH_select.json",
    ),
    "bench-serve": (
        "repro.service.loadgen", "run_bench_serve",
        lambda a: dict(
            wheel_size=a.wheel_size, clients=a.clients,
            requests_per_client=a.requests_per_client,
            n_draws=a.draws_per_request, seed=a.seed, max_batch=a.max_batch,
            max_delay_us=a.max_delay_us, procs=a.procs,
            cluster_workers=a.cluster_workers, mutate=a.mutate,
            update_every=a.update_every, update_k=a.update_k,
            update_n=a.update_n),
        "validate_bench_serve", "render_bench_serve", "BENCH_serve.json",
    ),
    "bench-tune": (
        "repro.tune.bench", "run_bench_tune",
        lambda a: dict(seed=a.seed, **_given(trials=a.iterations)),
        "validate_bench_tune", "render_bench_tune", "BENCH_tune.json",
    ),
    "lab": (
        "repro.lab.bench", "run_bench_lab", lambda a: dict(seed=a.seed),
        "validate_bench_lab", "render_bench_lab", "BENCH_lab.json",
    ),
}


def _run_bench(name: str, args) -> int:
    """Run bench ``name``, record it, print it; exit 1 if its validator
    refuses the record (nothing is written then)."""
    import importlib

    from repro.bench.record import write_report

    module, run, kwargs, validate, render, default_output = BENCHES[name]
    mod = importlib.import_module(module)
    report = getattr(mod, run)(**kwargs(args))
    path = args.output or default_output
    try:
        write_report(report, path, getattr(mod, validate))
    except ValueError as exc:
        print(f"{name}: record refused, {path} not written: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(getattr(mod, render)(report))
        print(f"recorded -> {path}")
    return 0


async def _serve_tcp_until_signal(service, host: str, port: int) -> None:
    """Serve TCP with graceful drain on SIGTERM / SIGINT.

    On signal: stop accepting connections, flip the service into
    ``draining`` (in-flight requests complete; new frames get the typed
    ``draining`` refusal), flush, then exit — no accepted request lost.
    """
    import asyncio
    import signal

    from repro.service.server import start_tcp_server

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    server = await start_tcp_server(service, host, port)
    bound = server.sockets[0].getsockname()
    workers = getattr(service, "workers", 1)
    print(
        f"repro selection service listening on {bound[0]}:{bound[1]} "
        f"(binary frames + JSON lines; workers={workers}; "
        f"SIGTERM/ctrl-c drains gracefully)",
        file=sys.stderr,
        flush=True,
    )
    try:
        await stop.wait()
        server.close()
        await server.wait_closed()
        print("draining: completing in-flight requests", file=sys.stderr, flush=True)
        await service.drain()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        await service.close()


def _run_serve(args) -> int:
    """Run the selection service until EOF (stdio) or signal (TCP)."""
    import asyncio

    from repro.service.scheduler import BatchConfig

    config = BatchConfig(
        max_batch=args.max_batch,
        max_delay_us=args.max_delay_us,
        queue_limit=args.queue_limit,
    )
    if args.workers is not None and args.workers > 1:
        # Sharded multi-process cluster; must be built before any event
        # loop exists (workers are forked in the constructor).
        from repro.service.cluster import ClusterService

        service = ClusterService(
            workers=args.workers,
            seed=args.seed,
            config=config,
            max_wheels=args.max_wheels,
        )
    else:
        from repro.service.server import SelectionService

        service = SelectionService(
            seed=args.seed, config=config, max_wheels=args.max_wheels
        )
    try:
        if args.stdio:
            from repro.service.server import serve_stdio

            asyncio.run(serve_stdio(service))
        else:
            asyncio.run(_serve_tcp_until_signal(service, args.host, args.port))
    except KeyboardInterrupt:  # pragma: no cover - signal raced the handler
        pass
    return 0


def _run_audit(args) -> int:
    """Run the degenerate-wheel audit; exit 0 iff zero violations."""
    from repro.audit import render_report, run_audit

    report = run_audit(trials=args.trials, seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
        if args.output:
            print(f"recorded -> {args.output}")
    return 0 if report["summary"]["passed"] else 1


def _run_one(
    name: str,
    iterations: Optional[int],
    seed: int,
    as_json: bool = False,
    engine: Optional[str] = None,
) -> str:
    driver = EXPERIMENTS[name]
    kwargs = {"seed": seed}
    if iterations is not None and name in ("table1", "table2", "worked-example", "rng"):
        kwargs["iterations"] = iterations
    if engine is not None and name in ("table1", "table2"):
        kwargs["engine"] = engine
    report = driver(**kwargs)
    if as_json:
        return json.dumps(
            {"name": report.name, "title": report.title, "data": _jsonable(report.data)},
            indent=2,
        )
    return report.render()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lab":
        # The workbench has its own subcommand tree (run/status/report/
        # clean/bench/scenarios); delegate before the flat parser runs.
        from repro.lab.cli import main as lab_main

        return lab_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name in _commands():
            print(name)
        return 0
    if args.experiment is None:
        parser.print_help()
        return 2
    if args.experiment == "audit":
        return _run_audit(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment in BENCHES:
        return _run_bench(args.experiment, args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(
            _run_one(
                name, args.iterations, args.seed, as_json=args.json, engine=args.engine
            )
        )
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
