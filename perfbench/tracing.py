"""Per-layer tracing for the traced run, recorded from the benchmark's side.

:func:`install` wraps the calls each layer exposes (service handlers,
scheduler, registry, compiled kernel, stream derivation, the pipe to the
shards, the parallel fan-out's worker task) with timers that append to
an in-memory :class:`Tracer`.  Nothing under ``src/`` changes; the
untraced run never calls :func:`install`, so end-to-end numbers carry no
tracing cost.

Shard processes are forked after :func:`install`, so they inherit the
wrappers.  Each shard resets its copy of the tracer when its loop starts
and writes it to ``<tmpdir>/shard-<generation>-<index>.json`` when the
loop ends; parallel-fan-out workers write one small file per task.
"""

from __future__ import annotations

import contextvars
import functools
import glob
import json
import os
from collections import defaultdict
from time import monotonic, perf_counter_ns
from typing import Dict, List, Optional

# Accumulates child-layer time inside one ``handle_request`` call, so the
# server layer's self time is its span minus its children.
_CHILD: "contextvars.ContextVar[Optional[list]]" = contextvars.ContextVar(
    "perfbench_child", default=None
)


class Tracer:
    """Span durations (ns) and sampled values, keyed by layer name."""

    def __init__(self) -> None:
        self.generation = 0
        self.reset()

    def reset(self) -> None:
        self.spans: Dict[str, List[int]] = defaultdict(list)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.active = False

    def span(self, name: str, ns: int) -> None:
        if self.active:
            self.spans[name].append(ns)

    def value(self, name: str, x: float) -> None:
        if self.active:
            self.values[name].append(x)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "values": self.values}, fh)

    def merge_files(self, pattern: str) -> int:
        """Fold dumped tracers into this one; returns files merged."""
        files = sorted(glob.glob(pattern))
        for path in files:
            with open(path) as fh:
                data = json.load(fh)
            for k, v in data["spans"].items():
                self.spans[k].extend(v)
            for k, v in data["values"].items():
                self.values[k].extend(v)
        return len(files)


def _timed_async(tracer: Tracer, cls, attr: str, name: str) -> None:
    orig = getattr(cls, attr)

    @functools.wraps(orig)
    async def wrapper(*args, **kwargs):
        t0 = perf_counter_ns()
        try:
            return await orig(*args, **kwargs)
        finally:
            ns = perf_counter_ns() - t0
            tracer.span(name, ns)
            acc = _CHILD.get()
            if acc is not None:
                acc[0] += ns

    setattr(cls, attr, wrapper)


def _timed_sync(tracer: Tracer, owner, attr: str, name: str, size=None) -> None:
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        t0 = perf_counter_ns()
        out = orig(*args, **kwargs)
        tracer.span(name, perf_counter_ns() - t0)
        if size is not None:
            tracer.value(name + ".size", size(args, out))
        return out

    setattr(owner, attr, wrapper)


def _server_span(tracer: Tracer, cls) -> None:
    orig = cls.handle_request

    @functools.wraps(orig)
    async def wrapper(self, request):
        acc = [0]
        token = _CHILD.set(acc)
        t0 = perf_counter_ns()
        try:
            return await orig(self, request)
        finally:
            ns = perf_counter_ns() - t0
            _CHILD.reset(token)
            tracer.span("server." + str(request.get("op")), ns)
            tracer.span("server.self", ns - acc[0])

    cls.handle_request = wrapper


def install(tracer: Tracer, tmpdir: str) -> None:
    """Wrap every traced layer boundary; call once per process."""
    import multiprocessing.connection as mpc

    from repro.engine import compiled, parallel
    from repro.service import cluster, registry, scheduler, server

    _server_span(tracer, server.SelectionService)
    _server_span(tracer, cluster.ClusterService)
    _timed_async(tracer, cluster.ClusterService, "_call", "cluster.call")
    _timed_async(tracer, scheduler.MicroBatchScheduler, "draw", "scheduler.draw")
    _timed_async(tracer, scheduler.MicroBatchScheduler, "update", "scheduler.update")

    flush = scheduler.MicroBatchScheduler._flush

    @functools.wraps(flush)
    def traced_flush(self, wheel_id, queue):
        now = monotonic()
        for req in queue.pending:
            tracer.value("scheduler.queue_wait_s", now - req.enqueued_at)
        return flush(self, wheel_id, queue)

    scheduler.MicroBatchScheduler._flush = traced_flush

    _timed_sync(tracer, scheduler, "derive_seeds", "streams.derive")
    _timed_sync(tracer, registry.WheelRegistry, "get", "registry.get")
    _timed_sync(tracer, registry.WheelRegistry, "update", "registry.update")
    _timed_sync(
        tracer, compiled.CompiledWheel, "select_segments", "compiled.segments",
        size=lambda args, out: len(out),
    )
    _timed_sync(tracer, compiled.CompiledWheel, "apply_updates", "compiled.apply_updates")

    send, recv = mpc.Connection.send, mpc.Connection.recv

    @functools.wraps(send)
    def counted_send(self, obj):
        tracer.value("cluster.send", 1)
        return send(self, obj)

    @functools.wraps(recv)
    def counted_recv(self):
        out = recv(self)
        tracer.value("cluster.recv", 1)
        return out

    mpc.Connection.send = counted_send
    mpc.Connection.recv = counted_recv

    worker_loop = cluster._worker_loop

    @functools.wraps(worker_loop)
    async def traced_worker_loop(conn, shard_id, *rest):
        tracer.reset()
        tracer.active = True
        try:
            await worker_loop(conn, shard_id, *rest)
        finally:
            tracer.dump(
                os.path.join(tmpdir, f"shard-{tracer.generation}-{shard_id}.json")
            )

    cluster._worker_loop = traced_worker_loop

    task = parallel._worker_task

    @functools.wraps(task)
    def traced_task(payload):
        t0 = perf_counter_ns()
        out = task(payload)
        ns = perf_counter_ns() - t0
        path = os.path.join(tmpdir, f"par-{os.getpid()}-{t0}.json")
        with open(path, "w") as fh:
            json.dump({"ns": ns}, fh)
        return out

    parallel._worker_task = traced_task


def take_task_times(tmpdir: str) -> List[int]:
    """Collect (and remove) the fan-out task times written so far."""
    out = []
    for path in glob.glob(os.path.join(tmpdir, "par-*.json")):
        with open(path) as fh:
            out.append(json.load(fh)["ns"])
        os.remove(path)
    return out
