"""The serving workloads: closed-loop clients over the frames codec.

Every request and reply crosses ``frames.request_to_frame`` ->
``frame_to_request`` and ``response_to_frame`` -> ``frame_to_response``;
the benchmark is the transport, so no socket is involved.  All clients
are asyncio tasks of one thread, pinned with the service to one core.
Each client takes a few untimed warm-up steps before the window opens.
The window is a run of half-second slices with a host speed probe
between them, and every time is reported at the reference host's speed
(:func:`host.speed`).

* ``draw-inproc``: 64 clients, an in-process ``SelectionService``, 4
  ``log_bidding`` wheels of 1000 items, DRAW(8) round-robin over them.
* ``draw-cluster``: the same script against ``ClusterService(workers=1)``.
* ``mutate-cluster``: 8 clients, each owning one 50 000-item wheel;
  DRAW(256) on its current version, then UPDATE(k=50), forever.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import statistics
import time
from array import array
from time import perf_counter, perf_counter_ns
from typing import Dict, List

import numpy as np

import gate
import host
from repro.service import frames
from repro.service.cluster import ClusterService
from repro.service.scheduler import BatchConfig
from repro.service.server import SelectionService

H = frames.HEADER_SIZE
SETUP_REPEATS = 7
#: Seconds of closed-loop load between two host speed probes.
SLICE_S = 0.5

# Workload shapes (fixed; only the seed varies the generated inputs).
DRAW_CLIENTS, DRAW_WHEELS, DRAW_ITEMS, DRAW_N = 64, 4, 1000, 8
MUTATE_CLIENTS, MUTATE_ITEMS, MUTATE_N, MUTATE_K = 8, 50_000, 256, 50
CLIENT_SEED_STRIDE = 1 << 32


def make_service(cluster: bool, seed: int):
    """The system under test, every host-dependent setting pinned."""
    if cluster:
        return ClusterService(
            workers=1, seed=seed, config=BatchConfig(), max_wheels=256,
            policy="auto", start_method="fork",
        )
    return SelectionService(
        seed=seed, config=BatchConfig(), max_wheels=256, policy="auto"
    )


class FrameTransport:
    """Carries each request and reply through the binary frame codec."""

    def __init__(self, service, tracer=None) -> None:
        self.service = service
        self.tracer = tracer

    async def __call__(self, request: Dict) -> Dict:
        if self.tracer is not None and self.tracer.active:
            return await self._traced(request)
        frame = frames.request_to_frame(request)
        ftype, _, rid = frames.parse_header(frame[:H])
        response = await self.service.handle_request(
            frames.frame_to_request(ftype, frame[H:], rid)
        )
        out = frames.response_to_frame(response)
        ftype, _, rid = frames.parse_header(out[:H])
        return frames.frame_to_response(ftype, out[H:], rid)

    async def _traced(self, request: Dict) -> Dict:
        t = self.tracer
        t0 = perf_counter_ns()
        frame = frames.request_to_frame(request)
        t1 = perf_counter_ns()
        ftype, _, rid = frames.parse_header(frame[:H])
        decoded = frames.frame_to_request(ftype, frame[H:], rid)
        t2 = perf_counter_ns()
        response = await self.service.handle_request(decoded)
        t3 = perf_counter_ns()
        out = frames.response_to_frame(response)
        t4 = perf_counter_ns()
        ftype, _, rid = frames.parse_header(out[:H])
        reply = frames.frame_to_response(ftype, out[H:], rid)
        t5 = perf_counter_ns()
        t.span("frames.encode", (t1 - t0) + (t4 - t3))
        t.span("frames.decode", (t2 - t1) + (t5 - t4))
        t.value("frames.bytes", len(frame) + len(out))
        return reply


class Recorder:
    """Outcomes of one window, per slice.

    Memory does not grow with the request rate, so ``rss_peak_mb`` does
    not rise when the service gets faster: each slice keeps counters and
    a fixed-size uniform sample (reservoir) of its draw latencies.
    UPDATE latencies are few and kept whole.  ``speed[i]`` is the host
    speed probed before slice ``i`` and ``speed[i + 1]`` the one after it.
    """

    RESERVOIR = 2000

    def __init__(self, seconds: float) -> None:
        n = self.slices = max(1, int(round(seconds / SLICE_S)))
        self.span = seconds / n
        self.slice = 0
        self.count = [0] * n
        self.draws = [0] * n
        self.seen = [0] * n
        self.elapsed = [0.0] * n
        self.speed = [1.0] * (n + 1)
        self.cpu = 0.0
        self.lat_us = [array("d") for _ in range(n)]
        self.update_us = [array("d") for _ in range(n)]
        self.attempted = 0
        self.failed = 0
        self._rng = random.Random(0)

    def absorb(self, other: "Recorder") -> None:
        """Count another recorder's requests as attempted (and failed)."""
        self.attempted += other.attempted
        self.failed += other.failed

    def finish(self, kind: str, t0_ns: int, reply: Dict, draws: int) -> bool:
        lat_us = (perf_counter_ns() - t0_ns) / 1e3
        i = self.slice
        ok = reply.get("status") == "ok"
        self.attempted += 1
        self.count[i] += 1
        if kind == "update":
            self.update_us[i].append(lat_us)
        else:
            self.seen[i] += 1
            sample = self.lat_us[i]
            if len(sample) < self.RESERVOIR:
                sample.append(lat_us)
            else:
                j = self._rng.randrange(self.seen[i])
                if j < self.RESERVOIR:
                    sample[j] = lat_us
        if ok:
            self.draws[i] += draws
        else:
            self.failed += 1
            host.log(f"{kind} failed: {reply}")
        return ok

    def slice_speed(self) -> List[float]:
        """Host speed during each slice."""
        return host.interval_speeds(self.speed)


class Workload:
    """Generated inputs plus the closed-loop script for one workload."""

    cluster = False

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 0])
        self.seed = seed
        self.service_seed = int(rng.integers(0, 1 << 62))
        self.seed_base = int(rng.integers(0, 1 << 40))
        self.fitnesses = self.make_fitnesses(rng)
        self.wheel_ids: List[str] = []

    async def setup(self, transport) -> None:
        """Register every wheel and send one warm-up draw to each."""
        self.wheel_ids = []
        for f in self.fitnesses:
            reply = await transport(
                {"op": "register", "fitness": f, "method": "log_bidding"}
            )
            if reply.get("status") != "ok":
                raise RuntimeError(f"registration failed: {reply}")
            self.wheel_ids.append(reply["wheel"])
        for wid in self.wheel_ids:
            reply = await transport({"op": "draw", "wheel": wid, "n": 1, "seed": 0})
            if reply.get("status") != "ok":
                raise RuntimeError(f"warm-up draw failed: {reply}")


class DrawWorkload(Workload):
    clients = DRAW_CLIENTS
    warmup_steps = 8

    def make_fitnesses(self, rng):
        return [rng.uniform(0.5, 2.0, DRAW_ITEMS) for _ in range(DRAW_WHEELS)]

    def request(self, k: int):
        """(wheel index, seed, n) of request ``k``: round-robin over wheels."""
        return k % DRAW_WHEELS, self.seed_base + k, DRAW_N

    def start(self) -> None:
        self.digests = array("q")  # digest of reply k at index k
        self.failed_keys = set()

    async def step(self, client: int, transport, rec: Recorder) -> bool:
        k = len(self.digests)
        self.digests.append(0)
        w, seed, n = self.request(k)
        t0 = perf_counter_ns()
        reply = await transport(
            {"op": "draw", "wheel": self.wheel_ids[w], "n": n, "seed": seed, "id": k}
        )
        if rec.finish("draw", t0, reply, n):
            self.digests[k] = gate.digest(reply["draws"])
        else:
            self.failed_keys.add(k)
        return True

    def check(self) -> int:
        return gate.check_draw_replies(
            self.service_seed, self.fitnesses, self.wheel_ids,
            self.digests, self.failed_keys, self.request,
        )


class MutateWorkload(Workload):
    clients = MUTATE_CLIENTS
    cluster = True
    # Enough versions to fill the 256-wheel registry before timing starts,
    # so the window sees eviction in steady state, not the memory growth
    # of the first few seconds.
    warmup_steps = 40

    def make_fitnesses(self, rng):
        return [rng.uniform(0.5, 2.0, MUTATE_ITEMS) for _ in range(MUTATE_CLIENTS)]

    def deltas(self, client: int):
        """UPDATE ``j``'s ``(indices, values)`` for one client, in order."""
        rng = np.random.default_rng([self.seed, 1, client])
        while True:
            yield (rng.integers(0, MUTATE_ITEMS, MUTATE_K),
                   rng.uniform(0.5, 2.0, MUTATE_K))

    def draw_seed(self, client: int, j: int) -> int:
        return self.seed_base + client * CLIENT_SEED_STRIDE + j

    def start(self) -> None:
        self.current = list(self.wheel_ids)
        self.steps: List[List[Dict]] = [[] for _ in range(self.clients)]
        self.gens = [self.deltas(c) for c in range(self.clients)]
        self.ids = itertools.count()
        self.stopped = [False] * self.clients

    async def step(self, client: int, transport, rec: Recorder) -> bool:
        if self.stopped[client]:
            return False
        j = len(self.steps[client])
        step: Dict = {"draw": None}
        self.steps[client].append(step)
        t0 = perf_counter_ns()
        reply = await transport({
            "op": "draw", "wheel": self.current[client], "n": MUTATE_N,
            "seed": self.draw_seed(client, j), "id": next(self.ids),
        })
        if rec.finish("draw", t0, reply, MUTATE_N):
            step["draw"] = gate.digest(reply["draws"])
        idx, vals = next(self.gens[client])
        t0 = perf_counter_ns()
        reply = await transport({
            "op": "update", "wheel": self.current[client], "indices": idx,
            "values": vals, "id": next(self.ids),
        })
        if not rec.finish("update", t0, reply, 0):
            self.stopped[client] = True  # the lineage ends at a failed UPDATE
            return False
        step["update"] = self.current[client] = reply["wheel"]
        return True

    def check(self) -> int:
        return sum(
            gate.check_lineage(
                self.service_seed, self.fitnesses[c], self.wheel_ids[c],
                self.steps[c], self.deltas(c),
                lambda j, c=c: self.draw_seed(c, j), MUTATE_N,
            )
            for c in range(self.clients)
        )


class ClusterDrawWorkload(DrawWorkload):
    cluster = True


WORKLOADS = {
    "draw-inproc": DrawWorkload,
    "draw-cluster": ClusterDrawWorkload,
    "mutate-cluster": MutateWorkload,
}


async def _warmup(wl: Workload, transport) -> Recorder:
    """Untimed first steps of every client; their outputs are still checked."""
    warm = Recorder(SLICE_S)

    async def client(c: int) -> None:
        for _ in range(wl.warmup_steps):
            if not await wl.step(c, transport, warm):
                return

    await asyncio.gather(*(client(c) for c in range(wl.clients)))
    return warm


async def _window(wl: Workload, transport, rec: Recorder) -> None:
    """The clients' closed loops, slice by slice, probing the host between.

    A slice ends when every client has the reply to its last request, so
    no request spans a probe and the program is idle while one runs.
    """
    rec.speed[0] = host.speed()
    for i in range(rec.slices):
        rec.slice = i
        cpu0 = time.process_time()
        t0 = perf_counter()
        stop = t0 + rec.span

        async def client(c: int) -> None:
            while perf_counter() < stop:
                if not await wl.step(c, transport, rec):
                    return

        await asyncio.gather(*(client(c) for c in range(wl.clients)))
        rec.elapsed[i] = perf_counter() - t0
        rec.cpu += time.process_time() - cpu0
        rec.speed[i + 1] = host.speed()


def _pct(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


async def _setup_only(wl: Workload, service) -> None:
    try:
        await wl.setup(FrameTransport(service))
    finally:
        await service.close()


def run(name: str, seed: int, seconds: float, tracer, tmpdir: str) -> Dict:
    cores = host.pin_one_core()
    wl = WORKLOADS[name](seed)
    # Set-up times are scaled by the host speed probed around each one.
    setups, raw_setups = [], []
    for i in range(SETUP_REPEATS - 1):
        if tracer is not None:
            tracer.generation = i
        s0 = host.speed()
        t0 = perf_counter()
        service = make_service(wl.cluster, wl.service_seed)
        asyncio.run(_setup_only(wl, service))
        raw_setups.append(perf_counter() - t0)
        setups.append(raw_setups[-1] * (s0 + host.speed()) / 2)
    if tracer is not None:
        tracer.generation = SETUP_REPEATS - 1
    rec = Recorder(seconds)
    out: Dict = {"raw_setups": raw_setups}
    s0 = host.speed()
    t_setup = perf_counter()
    service = make_service(wl.cluster, wl.service_seed)

    async def main() -> None:
        transport = FrameTransport(service, tracer)
        try:
            await wl.setup(transport)
            raw_setups.append(perf_counter() - t_setup)
            setups.append(raw_setups[-1] * (s0 + host.speed()) / 2)
            wl.start()
            t_warm = perf_counter()
            rec.absorb(await _warmup(wl, transport))
            out["warmup_s"] = perf_counter() - t_warm
            shard_pids = host.children()
            shard_cpu0 = sum(host.cpu_seconds(p) for p in shard_pids)
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter()
            await _window(wl, transport, rec)
            out["span"] = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            out["shard_cpu"] = sum(host.cpu_seconds(p) for p in shard_pids) - shard_cpu0
            out["rss_peak_mb"] = host.rss_peak_mb()
            out["stats"] = (await service.handle_request({"op": "stats"}))["stats"]
        finally:
            await service.close()

    asyncio.run(main())
    wrong = wl.check()
    result = _metrics(wl, rec, out, setups, wrong, tracer, tmpdir)
    result["report"]["cores"] = cores
    return result


def _p99_groups(rec: Recorder) -> List[List[int]]:
    """Runs of consecutive slices holding at least 1000 draws each, so
    every group's p99 has at least ten samples beyond it."""
    groups, acc = [[]], 0
    for i in range(rec.slices):
        if acc >= 1000:
            groups.append([])
            acc = 0
        groups[-1].append(i)
        acc += rec.seen[i]
    if acc < 1000 and len(groups) > 1:
        groups[-2].extend(groups.pop())
    return groups


def _timed(rec: Recorder, speed: List[float]) -> Dict:
    """Rates and latencies of the window, each slice's times multiplied
    by ``speed`` (its host speed, or all ones).

    Rates are totals over the scaled window, and the p50 is taken over
    the pooled samples, in which every slice weighs the same.  When the
    host switches between fast and slow phases during a window, both move
    with the share of time in each phase, where a median over slices
    would jump from one phase's value to the other's.  The p99 is the
    median of the p99s of groups of slices: a stall of a few milliseconds
    lands in the latency of every request in flight, and would otherwise
    set a pooled p99 on its own.
    """
    n = rec.slices
    wall = sum(rec.elapsed[i] * speed[i] for i in range(n))
    lat = [np.asarray(rec.lat_us[i]) * speed[i] for i in range(n)]
    return {
        "req_per_s": sum(rec.count) / wall,
        "draws_per_s": sum(rec.draws) / wall,
        "draw_p50_us": _pct(np.concatenate(lat), 0.50),
        "draw_p99_us": float(np.median(
            [_pct(np.concatenate([lat[i] for i in g]), 0.99) for g in _p99_groups(rec)]
        )),
    }


def _metrics(wl, rec, out, setups, wrong, tracer, tmpdir) -> Dict:
    """End-to-end metrics of the window, at the reference host's speed."""
    n = rec.slices
    speed = rec.slice_speed()
    upd = np.concatenate(
        [np.asarray(rec.update_us[i]) * speed[i] for i in range(n)]
    )
    failed = rec.failed + wrong
    attempted = rec.attempted
    e2e = {
        "setup_s": statistics.median(setups),
        **_timed(rec, speed),
        "ok_share": (attempted - failed) / attempted if attempted else 0.0,
        "rss_peak_mb": out["rss_peak_mb"],
    }
    stats = out["stats"]
    report = {
        "unscaled": {
            **_timed(rec, [1.0] * n),
            "setup_s": statistics.median(out["raw_setups"]),
        },
        "slice_speed": speed,
        "slice_req_per_s": [c / t for c, t in zip(rec.count, rec.elapsed)],
        "samples": {"draw": sum(rec.seen), "update": int(upd.size),
                    "draw_latency_kept": sum(len(a) for a in rec.lat_us),
                    "draw_p99_groups": len(_p99_groups(rec))},
        "probe_share": 1.0 - sum(rec.elapsed) / out["span"],
        "update_p50_us": _pct(upd, 0.50),
        "update_p99_us": _pct(upd, 0.99),
        "failed_share": failed / attempted if attempted else 1.0,
        "wrong_outputs": wrong,
        "error_replies": rec.failed,
        "setups_s": setups,
        "warmup_s": out["warmup_s"],
        "busy_processes": 2 if wl.cluster else 1,
        "registry": stats["shards"][0]["registry"],
        "batch_sizes": stats["shards"][0]["batch_sizes"],
    }
    layer = None
    if tracer is not None:
        layer = _layers(wl, rec, out, stats, tracer, tmpdir)
        layer["update_p50_us"] = report["update_p50_us"]
        layer["update_p99_us"] = report["update_p99_us"]
        layer["trace.req_per_s"] = e2e["req_per_s"]
        layer["trace.draws_per_s"] = e2e["draws_per_s"]
    return {"e2e": e2e, "layer": layer, "attempted": attempted,
            "failed": failed, "report": report}


def _layers(wl, rec, out, stats, tracer, tmpdir) -> Dict:
    import os

    from tracing import Tracer

    shard = Tracer()
    if wl.cluster:
        merged = shard.merge_files(
            os.path.join(tmpdir, f"shard-{tracer.generation}-*.json")
        )
        if merged != 1:
            raise RuntimeError(f"expected one shard trace, found {merged}")
    # The layers below the server run in the shard for cluster workloads.
    low = shard if wl.cluster else tracer
    sp, lv = tracer.spans, low.spans
    batch = stats["shards"][0]["batch_sizes"]
    reg = stats["shards"][0]["registry"]
    seg_ns = lv["compiled.segments"]
    seg_draws = low.values["compiled.segments.size"]
    front_draw_p50 = _pct(sp["server.draw"], 0.5) / 1e3
    served_p50 = _pct(lv["scheduler.draw"], 0.5) / 1e3
    # Front-end sends per request in the window, plus shard sends per
    # message the shard received (over its lifetime).
    window_requests = sum(rec.count)
    sends = len(tracer.values["cluster.send"]) / window_requests + len(
        shard.values["cluster.send"]
    ) / max(1, len(shard.values["cluster.recv"]))
    return {
        "frames.encode_us": _mean(sp["frames.encode"]) / 1e3,
        "frames.decode_us": _mean(sp["frames.decode"]) / 1e3,
        "frames.bytes_per_req": _mean(tracer.values["frames.bytes"]),
        "server.self_us": _mean(sp["server.self"]) / 1e3,
        "scheduler.batch_mean_size": batch["mean_size"],
        "scheduler.batch_fill": batch["mean_size"] / BatchConfig().max_batch,
        "scheduler.queue_wait_us_p50": _pct(low.values["scheduler.queue_wait_s"], 0.5) * 1e6,
        "scheduler.served_us_p50": served_p50,
        "scheduler.shed": sum(sh["shed_total"] for sh in stats["shards"]),
        "scheduler.expired": sum(sh["expired_total"] for sh in stats["shards"]),
        "streams.derive_us_per_flush": _mean(lv["streams.derive"]) / 1e3,
        "registry.get_us": _mean(lv["registry.get"]) / 1e3,
        "registry.compiles": reg["compiles"],
        "registry.store_hits": reg["store_hits"],
        "registry.update_us_p50": _pct(lv["registry.update"], 0.5) / 1e3,
        "registry.update_incremental_share":
            reg["update_fenwick"] / reg["delta_recompiles"] if reg["delta_recompiles"] else 0.0,
        "registry.evictions": reg["evictions"],
        "registry.rederives": reg["rederives"],
        "compiled.segments_us_per_flush": _mean(seg_ns) / 1e3,
        "compiled.ns_per_draw": float(np.sum(seg_ns)) / max(1.0, float(np.sum(seg_draws))),
        "compiled.apply_updates_us_p50": _pct(lv["compiled.apply_updates"], 0.5) / 1e3,
        "cluster.hop_us_p50": front_draw_p50 - served_p50 if wl.cluster else 0.0,
        "cluster.sends_per_req": sends if wl.cluster else 0.0,
        "cluster.frontend_cpu_share": rec.cpu / sum(rec.elapsed),
        "cluster.shard_cpu_us_per_req": out["shard_cpu"] / window_requests * 1e6,
    }
