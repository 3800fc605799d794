"""Sharded multi-core serving cluster: process-pool kernel executors.

One asyncio front end, N worker processes.  Each worker serves through
its own :class:`~repro.service.server.SelectionService`, the in-process
service unchanged, so draws for a wheel batch densely on the core that
owns it and a request gets the same response, errors included, on any
pool size.  The front end only routes, seeds, correlates and drains.

The four structural pieces:

* **The batched shard hop** (:class:`_Hop`): each end of a shard's
  pipe keeps an outbox.  Everything queued during one event-loop tick
  leaves as a single ``("batch", items, draws)`` message, flushed by
  one ``loop.call_soon`` callback: the front end batches the
  ``("req", tag, request)`` items its clients issued in that tick, the
  shard batches the responses its service completed.  Draw replies
  travel as one concatenated ``int64`` buffer that the front end slices
  back apart.  Flushing at
  the end of the tick adds no waiting and no knob; under load it turns
  two pickled messages per request into two per *tick*.  If a shard's
  pipe breaks, every request outstanding on it fails with the typed
  :class:`~repro.errors.ShardUnavailableError` instead of hanging.
* **Consistent-hash routing** (:class:`HashRing`): every ``wheel_id``
  maps to exactly one shard, so a wheel compiles on one worker and all
  its concurrent draws coalesce there instead of diluting across the
  pool.  Virtual nodes keep the assignment balanced, and changing the
  worker count only remaps the keys the ring says must move.
* **Shared compiled-wheel store**
  (:class:`~repro.service.shm.SharedWheelStore`): workers dedupe
  compilation through a write-once blob store of
  ``CompiledWheel.to_bytes`` exports living in shared memory.
* **Determinism per shard**: a request's draws are the pure function
  ``request_stream(service_seed, wheel_key, request_seed)`` of data that
  never depends on which worker executes or how requests coalesce — so
  a 1-worker and an 8-worker cluster return *byte-identical* responses
  for the same ``(wheel_id, request seed)``.  ``bench-serve`` records
  this as the per-shard determinism certificate.

Graceful drain: :meth:`ClusterService.drain` flips the service into
``draining`` (new frames get the typed :class:`ServiceDrainingError`
response), waits for every in-flight request to complete, then flushes
and stops each worker — no accepted request is ever lost.
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import hashlib
import multiprocessing as mp
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.errors import ServiceDrainingError, ServiceError, ShardUnavailableError
from repro.service.metrics import BatchSizeHistogram, ServiceMetrics
from repro.service.protocol import PROTOCOL_VERSION, error_response, ok_response
from repro.service.registry import (
    DEFAULT_MAX_WHEELS,
    base_id,
    register_tokens,
    wheel_digest,
)
from repro.service.scheduler import BatchConfig
from repro.service.server import SelectionService
from repro.service.shm import SharedWheelStore

__all__ = ["HashRing", "ClusterService", "DEFAULT_VNODES"]

#: Virtual nodes per shard; 64 keeps the max/mean shard load within a
#: few percent for the wheel-count scales the registry holds.
DEFAULT_VNODES = 64


def _hash_point(token: str) -> int:
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring mapping wheel ids to shard indices.

    The classic guarantee: growing the pool from N to N+1 workers moves
    onto the new shard only the keys whose ring arc it takes over —
    every other wheel keeps its owner (and its warm compiled artifact).
    """

    def __init__(self, shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.shards = int(shards)
        self.vnodes = int(vnodes)
        points = sorted(
            (_hash_point(f"shard-{s}/vnode-{v}"), s)
            for s in range(shards)
            for v in range(vnodes)
        )
        self._keys = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def lookup(self, wheel_id: str) -> int:
        """The shard owning ``wheel_id`` (stable across processes/runs)."""
        idx = bisect.bisect_right(self._keys, _hash_point(wheel_id))
        return self._owners[idx % len(self._owners)]


# ----------------------------------------------------------------------
# The shard hop
# ----------------------------------------------------------------------


class _Hop:
    """One end of a shard pipe, batched once per event-loop tick each way.

    :meth:`post` queues an item; the first post of a tick schedules one
    :meth:`flush` with ``loop.call_soon``, so the flush runs after every
    callback already due in that tick and sends everything queued as a
    single ``("batch", items, draws)`` message.  The front end posts
    ``("req", tag, request)`` items, plus ``("stats", tag)`` and
    ``("stop", tag)``; the shard answers each with
    ``("resp", tag, response)``, except that an ok draw goes through
    :meth:`post_draws` as ``("draws", tag, n)`` with its array
    concatenated into ``draws``, so a batch of draw replies pickles as
    one ``int64`` buffer (``None`` when the batch carries no draws).

    A daemon thread (``reader``) blocks on ``conn.recv`` and hands each
    batch to ``deliver(items, draws)`` on the loop.  Writes happen on the
    loop and may block while the pipe is full; that cannot deadlock,
    because the peer's reads never wait for the peer's loop.  End of
    file, or a failed send, calls ``lost(exc)`` once, on the loop, and
    drops the outbox.  The reader ends at end of file: join it before
    closing ``conn``, or it may read from a later pipe that reuses the
    descriptor.  ``sent`` and ``received`` count items per message.
    """

    __slots__ = (
        "conn", "loop", "deliver", "lost", "items", "arrays", "dead",
        "sent", "received", "reader",
    )

    def __init__(
        self,
        conn,
        loop: "asyncio.AbstractEventLoop",
        deliver: Callable[[list, Optional[np.ndarray]], None],
        lost: Callable[[BaseException], None],
        name: str,
    ) -> None:
        self.conn = conn
        self.loop = loop
        self.deliver = deliver
        self.lost = lost
        self.items: list = []
        self.arrays: List[np.ndarray] = []
        self.dead = False
        self.sent = BatchSizeHistogram()
        self.received = BatchSizeHistogram()
        self.reader = threading.Thread(target=self._read, name=name, daemon=True)
        self.reader.start()

    def post(self, item: tuple) -> None:
        if not self.items:
            self.loop.call_soon(self.flush)
        self.items.append(item)

    def post_draws(self, tag: int, draws: np.ndarray) -> None:
        self.post(("draws", tag, len(draws)))
        self.arrays.append(draws)

    def flush(self) -> None:
        items, self.items = self.items, []
        if not items:
            return
        arrays, self.arrays = self.arrays, []
        draws = np.concatenate(arrays) if arrays else None
        self.sent.observe(len(items))
        try:
            self.conn.send(("batch", items, draws))
        except OSError as exc:
            self._lose(exc)

    def _receive(self, msg) -> None:
        _, items, draws = msg
        self.received.observe(len(items))
        self.deliver(items, draws)

    def _lose(self, exc: BaseException) -> None:
        self.items.clear()
        self.arrays.clear()
        if not self.dead:
            self.dead = True
            self.lost(exc)

    def _read(self) -> None:
        while True:
            try:
                msg = self.conn.recv()
            except Exception as exc:  # noqa: BLE001 - EOF, reset, or garbage
                self._call_soon(self._lose, exc)
                return
            if not self._call_soon(self._receive, msg):
                return

    def _call_soon(self, callback, arg) -> bool:
        try:
            self.loop.call_soon_threadsafe(callback, arg)
        except RuntimeError:  # loop already closed
            return False
        return True


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _worker_main(
    conn,
    shard_id: int,
    seed: int,
    config: Optional[BatchConfig],
    max_wheels: int,
    policy: str,
    store_path: Optional[str],
) -> None:
    """Entry point of one shard process (must stay importable for spawn)."""
    try:
        asyncio.run(
            _worker_loop(conn, shard_id, seed, config, max_wheels, policy, store_path)
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


async def _worker_loop(
    conn,
    shard_id: int,
    seed: int,
    config: Optional[BatchConfig],
    max_wheels: int,
    policy: str,
    store_path: Optional[str],
) -> None:
    """Serve the hop's ``("req", tag, request)`` items through one
    :class:`SelectionService`.

    The shard's :class:`_Hop` reader thread hands each received batch to
    the event loop, where every request becomes a task awaiting
    ``service.handle_request``; requests of one or consecutive batches
    coalesce in its micro-batcher exactly as concurrent TCP clients do,
    and the replies of one micro-batch flush leave in one message.
    ``("stats", tag)`` answers :meth:`SelectionService.snapshot`.
    ``("stop", tag)`` closes the service, waits for every reply task,
    sends its acknowledgement last, and ends the loop; so does losing
    the pipe.
    """
    store = SharedWheelStore(path=store_path) if store_path else None
    service = SelectionService(
        seed=seed, config=config, max_wheels=max_wheels, policy=policy, store=store
    )
    loop = asyncio.get_running_loop()
    finished = loop.create_future()
    tasks: set = set()

    async def serve(tag, request) -> None:
        response = await service.handle_request(request)
        draws = response.get("draws")
        if draws is None:
            hop.post(("resp", tag, response))
        else:
            hop.post_draws(tag, draws)

    async def stop(tag) -> None:
        # Flush in-flight micro-batches, let their reply tasks run, then
        # acknowledge last: the parent holds the drain barrier on this
        # ack, which is what makes shutdown lossless.
        await service.close()
        pending = tasks - {asyncio.current_task()}
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        hop.post(("resp", tag, {"shard": shard_id}))
        hop.flush()
        if not finished.done():
            finished.set_result(None)

    def deliver(items, _draws) -> None:
        for item in items:
            kind, tag = item[0], item[1]
            if kind == "stats":
                hop.post(("resp", tag, service.snapshot(shard_id)))
                continue
            task = loop.create_task(serve(tag, item[2]) if kind == "req" else stop(tag))
            tasks.add(task)
            task.add_done_callback(tasks.discard)

    def lost(_exc) -> None:
        if not finished.done():
            finished.set_result(None)

    hop = _Hop(conn, loop, deliver, lost, name=f"shard{shard_id}-pump")
    try:
        await finished
    finally:
        if store is not None:
            store.close()


# ----------------------------------------------------------------------
# Front end
# ----------------------------------------------------------------------


def _packed(request: Dict[str, Any]) -> Dict[str, Any]:
    """``request`` with numeric list fields as ndarrays, which pickle as
    one buffer; other fields travel as sent, for the shard to refuse."""
    for key in ("fitness", "indices", "values"):
        try:
            array = np.asarray(request[key]) if isinstance(request.get(key), list) else None
        except (TypeError, ValueError):
            continue
        if array is not None and array.dtype.kind in "biuf":
            request = {**request, key: array}
    return request


class _Shard:
    """Parent-side handle on one worker: pipe, process, in-flight map."""

    __slots__ = ("index", "conn", "proc", "outstanding", "routed", "hop", "lost")

    def __init__(self, index: int, conn, proc) -> None:
        self.index = index
        self.conn = conn
        self.proc = proc
        self.outstanding: Dict[int, "asyncio.Future"] = {}
        self.routed = 0
        self.hop: Optional[_Hop] = None
        #: Why the shard's pipe broke; ``None`` while it is healthy.
        self.lost: Optional[str] = None


class ClusterService:
    """The sharded, multi-process drop-in for :class:`SelectionService`.

    Exposes the same transport-neutral ``handle_request`` surface, so
    every transport (binary frames, JSON-lines TCP, stdio) works over a
    cluster unchanged.  Construct it *before* any event loop is running
    (workers are forked/spawned in ``__init__``).  Each shard's batched
    hop (:class:`_Hop`: outbox, per-tick flush, reply reader thread)
    attaches to the loop of the first served request, and the service
    must be served from that loop only.  A request whose shard has died
    gets the typed :class:`~repro.errors.ShardUnavailableError`.

    Parameters
    ----------
    workers:
        Shard processes (>= 1).  ``workers=1`` is the degenerate cluster
        the determinism certificate compares larger pools against.
    seed:
        Service master seed, passed verbatim to every shard — the reason
        any pool size answers identically.
    config / max_wheels / policy:
        Settings of each shard's :class:`SelectionService`.
    vnodes:
        Virtual nodes per shard on the routing ring.
    start_method:
        multiprocessing start method (default: ``fork`` when available).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        seed: int = 0,
        config: Optional[BatchConfig] = None,
        max_wheels: int = DEFAULT_MAX_WHEELS,
        policy: str = "auto",
        vnodes: int = DEFAULT_VNODES,
        start_method: Optional[str] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = int(workers)
        self.seed = int(seed)
        self.policy = str(policy)
        self.config = config or BatchConfig()
        self.metrics = ServiceMetrics()
        self.ring = HashRing(self.workers, vnodes)
        self.store = SharedWheelStore()
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        ctx = mp.get_context(start_method)
        self._shards: List[_Shard] = []
        self._tag = 0
        self._request_counter = 0
        self._draining = False
        self._closed = False
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        try:
            for index in range(self.workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        index,
                        self.seed,
                        self.config,
                        max_wheels,
                        self.policy,
                        self.store.path,
                    ),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._shards.append(_Shard(index, parent_conn, proc))
        except BaseException:
            self._terminate()
            raise

    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        """Attach every shard's hop to the running loop (idempotent)."""
        loop = asyncio.get_running_loop()
        if self._loop is loop:
            return
        if self._loop is not None:
            raise ServiceError(
                "ClusterService is bound to the event loop of its first "
                "request; serve it from one loop"
            )
        self._loop = loop
        for shard in self._shards:
            shard.hop = _Hop(
                shard.conn,
                loop,
                functools.partial(self._resolve, shard),
                functools.partial(self._shard_lost, shard),
                name=f"shard{shard.index}-replies",
            )

    def _resolve(self, shard: _Shard, items: list, draws) -> None:
        offset = 0
        for item in items:
            result = item[2]
            if item[0] == "draws":
                result = draws[offset : offset + result]
                offset += item[2]
            future = shard.outstanding.pop(item[1], None)
            if future is not None and not future.done():
                future.set_result(result)

    def _shard_lost(self, shard: _Shard, exc: BaseException) -> None:
        """Fail everything outstanding on a shard whose pipe broke."""
        shard.lost = f"shard {shard.index} is unavailable ({type(exc).__name__})"
        pending, shard.outstanding = shard.outstanding, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ShardUnavailableError(shard.lost))

    async def _call(self, shard: _Shard, kind: str, *payload: Any) -> Any:
        """Post one hop item and await the shard's answer to it."""
        self._ensure_started()
        if shard.lost is not None:
            raise ShardUnavailableError(shard.lost)
        self._tag += 1
        tag = self._tag
        future = self._loop.create_future()
        shard.outstanding[tag] = future
        shard.hop.post((kind, tag, *payload))
        return await future

    def _shard_for(self, request: Dict[str, Any]) -> _Shard:
        # A register routes by the id the shard's registry will mint;
        # the rest by the *root* id, so every version of a wheel lives on
        # the shard owning the root and an UPDATE and the draws against
        # the id it mints coalesce there.  A request too malformed to
        # route goes to a fixed shard, which refuses it as in-process.
        try:
            if request["op"] == "register":
                method, policy, _ = register_tokens(
                    request.get("method"),
                    request.get("policy"),
                    request.get("backend"),
                    self.policy,
                )
                key = wheel_digest(request["fitness"], method, policy)
            else:
                key = base_id(request["wheel"])
        except Exception:  # noqa: BLE001 - refused by the shard instead
            key = ""
        shard = self._shards[self.ring.lookup(key)]
        shard.routed += 1
        return shard

    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    async def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one decoded request dict.  Never raises."""
        request_id = request.get("id")
        try:
            op = request["op"]
            if op == "ping":
                return ok_response(
                    request_id, protocol=PROTOCOL_VERSION, workers=self.workers
                )
            if op == "metrics":
                return ok_response(request_id, metrics=await self._metrics())
            if op == "stats":
                return ok_response(request_id, stats=await self.stats())
            if self._draining or self._closed:
                self.metrics.drained()
                raise ServiceDrainingError(
                    "service is draining; retry against another replica"
                )
            return await self._forward(request)
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            return error_response(exc, request_id)

    handle_line = SelectionService.handle_line

    async def _forward(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Route one register/update/draw to its shard; return its response."""
        op = request["op"]
        if op == "draw":
            n = int(request.get("n", 1))
            if request.get("seed") is None:
                # Auto-seeds are assigned centrally (front-end arrival
                # order), never per worker — so the draw stream for a
                # fixed arrival order is independent of the pool size.
                request = {**request, "seed": self._request_counter}
                self._request_counter += 1
            self.metrics.enqueued(n)
        else:
            request = _packed(request)
        shard = self._shard_for(request)
        start = time.monotonic()
        try:
            response = await self._call(shard, "req", request)
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            response = error_response(exc, request.get("id"))
        if isinstance(response, np.ndarray):
            response = ok_response(request.get("id"), draws=response)
        ok = response["status"] == "ok"
        if op == "draw":
            self.metrics.dequeued()
            if ok:
                self.metrics.served(time.monotonic() - start)
            else:
                self.metrics.errored()
        elif op == "update" and ok:
            self.metrics.updated(len(request["indices"]), time.monotonic() - start)
        return response

    # ------------------------------------------------------------------
    async def _metrics(self) -> Dict[str, Any]:
        shards = await self._shard_stats()
        return self.metrics.snapshot(
            extra={
                "workers": self.workers,
                "routed": {str(s.index): s.routed for s in self._shards},
                "shards": shards,
            }
        )

    async def _shard_stats(self) -> List[Dict[str, Any]]:
        if self._closed:
            return []
        return list(await asyncio.gather(*map(self._shard_snapshot, self._shards)))

    async def _shard_snapshot(self, shard: _Shard) -> Dict[str, Any]:
        try:
            snapshot = await self._call(shard, "stats")
        except ShardUnavailableError as exc:
            snapshot = {"shard": shard.index, "unavailable": str(exc)}
        snapshot["hop"] = {
            "to_shard": shard.hop.sent.snapshot(),
            "from_shard": shard.hop.received.snapshot(),
        }
        return snapshot

    async def stats(self) -> Dict[str, Any]:
        """The ``stats`` RPC: routing table view plus per-shard counters.

        Per shard: queue depth, batch-size distribution, registry
        hit/miss and compile-dedupe (``store_hits`` vs ``compiles``)
        counters — enough for a bench to attribute scaling losses to
        routing skew vs batching dilution — plus ``hop``, the items per
        pipe message in each direction (``to_shard``, ``from_shard``).
        A dead shard's entry holds only ``shard``, ``unavailable`` (the
        reason) and ``hop``.
        """
        shards = await self._shard_stats()
        routed = {str(s.index): s.routed for s in self._shards}
        total_routed = sum(s.routed for s in self._shards) or 1
        max_share = max((s.routed for s in self._shards), default=0) / total_routed
        return {
            "workers": self.workers,
            "draining": self._draining,
            "routed": routed,
            "routing_max_share": max_share,
            "frontend": self.metrics.snapshot(),
            "shards": shards,
        }

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Graceful shutdown: finish everything accepted, refuse the rest."""
        if self._draining:
            return
        self._draining = True
        pending = [
            future
            for shard in self._shards
            for future in shard.outstanding.values()
        ]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for shard in self._shards:
            try:
                await asyncio.wait_for(self._call(shard, "stop"), timeout=10.0)
            except Exception:  # pragma: no cover - worker died mid-drain
                pass
        self._closed = True
        self._join()
        self.store.close()

    async def close(self) -> None:
        """Drain (if not already) and reap the worker processes."""
        if not self._closed:
            await self.drain()
        self._terminate()

    def _join(self, timeout: float = 5.0) -> None:
        for shard in self._shards:
            shard.proc.join(timeout=timeout)

    def _terminate(self) -> None:
        self._closed = True
        for shard in self._shards:
            if shard.proc.is_alive():
                shard.proc.terminate()
                shard.proc.join(timeout=2.0)
            if shard.proc.is_alive():  # pragma: no cover - stopped, not dying
                shard.proc.kill()
                shard.proc.join(timeout=2.0)
            if shard.hop is not None:
                # The reader ends on the EOF the dead shard leaves behind.
                shard.hop.reader.join(timeout=2.0)
            try:
                shard.conn.close()
            except OSError:  # pragma: no cover
                pass
        self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterService(workers={self.workers}, seed={self.seed}, "
            f"draining={self._draining})"
        )
