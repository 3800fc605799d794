"""Sharded cluster: routing stability, dedupe, determinism, drain, and
the batched shard hop (mixed batches, large messages, dead shards)."""

import asyncio
import os
import signal

import numpy as np
import pytest

from repro.errors import ShardUnavailableError
from repro.rng.streams import request_stream
from repro.service.cluster import DEFAULT_VNODES, ClusterService, HashRing
from repro.service.protocol import raise_structured
from repro.service.registry import WheelRegistry, digest_key, wheel_digest
from repro.service.scheduler import BatchConfig
from repro.service.server import SelectionService


def _ids(count):
    return [
        wheel_digest(np.arange(1.0, 8.0) * (1.0 + 0.001 * k), "log_bidding", "auto")
        for k in range(count)
    ]


class TestHashRing:
    def test_lookup_is_deterministic_across_instances(self):
        ids = _ids(64)
        a, b = HashRing(4), HashRing(4)
        assert [a.lookup(i) for i in ids] == [b.lookup(i) for i in ids]

    def test_growth_only_moves_keys_to_the_new_shard(self):
        """The consistent-hashing contract: N -> N+1 shards never
        reshuffles keys between existing shards."""
        ids = _ids(256)
        for n in (1, 2, 3, 5, 8):
            before = HashRing(n)
            after = HashRing(n + 1)
            moved = 0
            for wheel_id in ids:
                old, new = before.lookup(wheel_id), after.lookup(wheel_id)
                if old != new:
                    assert new == n, (
                        f"{wheel_id} moved {old}->{new}, not onto new shard {n}"
                    )
                    moved += 1
            # Some keys must move (the new shard takes its arcs), but
            # nowhere near all of them.
            assert 0 < moved < len(ids)

    def test_balance_within_reason(self):
        ids = _ids(512)
        ring = HashRing(4, vnodes=DEFAULT_VNODES)
        counts = [0, 0, 0, 0]
        for wheel_id in ids:
            counts[ring.lookup(wheel_id)] += 1
        assert max(counts) <= 3 * len(ids) // 4, f"pathological skew: {counts}"
        assert min(counts) > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)


class TestClusterService:
    def _run(self, coro, timeout=60.0):
        return asyncio.run(asyncio.wait_for(coro, timeout))

    def test_register_draw_round_trip(self):
        cluster = ClusterService(workers=2, seed=7)

        async def flow():
            ping = await cluster.handle_request({"op": "ping", "id": 0})
            assert ping["status"] == "ok" and ping["workers"] == 2
            reg = await cluster.handle_request(
                {"op": "register", "fitness": [1.0, 2.0, 3.0, 4.0], "id": 1}
            )
            assert reg["status"] == "ok" and reg["wheel"].startswith("w1:")
            assert reg["cached"] is False
            again = await cluster.handle_request(
                {"op": "register", "fitness": [1.0, 2.0, 3.0, 4.0]}
            )
            assert again["cached"] is True
            draw = await cluster.handle_request(
                {"op": "draw", "wheel": reg["wheel"], "n": 6, "id": 2}
            )
            assert draw["status"] == "ok" and len(draw["draws"]) == 6
            assert all(0 <= d < 4 for d in np.asarray(draw["draws"]))
            await cluster.close()

        self._run(flow())

    def test_structured_errors_cross_the_pipe(self):
        cluster = ClusterService(workers=2, seed=0)

        async def flow():
            degenerate = await cluster.handle_request(
                {"op": "register", "fitness": [0.0, 0.0], "id": 9}
            )
            assert degenerate["status"] == "error"
            assert degenerate["error"] == "DegenerateFitnessError"
            assert degenerate["id"] == 9
            unknown = await cluster.handle_request(
                {"op": "draw", "wheel": "w1:00ff00ff00ff00ff", "n": 1}
            )
            assert unknown["error"] == "UnknownWheelError"
            await cluster.close()

        self._run(flow())

    def test_same_wheel_routes_to_same_shard(self):
        cluster = ClusterService(workers=3, seed=0)

        async def flow():
            reg = await cluster.handle_request(
                {"op": "register", "fitness": list(range(1, 33))}
            )
            for i in range(12):
                await cluster.handle_request(
                    {"op": "draw", "wheel": reg["wheel"], "n": 2, "seed": i}
                )
            stats = (await cluster.handle_request({"op": "stats"}))["stats"]
            await cluster.close()
            return stats

        stats = self._run(flow())
        # One wheel -> exactly one shard serves every draw.
        nonzero = [count for count in stats["routed"].values() if count > 0]
        assert len(nonzero) == 1 and nonzero[0] == 13  # register + 12 draws
        assert stats["routing_max_share"] == 1.0

    def test_cluster_determinism_1_vs_n_workers(self):
        """The per-shard determinism certificate, as a unit test: draws
        are byte-identical regardless of pool size, and equal to the
        direct substream replay on a compiled wheel."""
        vectors = [
            np.arange(1.0, 101.0),
            np.arange(100.0, 0.0, -1.0),
        ]
        sizes = [1, 7, 32, 3]

        def serve(workers):
            cluster = ClusterService(workers=workers, seed=42)

            async def flow():
                out = []
                for fitness in vectors:
                    reg = await cluster.handle_request(
                        {"op": "register", "fitness": fitness}
                    )
                    draws = await asyncio.gather(
                        *(
                            cluster.handle_request(
                                {
                                    "op": "draw",
                                    "wheel": reg["wheel"],
                                    "n": n,
                                    "seed": i,
                                }
                            )
                            for i, n in enumerate(sizes)
                        )
                    )
                    out.append([np.asarray(d["draws"]) for d in draws])
                await cluster.close()
                return out

            return asyncio.run(asyncio.wait_for(flow(), 60.0))

        single, triple = serve(1), serve(3)
        registry = WheelRegistry()
        for v_idx, fitness in enumerate(vectors):
            wid, _ = registry.register(fitness)
            wheel = registry.get(wid)
            for i, n in enumerate(sizes):
                direct = wheel.select_many(n, request_stream(42, digest_key(wid), i))
                np.testing.assert_array_equal(single[v_idx][i], triple[v_idx][i])
                np.testing.assert_array_equal(single[v_idx][i], direct)

    def test_auto_seeds_are_pool_size_independent(self):
        """Unseeded draws depend on arrival order only, not worker count."""

        def serve(workers):
            cluster = ClusterService(workers=workers, seed=5)

            async def flow():
                reg = await cluster.handle_request(
                    {"op": "register", "fitness": list(range(1, 65))}
                )
                out = []
                for _ in range(6):  # sequential: fixed arrival order
                    d = await cluster.handle_request(
                        {"op": "draw", "wheel": reg["wheel"], "n": 8}
                    )
                    out.append(np.asarray(d["draws"]))
                await cluster.close()
                return out

            return asyncio.run(asyncio.wait_for(flow(), 60.0))

        for a, b in zip(serve(1), serve(2)):
            np.testing.assert_array_equal(a, b)

    def test_stats_rpc_shape(self):
        cluster = ClusterService(workers=2, seed=0)

        async def flow():
            reg = await cluster.handle_request(
                {"op": "register", "fitness": [1.0, 2.0, 3.0]}
            )
            await cluster.handle_request(
                {"op": "draw", "wheel": reg["wheel"], "n": 4}
            )
            stats = (await cluster.handle_request({"op": "stats"}))["stats"]
            metrics = (await cluster.handle_request({"op": "metrics"}))["metrics"]
            await cluster.close()
            return stats, metrics

        stats, metrics = self._run(flow())
        assert stats["workers"] == 2 and not stats["draining"]
        assert set(stats["routed"]) == {"0", "1"}
        assert len(stats["shards"]) == 2
        for shard in stats["shards"]:
            assert {"shard", "queued", "registry", "batch_sizes", "hop"} <= set(shard)
            assert {"compiles", "store_hits"} <= set(shard["registry"])
            assert set(shard["hop"]) == {"to_shard", "from_shard"}
        # Exactly one compile happened across the pool for the one wheel.
        assert sum(s["registry"]["compiles"] for s in stats["shards"]) == 1
        assert metrics["workers"] == 2 and len(metrics["shards"]) == 2

    def test_drain_loses_no_accepted_request(self):
        """Graceful drain: every request accepted before the drain
        completes normally; later ones get the typed draining refusal."""
        cluster = ClusterService(workers=2, seed=0)

        async def flow():
            reg = await cluster.handle_request(
                {"op": "register", "fitness": list(range(1, 201))}
            )
            wid = reg["wheel"]
            accepted = [
                asyncio.create_task(
                    cluster.handle_request(
                        {"op": "draw", "wheel": wid, "n": 4, "id": i, "seed": i}
                    )
                )
                for i in range(32)
            ]
            # Let the burst reach the workers, then pull the plug.
            await asyncio.sleep(0)
            await cluster.drain()
            responses = await asyncio.gather(*accepted)
            late = await cluster.handle_request({"op": "draw", "wheel": wid, "n": 1})
            stats_after = cluster.metrics.draining_total
            await cluster.close()
            return responses, late, stats_after

        responses, late, draining_total = self._run(flow())
        ok = [r for r in responses if r["status"] == "ok"]
        draining = [r for r in responses if r["status"] == "draining"]
        # Every request was answered — served or refused, never lost.
        assert len(ok) + len(draining) == 32
        assert ok, "requests in flight before drain must complete"
        for r in ok:
            assert len(r["draws"]) == 4
        assert late["status"] == "draining"
        assert late["error"] == "ServiceDrainingError"
        assert draining_total == len(draining) + 1

    def test_draining_is_retryable_via_raise_structured(self):
        from repro.errors import ServiceDrainingError
        from repro.service.protocol import error_response, raise_structured

        with pytest.raises(ServiceDrainingError):
            raise_structured(error_response(ServiceDrainingError("drain")))

    def test_close_is_idempotent_and_reaps_workers(self):
        cluster = ClusterService(workers=2, seed=0)

        async def flow():
            await cluster.handle_request({"op": "ping"})
            await cluster.close()
            await cluster.close()

        self._run(flow())
        for shard in cluster._shards:
            assert not shard.proc.is_alive()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ClusterService(workers=0)


def _same_response(a, b):
    assert a.keys() == b.keys(), (a, b)
    for key, value in a.items():
        if key == "draws":
            assert np.asarray(value).dtype == np.asarray(b[key]).dtype
            assert np.asarray(value).tobytes() == np.asarray(b[key]).tobytes()
        elif key != "message":
            assert value == b[key], (key, a, b)


class TestBatchedHop:
    """One pipe message per shard per event-loop tick, in both directions."""

    MAX_DRAWS = 64

    def _script(self, wheels, minted):
        """One tick of mixed traffic; ``minted`` is the update's new id."""
        requests = [
            {"op": "draw", "wheel": wid, "n": 5 + k, "seed": 100 + k, "id": k}
            for k, wid in enumerate(wheels)
        ]
        requests += [
            {"op": "register", "fitness": np.arange(1.0, 30.0), "id": "reg"},
            {
                "op": "update",
                "wheel": wheels[0],
                "indices": [0, 3],
                "values": [9.0, 0.5],
                "id": "upd",
            },
            {"op": "draw", "wheel": minted, "n": 7, "seed": 5, "id": "minted"},
            {"op": "draw", "wheel": "w1:00ff00ff00ff00ff", "n": 1, "id": "unknown"},
            {"op": "draw", "wheel": wheels[1], "n": self.MAX_DRAWS + 1, "id": "big"},
            {"op": "draw", "wheel": wheels[2], "n": 3, "seed": 9, "id": "again"},
        ]
        return requests

    def _serve(self, service, minted=None):
        async def flow():
            wheels = []
            for k in range(4):
                reg = await service.handle_request(
                    {"op": "register", "fitness": np.linspace(1.0, 2.0, 40) ** (k + 1)}
                )
                wheels.append(reg["wheel"])
            if minted is None:
                update = await service.handle_request(
                    {
                        "op": "update",
                        "wheel": wheels[0],
                        "indices": [0, 3],
                        "values": [9.0, 0.5],
                    }
                )
                return update["wheel"]
            script = self._script(wheels, minted)
            # Every request starts in one tick, so each shard gets one message.
            responses = await asyncio.gather(*map(service.handle_request, script))
            stats = (await service.handle_request({"op": "stats"}))["stats"]
            if isinstance(service, ClusterService):
                await service.close()
            return script, responses, stats

        return asyncio.run(asyncio.wait_for(flow(), 60.0))

    def test_mixed_batch_is_answered_item_by_item(self):
        config = BatchConfig(max_request_draws=self.MAX_DRAWS)
        minted = self._serve(SelectionService(seed=11, config=config))
        script, reference, _ = self._serve(
            SelectionService(seed=11, config=config), minted
        )
        by_id = {r["id"]: r for r in reference}
        assert by_id["upd"]["wheel"] == minted
        assert by_id["minted"]["status"] == "ok"
        assert by_id["unknown"]["error"] == "UnknownWheelError"
        assert by_id["big"]["error"] == "ValueError"
        assert sum(r["status"] == "ok" for r in reference) == len(script) - 2
        for workers in (1, 3):
            cluster = ClusterService(workers=workers, seed=11, config=config)
            _, responses, stats = self._serve(cluster, minted)
            for want, got in zip(reference, responses):
                _same_response(want, got)
            if workers == 1:
                sizes = stats["shards"][0]["hop"]["to_shard"]["sizes"]
                assert sizes.get(str(len(script))) == 1, sizes

    def test_large_messages_in_both_directions_do_not_deadlock(self):
        cluster = ClusterService(workers=1, seed=3)
        rng = np.random.default_rng(0)

        def stuck(*_):
            raise TimeoutError("pipe writes deadlocked")

        # A loop blocked inside a pipe write never reaches wait_for's
        # timer; the alarm interrupts the write and fails the test.
        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(60)

        async def flow():
            reg = await cluster.handle_request(
                {"op": "register", "fitness": np.arange(1.0, 65.0)}
            )
            pending = []
            for k in range(2):
                # DRAW(1 << 20) replies leave the shard while the next
                # 1M-item registration is still being written to it.
                pending += [
                    asyncio.ensure_future(
                        cluster.handle_request(
                            {"op": "draw", "wheel": reg["wheel"], "n": 1 << 20, "seed": k}
                        )
                    )
                    for _ in range(2)
                ]
                await asyncio.sleep(0)
                pending.append(
                    asyncio.ensure_future(
                        cluster.handle_request(
                            {"op": "register", "fitness": rng.uniform(0.5, 2.0, 1_000_000)}
                        )
                    )
                )
            responses = await asyncio.gather(*pending)
            await cluster.close()
            return responses

        try:
            responses = asyncio.run(asyncio.wait_for(flow(), 30.0))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            cluster._terminate()
        assert [r["status"] for r in responses] == ["ok"] * 6
        draws = [r for r in responses if "draws" in r]
        assert [len(r["draws"]) for r in draws] == [1 << 20] * 4
        assert sum("wheel" in r for r in responses) == 2

    def test_sigkilled_shard_fails_every_request_typed(self):
        cluster = ClusterService(workers=1, seed=0)

        async def flow():
            reg = await cluster.handle_request(
                {"op": "register", "fitness": list(range(1, 65))}
            )
            wid = reg["wheel"]
            pid = cluster._shards[0].proc.pid
            os.kill(pid, signal.SIGSTOP)  # hold every draw in flight
            in_flight = [
                asyncio.ensure_future(
                    cluster.handle_request(
                        {"op": "draw", "wheel": wid, "n": 4, "seed": i, "id": i}
                    )
                )
                for i in range(32)
            ]
            await asyncio.sleep(0.05)
            assert not any(task.done() for task in in_flight)
            os.kill(pid, signal.SIGKILL)
            responses = await asyncio.wait_for(asyncio.gather(*in_flight), 5.0)
            late = await asyncio.wait_for(
                cluster.handle_request({"op": "draw", "wheel": wid, "n": 1, "id": "late"}),
                5.0,
            )
            stats = (await cluster.handle_request({"op": "stats"}))["stats"]
            await cluster.close()
            return responses, late, stats

        responses, late, stats = asyncio.run(asyncio.wait_for(flow(), 60.0))
        assert "ShardUnavailableError" not in stats["shards"][0]["unavailable"]
        assert stats["shards"][0]["unavailable"].startswith("shard 0")
        assert [r["id"] for r in responses] == list(range(32))
        for response in responses + [late]:
            assert response["status"] == "error"
            assert response["error"] == "ShardUnavailableError"
        with pytest.raises(ShardUnavailableError):
            raise_structured(late)
        assert not cluster._shards[0].outstanding
        assert not cluster._shards[0].proc.is_alive()

    def test_failed_send_fails_the_batch_typed(self):
        cluster = ClusterService(workers=1, seed=0)

        def broken(_obj):
            raise BrokenPipeError("pipe closed")

        async def flow():
            reg = await cluster.handle_request(
                {"op": "register", "fitness": [1.0, 2.0, 3.0]}
            )
            cluster._shards[0].conn.send = broken
            responses = await asyncio.wait_for(
                asyncio.gather(
                    *(
                        cluster.handle_request(
                            {"op": "draw", "wheel": reg["wheel"], "n": 2, "id": i}
                        )
                        for i in range(8)
                    )
                ),
                5.0,
            )
            os.kill(cluster._shards[0].proc.pid, signal.SIGKILL)
            await cluster.close()
            return responses

        responses = asyncio.run(asyncio.wait_for(flow(), 60.0))
        assert {r["error"] for r in responses} == {"ShardUnavailableError"}
