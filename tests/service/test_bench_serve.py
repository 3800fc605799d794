"""The serving benchmark: report shape, certificates, CLI recording."""

import json

import pytest

from repro.bench.record import write_report
from repro.service.loadgen import (
    BENCH_SERVE_SCHEMA,
    render_bench_serve,
    run_bench_serve,
    validate_bench_serve,
)


@pytest.fixture(scope="module")
def tiny_report():
    # Smallest run that still coalesces and exercises every section:
    # 8 clients, a couple of rounds, a 2-worker cluster sweep, small
    # protocol payloads.
    return run_bench_serve(
        wheel_size=64,
        clients=8,
        requests_per_client=2,
        n_draws=4,
        cluster_workers=[1, 2],
        protocol_draws=32,
        protocol_requests_per_client=2,
        update_every=2,
        update_k=2,
        update_n=20_000,
        colony_n=10_000,
        colony_ants=64,
        colony_iterations=8,
    )


class TestBenchServe:
    def test_schema_and_sections(self, tiny_report):
        assert tiny_report["schema"] == BENCH_SERVE_SCHEMA
        validate_bench_serve(tiny_report)
        legs = tiny_report["results"]["legs"]
        assert set(legs) == {"naive", "cached_naive", "batched"}
        for leg in legs.values():
            assert leg["requests"] == 16
            assert leg["requests_per_s"] > 0

    def test_determinism_certificate_holds(self, tiny_report):
        determinism = tiny_report["results"]["determinism"]
        assert determinism["ok"]
        assert set(determinism["methods"]) == {"log_bidding", "gumbel", "alias"}
        for entry in determinism["methods"].values():
            assert entry["bitwise_identical"]

    def test_overload_probe_shape(self, tiny_report):
        overload = tiny_report["results"]["overload"]
        assert overload["ok_shape"]
        assert overload["ok"] + overload["shed"] == overload["submitted"]
        assert overload["shed"] > 0
        assert overload["shed_total_metric"] == overload["shed"]

    def test_batched_leg_actually_batches(self, tiny_report):
        batch = tiny_report["results"]["legs"]["batched"]["batch_sizes"]
        assert batch["mean_size"] > 1.0

    def test_protocol_section(self, tiny_report):
        protocol = tiny_report["results"]["protocol"]
        for kind in ("jsonl", "frames"):
            leg = protocol["legs"][kind]
            assert leg["kind"] == kind
            assert leg["requests"] == 8 * 2
            assert leg["requests_per_s"] > 0
            assert leg["latency"]["count"] == leg["requests"]
        assert protocol["speedup"] > 0
        assert isinstance(protocol["gate_met"], bool)
        assert protocol["gate_target"] == 2.0

    def test_cluster_section(self, tiny_report):
        cluster = tiny_report["results"]["cluster"]
        assert set(cluster["legs"]) == {"1", "2"}
        for leg in cluster["legs"].values():
            assert leg["requests_per_s"] > 0
            # One compile per distinct wheel across the whole pool — the
            # shared store dedupes the rest.
            assert leg["compiles"] >= 1
        scaling = cluster["scaling"]
        if scaling["skipped"]:
            assert "cpu_count" in scaling["skip_reason"]
            assert scaling["gate_met"] is None
        else:
            assert isinstance(scaling["gate_met"], bool)
        assert "1" in scaling["efficiency"]

    def test_cluster_determinism_certificate(self, tiny_report):
        cert = tiny_report["results"]["cluster"]["determinism"]
        assert cert["ok"]
        assert cert["workers_compared"][0] == 1
        assert cert["workers_compared"][1] > 1
        assert len(cert["wheels"]) >= 2
        for wheel in cert["wheels"]:
            assert wheel["bitwise_identical"]

    def test_update_section(self, tiny_report):
        update = tiny_report["results"]["update"]
        assert update["n"] == 20_000
        assert update["legs"]
        for leg in update["legs"].values():
            assert leg["delta_ms"] > 0 and leg["reregister_ms"] > 0
            assert leg["k"] <= update["n"] // 100
        assert update["min_speedup"] == min(
            leg["speedup"] for leg in update["legs"].values()
        )
        assert update["gate_target"] == 10.0
        assert isinstance(update["gate_met"], bool)

    def test_mutate_leg(self, tiny_report):
        leg = tiny_report["results"]["update"]["mutate"]
        assert leg["kind"] == "frames"
        assert leg["update_every"] == 2 and leg["update_k"] == 2
        assert leg["updates"] > 0
        assert leg["draws"] + leg["updates"] == leg["requests"]
        per_version = leg["per_version_latency"]
        assert per_version
        assert sum(h["count"] for h in per_version.values()) == leg["draws"]
        assert leg["update_latency"]["count"] == leg["updates"]
        assert leg["service"]["updates_total"] >= leg["updates"]
        # Delta updates never inflate the content-miss count: one root.
        assert leg["service"]["registry"]["misses"] == 1

    def test_version_determinism_certificate(self, tiny_report):
        cert = tiny_report["results"]["update"]["determinism"]
        assert cert["ok"] and cert["cow_stable"] and cert["acceptance_ok"]
        assert cert["workers_compared"][0] == 1
        assert cert["workers_compared"][1] > 1
        assert len(cert["versions"]) == cert["chain"] + 1
        for entry in cert["versions"]:
            assert entry["bitwise_identical"]

    def test_colony_section(self, tiny_report):
        colony = tiny_report["results"]["colony"]
        assert colony["inprocess_s"] > 0 and colony["served_s"] > 0
        assert colony["factor"] == pytest.approx(
            colony["served_s"] / colony["inprocess_s"]
        )
        assert colony["gate_target"] == 25.0
        assert isinstance(colony["gate_met"], bool)

    def test_validate_rejects_corruption(self, tiny_report):
        bad = json.loads(json.dumps(tiny_report))
        bad["results"]["determinism"]["ok"] = False
        with pytest.raises(ValueError, match="determinism"):
            validate_bench_serve(bad)
        bad2 = json.loads(json.dumps(tiny_report))
        del bad2["results"]["legs"]["naive"]
        with pytest.raises(ValueError, match="naive"):
            validate_bench_serve(bad2)
        bad3 = json.loads(json.dumps(tiny_report))
        bad3["results"]["cluster"]["determinism"]["ok"] = False
        with pytest.raises(ValueError, match="per-shard"):
            validate_bench_serve(bad3)
        bad4 = json.loads(json.dumps(tiny_report))
        bad4["results"]["cluster"]["scaling"]["skipped"] = True
        bad4["results"]["cluster"]["scaling"]["skip_reason"] = None
        with pytest.raises(ValueError, match="skip_reason"):
            validate_bench_serve(bad4)
        bad5 = json.loads(json.dumps(tiny_report))
        del bad5["results"]["protocol"]["legs"]["frames"]
        with pytest.raises(ValueError, match="frames"):
            validate_bench_serve(bad5)
        bad6 = json.loads(json.dumps(tiny_report))
        bad6["results"]["update"]["determinism"]["ok"] = False
        with pytest.raises(ValueError, match="per-version"):
            validate_bench_serve(bad6)
        bad7 = json.loads(json.dumps(tiny_report))
        bad7["results"]["update"]["gate_met"] = "yes"
        with pytest.raises(ValueError, match="update.gate_met"):
            validate_bench_serve(bad7)
        bad8 = json.loads(json.dumps(tiny_report))
        del bad8["results"]["colony"]
        with pytest.raises(ValueError, match="colony"):
            validate_bench_serve(bad8)
        with pytest.raises(ValueError, match="schema"):
            validate_bench_serve({"schema": "nope"})

    def test_write_and_render(self, tiny_report, tmp_path):
        path = write_report(tiny_report, str(tmp_path / "BENCH_serve.json"), validate_bench_serve)
        on_disk = json.loads(open(path, encoding="utf-8").read())
        validate_bench_serve(on_disk)
        text = render_bench_serve(tiny_report)
        assert "batched" in text and "gate:" in text and "determinism" in text
        assert "frames/jsonl" in text and "cluster sweep" in text
        assert "per-shard determinism" in text
        assert "delta updates" in text and "update gate" in text
        assert "per-version determinism" in text
        assert "dynamic colony loop" in text

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            run_bench_serve(wheel_size=1)
        with pytest.raises(ValueError):
            run_bench_serve(clients=0)
        with pytest.raises(ValueError):
            run_bench_serve(procs=0)


class TestTCPLoadGenerator:
    def test_multi_proc_merge_is_exact(self):
        """--procs fan-out: merged latency count equals total requests,
        throughput uses the slowest process's elapsed."""
        import asyncio

        from repro.service.loadgen import run_tcp_load
        from repro.service.scheduler import BatchConfig
        from repro.service.server import SelectionService, start_tcp_server

        service = SelectionService(seed=0, config=BatchConfig())

        async def go():
            wid, _ = service.registry.register(list(range(1, 65)))
            server = await start_tcp_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await run_tcp_load(
                    "127.0.0.1", port, wid,
                    kind="frames", clients=4, requests_per_client=3,
                    n_draws=4, procs=2,
                )
            finally:
                server.close()
                await server.wait_closed()
                await service.close()

        result = asyncio.run(asyncio.wait_for(go(), 60.0))
        assert result["procs"] == 2
        assert result["requests"] == 12
        assert result["latency"]["count"] == 12
        assert len(result["per_proc"]) == 2
        assert sum(p["requests"] for p in result["per_proc"]) == 12
        assert result["elapsed_s"] == max(p["elapsed_s"] for p in result["per_proc"])

    def test_rejects_bad_kind(self):
        import asyncio

        from repro.service.loadgen import run_tcp_load

        async def go():
            with pytest.raises(ValueError, match="kind"):
                await run_tcp_load("127.0.0.1", 1, "w1:00", kind="xml")

        asyncio.run(go())

    @pytest.mark.parametrize(
        "bad",
        [{"clients": 0}, {"requests_per_client": 0}, {"n_draws": 0}, {"procs": 0}],
    )
    def test_rejects_empty_workloads(self, bad):
        import asyncio

        from repro.service.loadgen import run_tcp_load

        async def go():
            with pytest.raises(ValueError, match="must be positive"):
                await run_tcp_load("127.0.0.1", 1, "w1:00", **bad)

        asyncio.run(go())

    def test_rejects_update_larger_than_wheel(self):
        import asyncio

        from repro.service.loadgen import run_tcp_load

        async def go():
            with pytest.raises(ValueError, match="exceeds wheel_size"):
                await run_tcp_load(
                    "127.0.0.1", 1, "w1:00", wheel_size=4, update_every=2, update_k=5
                )

        asyncio.run(go())


class TestClusterScaling:
    """Scaling efficiency against a stubbed leg throughput."""

    @staticmethod
    def _section(monkeypatch, sweep, cpu_count, rps):
        from repro.service import loadgen
        from repro.service.scheduler import BatchConfig

        def fake_leg(workers, *args, **kwargs):
            return {"workers": workers, "requests_per_s": rps[workers]}

        monkeypatch.setattr(loadgen, "_measure_cluster_leg", fake_leg)
        monkeypatch.setattr(
            loadgen, "_cluster_determinism_certificate", lambda *a, **k: {"ok": True}
        )
        monkeypatch.setattr(loadgen.os, "cpu_count", lambda: cpu_count)
        return loadgen._cluster_section(
            16, 0, "log_bidding", clients=4, requests_per_client=1, n_draws=1,
            procs=1, config=BatchConfig(), workers_sweep=sweep,
        )

    def test_efficiency_against_one_worker(self, monkeypatch):
        section = self._section(
            monkeypatch, [1, 2, 4], 8, {1: 1000.0, 2: 1800.0, 4: 3000.0}
        )
        eff = section["scaling"]["efficiency"]
        assert eff == {"1": 1.0, "2": 0.9, "4": 0.75}
        assert section["scaling"]["gate_met"] is True

    def test_efficiency_without_one_worker_leg(self, monkeypatch):
        # Linear scaling from 2 to 4 workers is efficiency 1.0, and the
        # base leg is 1.0 against itself, not 0.5.
        section = self._section(monkeypatch, [2, 4], 8, {2: 2000.0, 4: 4000.0})
        assert section["scaling"]["efficiency"] == {"2": 1.0, "4": 1.0}
        assert section["scaling"]["gate_met"] is True
        missed = self._section(monkeypatch, [2, 4], 8, {2: 2000.0, 4: 2400.0})
        assert missed["scaling"]["efficiency"]["4"] == pytest.approx(0.6)
        assert missed["scaling"]["gate_met"] is False


class TestBenchServeCLI:
    def test_cli_records_report(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "bench-serve",
                "--wheel-size",
                "64",
                "--clients",
                "8",
                "--requests-per-client",
                "2",
                "--draws-per-request",
                "4",
                "--cluster-workers",
                "1",
                "2",
                "--mutate",
                "--update-every",
                "2",
                "--update-k",
                "2",
                "--update-n",
                "20000",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        validate_bench_serve(report)
        assert set(report["results"]["cluster"]["legs"]) == {"1", "2"}
        assert report["config"]["mutate"] is True
        assert report["results"]["update"]["mutate"]["updates"] > 0
