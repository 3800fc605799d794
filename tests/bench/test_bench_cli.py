"""Every bench command at the CLI: flags -> run kwargs -> validated record.

Each run function is stubbed to record the keyword arguments it gets and
to return the committed ``BENCH_*.json`` record, so these tests pin the
command-line mapping, the record writer and the printing without running
a single measurement.
"""

import importlib
import json
import pathlib

import pytest

from repro.cli import BENCHES
from repro.cli import main as repro_main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_SERVE_DEFAULTS = dict(
    wheel_size=1000, clients=64, requests_per_client=32, n_draws=8, seed=0,
    max_batch=64, max_delay_us=200.0, procs=1, cluster_workers=None,
    mutate=False, update_every=4, update_k=8, update_n=100_000,
)

#: (id, argv, module, run function, expected kwargs, record, validator)
CASES = [
    (
        "engine-defaults", ["bench-engine"], "repro.engine.bench", "run_bench",
        dict(n=1000, draws=1_000_000, seed=0), "BENCH_engine.json", "validate_bench",
    ),
    (
        "engine-flags",
        ["bench-engine", "--wheel-size", "50", "--iterations", "1234", "--seed", "3"],
        "repro.engine.bench", "run_bench",
        dict(n=50, draws=1234, seed=3), "BENCH_engine.json", "validate_bench",
    ),
    (
        "race-defaults", ["bench-race"], "repro.engine.race_bench", "run_bench_race",
        dict(trials=100_000, seed=0, workers=None), "BENCH_race.json",
        "validate_bench_race",
    ),
    (
        "race-flags",
        ["bench-race", "--iterations", "500", "--race-k", "512", "64",
         "--workers", "2", "--seed", "1"],
        "repro.engine.race_bench", "run_bench_race",
        dict(trials=500, seed=1, workers=2, ks=[512, 64], pram_k=64),
        "BENCH_race.json", "validate_bench_race",
    ),
    (
        "aco-defaults", ["bench-aco"], "repro.engine.aco_bench", "run_bench_aco",
        dict(n=500, n_ants=128, iterations=2, seed=0), "BENCH_aco.json",
        "validate_bench_aco",
    ),
    (
        "aco-flags",
        ["bench-aco", "--aco-n", "60", "--aco-ants", "8", "--iterations", "3",
         "--seed", "5"],
        "repro.engine.aco_bench", "run_bench_aco",
        dict(n=60, n_ants=8, iterations=3, seed=5), "BENCH_aco.json",
        "validate_bench_aco",
    ),
    (
        "select-defaults", ["bench-select"], "repro.select.bench", "run_bench_select",
        dict(seed=0), "BENCH_select.json", "validate_bench_select",
    ),
    (
        "select-flags",
        ["bench-select", "--iterations", "40000", "--select-replications", "10",
         "--select-systems", "5", "--seed", "2"],
        "repro.select.bench", "run_bench_select",
        dict(seed=2, lottery_draws=40000, rs_replications=10, rs_systems=5),
        "BENCH_select.json", "validate_bench_select",
    ),
    (
        "tune-defaults", ["bench-tune"], "repro.tune.bench", "run_bench_tune",
        dict(seed=0), "BENCH_tune.json", "validate_bench_tune",
    ),
    (
        "tune-flags", ["bench-tune", "--iterations", "6", "--seed", "2"],
        "repro.tune.bench", "run_bench_tune",
        dict(seed=2, trials=6), "BENCH_tune.json", "validate_bench_tune",
    ),
    (
        "serve-defaults", ["bench-serve"], "repro.service.loadgen", "run_bench_serve",
        _SERVE_DEFAULTS, "BENCH_serve.json", "validate_bench_serve",
    ),
    (
        "serve-flags",
        ["bench-serve", "--wheel-size", "64", "--clients", "8",
         "--requests-per-client", "2", "--draws-per-request", "4", "--seed", "7",
         "--max-batch", "16", "--max-delay-us", "50", "--procs", "2",
         "--cluster-workers", "1", "2", "--mutate", "--update-every", "2",
         "--update-k", "3", "--update-n", "20000"],
        "repro.service.loadgen", "run_bench_serve",
        dict(wheel_size=64, clients=8, requests_per_client=2, n_draws=4, seed=7,
             max_batch=16, max_delay_us=50.0, procs=2, cluster_workers=[1, 2],
             mutate=True, update_every=2, update_k=3, update_n=20000),
        "BENCH_serve.json", "validate_bench_serve",
    ),
    (
        "lab-defaults", ["lab", "bench"], "repro.lab.bench", "run_bench_lab",
        dict(seed=0), "BENCH_lab.json", "validate_bench_lab",
    ),
    (
        "lab-flags", ["lab", "bench", "--seed", "4"], "repro.lab.bench",
        "run_bench_lab", dict(seed=4), "BENCH_lab.json", "validate_bench_lab",
    ),
]


def _committed(record: str):
    return json.loads((REPO_ROOT / record).read_text(encoding="utf-8"))


@pytest.fixture
def stub(monkeypatch):
    """Replace a run function with a recorder returning a fixed record."""

    def install(module: str, run: str, record: str):
        calls = []

        def fake(*args, **kwargs):
            assert not args, "the CLI passes keyword arguments only"
            calls.append(kwargs)
            return _committed(record)

        monkeypatch.setattr(importlib.import_module(module), run, fake)
        return calls

    return install


@pytest.mark.parametrize(
    "argv, module, run, expected, record, validator",
    [pytest.param(*case[1:], id=case[0]) for case in CASES],
)
class TestBenchCommands:
    def test_flags_reach_the_run_function(
        self, stub, tmp_path, capsys, argv, module, run, expected, record, validator
    ):
        calls = stub(module, run, record)
        out = tmp_path / "out.json"
        assert repro_main(argv + ["--output", str(out)]) == 0
        assert calls == [expected]
        assert json.loads(out.read_text(encoding="utf-8")) == _committed(record)
        assert out.read_text(encoding="utf-8").endswith("}\n")
        assert f"recorded -> {out}" in capsys.readouterr().out

    def test_default_output_and_json(
        self, stub, tmp_path, monkeypatch, capsys,
        argv, module, run, expected, record, validator,
    ):
        stub(module, run, record)
        monkeypatch.chdir(tmp_path)
        assert repro_main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out) == _committed(record)
        written = tmp_path / record
        assert json.loads(written.read_text(encoding="utf-8")) == _committed(record)

    def test_table_names_the_validator_and_record(
        self, argv, module, run, expected, record, validator
    ):
        name = argv[0]
        assert BENCHES[name][0] == module and BENCHES[name][1] == run
        assert BENCHES[name][3] == validator
        assert BENCHES[name][5] == record
        getattr(importlib.import_module(module), BENCHES[name][3])(_committed(record))


def test_every_bench_command_is_listed(capsys):
    assert repro_main(["--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert "all" in listed
    assert set(BENCHES) | {"audit", "serve"} <= set(listed)
    assert {case[1][0] for case in CASES} == set(BENCHES)


def test_refused_record_exits_1_and_writes_nothing(monkeypatch, tmp_path, capsys):
    """A lab gate miss fails validate_bench_lab: exit 1, no record."""
    import repro.lab.bench

    missed = _committed("BENCH_lab.json")
    missed["results"]["gate_met"] = False
    monkeypatch.setattr(repro.lab.bench, "run_bench_lab", lambda **kwargs: missed)
    out = tmp_path / "lab.json"
    assert repro_main(["lab", "bench", "--output", str(out)]) == 1
    assert not out.exists()
    assert "gate not met" in capsys.readouterr().err
