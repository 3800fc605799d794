"""BENCH_engine.json schema: produced, validated, rendered, persisted."""

import json

import pytest

from repro.bench.record import write_report
from repro.cli import main as cli_main
from repro.engine.bench import (
    BENCH_SCHEMA,
    render_bench,
    run_bench,
    validate_bench,
)


@pytest.fixture(scope="module")
def report():
    return run_bench(n=50, draws=20_000, seed=0)


def test_run_bench_is_well_formed(report):
    validate_bench(report)  # must not raise
    assert report["schema"] == BENCH_SCHEMA
    assert report["config"]["n"] == 50
    assert report["config"]["draws"] == 20_000
    assert report["config"]["kernel_auto"] == "alias"
    assert report["config"]["kernel_faithful"] == "race"
    r = report["results"]
    assert r["speedup_compiled_vs_registry"] > 0
    assert r["compiled_ns_per_draw"] > 0


def test_write_bench_round_trips(tmp_path, report):
    path = write_report(report, str(tmp_path / "BENCH_engine.json"), validate_bench)
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    validate_bench(loaded)
    assert loaded["results"].keys() == report["results"].keys()


def test_render_bench_summary(report):
    text = render_bench(report)
    assert "engine bench" in text
    assert "speedup compiled/registry" in text


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("schema"),
        lambda r: r.update(schema="something/else"),
        lambda r: r.pop("results"),
        lambda r: r["results"].pop("stream_counts_s"),
        lambda r: r["results"].update(stream_counts_s=-1.0),
        lambda r: r["results"].update(stream_counts_s="fast"),
    ],
)
def test_validate_bench_rejects_malformed(report, mutate):
    bad = json.loads(json.dumps(report))
    mutate(bad)
    with pytest.raises(ValueError):
        validate_bench(bad)


def test_validate_bench_rejects_non_dict():
    with pytest.raises(ValueError):
        validate_bench(["not", "a", "report"])


def test_cli_bench_engine_writes_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = cli_main(
        [
            "bench-engine",
            "--iterations",
            "5000",
            "--wheel-size",
            "32",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "engine bench" in captured
    with open(out, encoding="utf-8") as fh:
        validate_bench(json.load(fh))


def test_cli_list_includes_bench_engine(capsys):
    assert cli_main(["--list"]) == 0
    assert "bench-engine" in capsys.readouterr().out
