"""BENCH_tune record: miniature end-to-end run plus schema validation."""

import copy
import json

import pytest

from repro.bench.record import write_report
from repro.tune.bench import (
    BENCH_TUNE_SCHEMA,
    render_bench_tune,
    run_bench_tune,
    validate_bench_tune,
)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("tune") / "calibration.json"
    return run_bench_tune(
        seed=0,
        trials=3,
        race_trials=2,
        wheel_n=128,
        clients=4,
        requests_per_client=8,
        race_trials_probe=4000,
        calibration_out=str(out),
    )


class TestMiniatureRun:
    def test_record_is_well_formed(self, report):
        validate_bench_tune(report)
        assert report["schema"] == BENCH_TUNE_SCHEMA
        assert isinstance(report["gates_met"], bool)

    def test_calibration_section_carries_the_cost_model(self, report):
        cal = report["calibration"]
        assert cal["draw_ns"] > 0.0
        assert cal["spawn_overhead_s"] > 0.0
        # Hermetic suite: the env pin (conftest) wins over the cache.
        assert cal["resolved_min_draws_per_worker"] == 250_000
        assert "race_rounds" in cal["samples"]
        with open(cal["path"], encoding="utf-8") as fh:
            assert json.load(fh)["host"] == cal["host"]

    def test_race_law_oracle_holds(self, report):
        # The noise-free half of the prediction gate must pass on any
        # host — it compares the empirical pipeline to the analytic pmf.
        pred = report["predictor"]
        assert pred["ok"], pred
        assert pred["worst_relative_error"] <= pred["tolerance"]

    def test_speedup_gate_ran_or_skipped_with_reason(self, report):
        sg = report["speedup_gate"]
        if sg["skipped"]:
            assert sg["skip_reason"]
        else:
            assert set(sg["per_worker"]) == {"1", "2", "4"}
            assert sg["worst_relative_error"] >= 0.0

    def test_autotune_gate_fields(self, report):
        at = report["autotune_gate"]
        assert len(at["sweep"]) == 12  # 4 batch sizes x 3 delays
        assert at["autotuned"]["max_batch"] >= 1
        assert at["probe_budget_fraction"] >= 0.0
        assert at["best_static"]["config"] in at["sweep"]

    def test_determinism_certificates(self, report):
        det = report["determinism"]
        assert det["parallel_counts_identical"]
        assert det["serving_identical_with_controller"]
        assert det["ok"]

    def test_write_and_render(self, report, tmp_path):
        path = write_report(report, str(tmp_path / "BENCH_tune.json"), validate_bench_tune)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["schema"] == BENCH_TUNE_SCHEMA
        text = render_bench_tune(report)
        assert "gates_met" in text
        assert "race-law check" in text


class TestValidation:
    def test_rejects_tampered_records(self, report):
        for mutate in (
            lambda r: r.update(schema="repro/other/v1"),
            lambda r: r.pop("calibration"),
            lambda r: r.pop("gates_met"),
            lambda r: r["predictor"].update(ok="yes"),
            lambda r: r["autotune_gate"].update(ratio_vs_best_static=-1.0),
            lambda r: r["autotune_gate"].update(probe_budget_fraction=float("nan")),
            lambda r: r["speedup_gate"].update(skipped=True, skip_reason=None),
        ):
            bad = copy.deepcopy(report)
            mutate(bad)
            with pytest.raises(ValueError):
                validate_bench_tune(bad)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            validate_bench_tune([])
