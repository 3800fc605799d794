"""BENCH_select: record assembly, gates, validator, renderer."""

import json

import pytest

from repro.bench.record import write_report
from repro.select.bench import (
    BENCH_SELECT_SCHEMA,
    render_bench_select,
    run_bench_select,
    validate_bench_select,
)


@pytest.fixture(scope="module")
def report():
    # One small-but-real run shared across the module's assertions.
    return run_bench_select(
        seed=0, lottery_draws=20_000, rs_replications=8, rs_delta=0.1
    )


class TestRecord:
    def test_schema_and_sections(self, report):
        assert report["schema"] == BENCH_SELECT_SCHEMA
        for section in (
            "config", "lottery", "rs", "parallel", "prediction",
            "determinism", "meta",
        ):
            assert isinstance(report[section], dict)

    def test_lottery_gate_separates_backends(self, report):
        lot = report["lottery"]
        precise = lot["methods"]["log_bidding"]["empirical_max_abs"]
        biased = lot["methods"]["independent"]["empirical_max_abs"]
        assert precise <= lot["tolerance"] < biased
        assert lot["gate_met"]
        # The bias is structural: the analytic (infinite-budget) error
        # of the independent baseline is also outside tolerance.
        assert lot["methods"]["independent"]["analytic_max_abs"] > lot["tolerance"]
        assert lot["methods"]["log_bidding"]["analytic_max_abs"] < 1e-9

    def test_rs_gate(self, report):
        rs = report["rs"]
        assert rs["pcs"] >= rs["target_pcs"]
        assert rs["gate_met"]

    def test_parallel_leg_skips_or_measures(self, report):
        par = report["parallel"]
        if par["skipped"]:
            assert "cpu_count" in par["skip_reason"]
        else:
            assert par["measured_speedup"] > 0
        assert isinstance(par["gate_met"], bool)

    def test_prediction_check(self, report):
        pred = report["prediction"]
        assert pred["round_times_recorded"] >= 2
        assert pred["worst_relative_error"] <= pred["tolerance"]
        assert pred["gate_met"]

    def test_determinism_certificate(self, report):
        det = report["determinism"]
        assert det["selections_identical"]
        assert det["sample_counts_identical"]
        assert det["ok"]

    def test_gates_met(self, report):
        assert isinstance(report["gates_met"], bool)

    def test_round_trips_through_json(self, report, tmp_path):
        path = write_report(report, str(tmp_path / "BENCH_select.json"), validate_bench_select)
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        validate_bench_select(loaded)

    def test_render_is_one_screen(self, report):
        text = render_bench_select(report)
        assert "gates_met" in text
        assert "lottery" in text and "rs (" in text


class TestValidator:
    def test_accepts_valid(self, report):
        validate_bench_select(report)

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            validate_bench_select([])

    def test_rejects_schema_mismatch(self, report):
        bad = dict(report, schema="repro/other/v1")
        with pytest.raises(ValueError, match="schema"):
            validate_bench_select(bad)

    def test_rejects_missing_section(self, report):
        bad = {k: v for k, v in report.items() if k != "lottery"}
        with pytest.raises(ValueError, match="lottery"):
            validate_bench_select(bad)

    def test_requires_determinism_certificate(self, report):
        bad = dict(report, determinism=dict(report["determinism"], ok=False))
        with pytest.raises(ValueError, match="determinism"):
            validate_bench_select(bad)

    def test_skipped_parallel_needs_reason(self, report):
        bad = dict(
            report,
            parallel={"skipped": True, "skip_reason": "", "gate_met": True},
        )
        with pytest.raises(ValueError, match="skip_reason"):
            validate_bench_select(bad)

    def test_rejects_out_of_range_pcs(self, report):
        bad = dict(report, rs=dict(report["rs"], pcs=1.5))
        with pytest.raises(ValueError, match="pcs"):
            validate_bench_select(bad)

    def test_write_refuses_invalid(self, report, tmp_path):
        bad = dict(report, determinism=dict(report["determinism"], ok=False))
        with pytest.raises(ValueError):
            write_report(bad, str(tmp_path / "nope.json"), validate_bench_select)
