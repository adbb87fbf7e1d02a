"""Tests for the benchmark harness (repro.bench)."""

from __future__ import annotations

import io
import math
import os

import pytest

from repro.bench import (
    bench_config,
    bench_dataset,
    bench_scale,
    combo_constraints,
    format_p_table,
    format_range,
    run_emp,
    run_maxp,
    table3_rows,
    table4_rows,
)
from repro.bench import figures, tables, workloads
from repro.data import schema, synthetic_census
from repro.exceptions import InvalidConstraintError


@pytest.fixture(scope="module")
def bench_census():
    return synthetic_census(120, seed=21)


class TestWorkloads:
    def test_combo_letters(self):
        cs = combo_constraints("MAS")
        assert {c.aggregate for c in cs} == {"MIN", "AVG", "SUM"}
        assert {c.attribute for c in cs} == {
            schema.POP16UP,
            schema.EMPLOYED,
            schema.TOTALPOP,
        }

    def test_single_letter_combos(self):
        assert [c.aggregate for c in combo_constraints("M")] == ["MIN"]
        assert [c.aggregate for c in combo_constraints("A")] == ["AVG"]
        assert [c.aggregate for c in combo_constraints("S")] == ["SUM"]

    def test_defaults_match_table2(self):
        m, a, s = combo_constraints("MAS")
        assert m.upper == 3000 and math.isinf(m.lower)
        assert (a.lower, a.upper) == (1500, 3500)
        assert s.lower == 20000 and math.isinf(s.upper)

    def test_custom_ranges(self):
        cs = combo_constraints("M", min_range=(1000, 5000))
        assert (cs[0].lower, cs[0].upper) == (1000, 5000)

    def test_open_ends_via_none(self):
        cs = combo_constraints("S", sum_range=(None, 30000))
        assert math.isinf(cs[0].lower) and cs[0].upper == 30000

    def test_unknown_letter_rejected(self):
        with pytest.raises(InvalidConstraintError):
            combo_constraints("MX")
        with pytest.raises(InvalidConstraintError):
            combo_constraints("")

    def test_format_range(self):
        assert format_range((None, 2000)) == "(-inf,2k]"
        assert format_range((3500, None)) == "[3.5k,inf)"
        assert format_range((1000, 5000)) == "[1k,5k]"
        assert format_range((250, 750)) == "[250,750]"

    def test_table3_grid_has_14_ranges(self):
        assert len(tables.table3_min_ranges()) == 14

    def test_table4_grid_has_8_settings(self):
        assert len(tables.table4_settings()) == 8


class TestRunner:
    def test_bench_scale_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert bench_scale() == 0.5

    def test_bench_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 0.15

    def test_bench_dataset_scales(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
        collection = bench_dataset("2k")
        assert len(collection) == round(2344 * 0.02)

    def test_bench_config_caps(self):
        config = bench_config(100)
        assert config.tabu_max_no_improve == 100
        assert config.tabu_max_iterations == 400

    def test_run_emp_row_fields(self, bench_census):
        row = run_emp(
            bench_census, "MS", dataset="t", enable_tabu=False, rng_seed=1
        )
        assert row.solver == "FaCT"
        assert row.combo == "MS"
        assert row.p > 0
        assert row.construction_seconds > 0
        assert row.tabu_seconds == 0
        assert row.setting == "defaults"  # no range was varied
        assert row.total_seconds == row.construction_seconds
        assert set(row.as_dict()) >= {"p", "combo", "heterogeneity"}

    def test_run_maxp_row(self, bench_census):
        row = run_maxp(
            bench_census, 20000, dataset="t", enable_tabu=False, rng_seed=1
        )
        assert row.solver == "MP"
        assert row.p > 0
        assert row.setting == "SUM[20k,inf)"


class TestBenchSchema:
    def test_fresh_rows_carry_current_schema(self, bench_census):
        from repro.bench.runner import BENCH_SCHEMA_VERSION

        row = run_emp(
            bench_census, "M", dataset="t", enable_tabu=False, rng_seed=1
        )
        assert BENCH_SCHEMA_VERSION == 2
        assert row.schema_version == BENCH_SCHEMA_VERSION
        assert row.telemetry["total_spans"] > 0
        assert row.telemetry["total_events"] > 0
        assert "construction" in row.telemetry["phase_seconds"]
        payload = row.as_dict()
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["telemetry"]["total_spans"] == (
            row.telemetry["total_spans"]
        )

    def test_v1_journal_records_still_replay(self, bench_census, tmp_path):
        import json

        from repro.bench import RunJournal, use_journal

        path = tmp_path / "journal.jsonl"
        with use_journal(RunJournal(str(path))):
            run_emp(
                bench_census, "M", dataset="t", enable_tabu=False, rng_seed=1
            )
        # Rewrite the journal as a pre-telemetry (version 1) run would
        # have written it: no schema_version, no telemetry block.
        stripped = []
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            entry.pop("schema_version", None)
            entry.pop("telemetry", None)
            stripped.append(json.dumps(entry, sort_keys=True))
        path.write_text("\n".join(stripped) + "\n")

        journal = RunJournal(str(path))
        with use_journal(journal):
            replayed = run_emp(
                bench_census, "M", dataset="t", enable_tabu=False, rng_seed=1
            )
        assert journal.replayed == 1
        assert replayed.schema_version == 1  # marked old, not re-defaulted
        assert replayed.telemetry == {}
        assert replayed.p > 0

    def test_read_bench_record_accepts_old_records(self, tmp_path):
        import json

        from repro.bench.micro import read_bench_record

        path = tmp_path / "BENCH_tabu.json"
        path.write_text(json.dumps({"mean_seconds": 1.0, "n_areas": 300}))
        record = read_bench_record(str(path))
        assert record["mean_seconds"] == 1.0
        assert record["schema_version"] == 1
        assert record["telemetry"] == {}

    def test_read_bench_record_missing_or_garbage(self, tmp_path):
        from repro.bench.micro import read_bench_record

        assert read_bench_record(str(tmp_path / "absent.json")) is None
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{ not json")
        assert read_bench_record(str(garbage)) is None

    def test_micro_payload_carries_schema_and_telemetry(self):
        from repro.bench.micro import run_micro
        from repro.bench.runner import BENCH_SCHEMA_VERSION

        result = run_micro(scale=0.02, micro_ops=False)
        assert result["schema_version"] == BENCH_SCHEMA_VERSION
        assert result["telemetry"]["total_spans"] > 0
        assert result["p"] > 0
        assert result["perf"]["contiguity_checks"] > 0

    def test_enriched_workload_covers_all_five_families(self):
        from repro.bench.workloads import enriched_constraints

        cs = enriched_constraints()
        assert {c.aggregate for c in cs} == {
            "MIN",
            "MAX",
            "AVG",
            "SUM",
            "COUNT",
        }

    def test_scaling_payload_diffs_backends(self):
        """The scaling record keeps the ``backends`` block of the
        checked-in BENCH_scaling.json — one ``numpy`` row per dataset
        with every field the baseline row carries that the harness
        still measures — so the perf gate can diff it against that
        baseline and progress calibration can read it."""
        from repro.bench.micro import (
            compare_perf_to_baseline,
            read_bench_record,
            run_scaling,
        )
        from repro.bench.runner import BENCH_SCHEMA_VERSION

        # Small but not tiny: the workload's SUM(TOTALPOP) >= 800k
        # lower bound needs enough areas for a non-degenerate p > 1
        # partition.
        result = run_scaling(datasets=("2k",), scale=0.3)
        assert result["schema_version"] == BENCH_SCHEMA_VERSION
        assert result["workload"] == "enriched"
        assert result["all_complete"]
        assert result["numpy_version"]
        block = result["datasets"]["2k"]
        assert block["p"] > 1
        assert set(block["backends"]) == {"numpy"}
        run = block["backends"]["numpy"]
        assert run["status"] == "complete"
        assert run["wall_seconds"] >= run["tabu_seconds"] >= 0.0
        baseline = read_bench_record(
            os.path.join(os.path.dirname(__file__), "..", "BENCH_scaling.json")
        )
        base_row = baseline["datasets"]["2k"]["backends"]["numpy"]
        # donor_cache_hits: a counter of a since-removed derive cache.
        assert set(base_row) - {"donor_cache_hits"} <= set(run)
        gate = compare_perf_to_baseline(result, baseline)
        assert {entry["backend"] for entry in gate["comparisons"]} == {
            "numpy"
        }


class TestPerfGate:
    """The scaling perf-regression gate (compare_perf_to_baseline)."""

    @staticmethod
    def _record(rebuilds, incremental, evals, derives):
        return {
            "datasets": {
                "2k": {
                    "backends": {
                        "numpy": {
                            "oracle_rebuilds": rebuilds,
                            "oracle_incremental": incremental,
                            "candidate_evaluations": evals,
                            "vector_derives": derives,
                        }
                    }
                }
            }
        }

    def test_rates_shape_and_values(self):
        from repro.bench.micro import _perf_rates

        row = self._record(10, 990, 30_000, 200)
        rates = _perf_rates(row["datasets"]["2k"]["backends"]["numpy"])
        assert rates["oracle_rebuild_share"] == (0.01, 1000)
        assert rates["candidate_evals_per_derive"] == (150.0, 200)

    def test_rates_none_when_counters_missing_or_empty(self):
        from repro.bench.micro import _perf_rates

        # A pre-oracle baseline row (only the old counter subset).
        old = {"candidate_evaluations": 5000, "vector_derives": 0}
        rates = _perf_rates(old)
        assert rates["oracle_rebuild_share"] == (None, 0)
        assert rates["candidate_evals_per_derive"] == (None, 0)

    def test_verdict_needs_relative_and_absolute_gap(self):
        from repro.bench.micro import _perf_verdict

        # 3x relative blowup with a large absolute gap: regression.
        assert _perf_verdict(
            "candidate_evals_per_derive", 450.0, 150.0
        ) == "REGRESSION"
        # 3x relative on a near-zero baseline: absolute slack absorbs it.
        assert _perf_verdict(
            "oracle_rebuild_share", 0.003, 0.001
        ) == "NEUTRAL"
        # Large improvement in both senses: win.
        assert _perf_verdict(
            "candidate_evals_per_derive", 50.0, 300.0
        ) == "WIN"
        # Within 2x either way: neutral.
        assert _perf_verdict(
            "candidate_evals_per_derive", 200.0, 150.0
        ) == "NEUTRAL"

    def test_compare_flags_regression(self):
        from repro.bench.micro import compare_perf_to_baseline

        baseline = self._record(10, 9990, 150_000, 1000)
        # Oracle silently falling back to full rebuilds: share 0.001→1.
        current = self._record(10_000, 0, 150_000, 1000)
        gate = compare_perf_to_baseline(current, baseline)
        assert gate["overall"] == "REGRESSION"
        by_metric = {c["metric"]: c for c in gate["comparisons"]}
        assert by_metric["oracle_rebuild_share"]["verdict"] == "REGRESSION"
        assert (
            by_metric["candidate_evals_per_derive"]["verdict"] == "NEUTRAL"
        )

    def test_compare_insufficient_volume_is_neutral(self):
        from repro.bench.micro import compare_perf_to_baseline

        baseline = self._record(10, 9990, 150_000, 1000)
        # A smoke-scale run: 1 rebuild, 0 incremental, 3 derives — the
        # rates are garbage (share = 1.0) but there is no volume.
        current = self._record(1, 0, 1200, 3)
        gate = compare_perf_to_baseline(current, baseline)
        assert gate["overall"] == "NEUTRAL"
        for entry in gate["comparisons"]:
            assert entry["verdict"] == "NEUTRAL"
            assert entry["insufficient_volume"] is True

    def test_compare_without_baseline_is_neutral(self):
        from repro.bench.micro import compare_perf_to_baseline

        current = self._record(10, 9990, 150_000, 1000)
        for baseline in (None, {}, {"datasets": {}}):
            gate = compare_perf_to_baseline(current, baseline)
            assert gate["overall"] == "NEUTRAL"
            assert gate["comparisons"] == []
            assert gate["baseline_found"] is False

    def test_compare_reports_win(self):
        from repro.bench.micro import compare_perf_to_baseline

        # The pre-incremental world: every refresh was a full rebuild.
        baseline = self._record(10_000, 0, 150_000, 1000)
        current = self._record(10, 9990, 150_000, 1000)
        gate = compare_perf_to_baseline(current, baseline)
        assert gate["overall"] == "WIN"


class TestTables:
    def test_table3_rows_cover_grid(self, bench_census):
        ranges = workloads.TABLE3_OPEN_LOWER_RANGES[:1]
        rows = table3_rows(
            bench_census, "t", combos=("M", "MS"), ranges=ranges
        )
        assert len(rows) == 2
        assert {r.combo for r in rows} == {"M", "MS"}

    def test_table4_rows_include_baseline_on_open_upper(self, bench_census):
        rows = table4_rows(
            bench_census,
            "t",
            combos=("S",),
            settings=[(20000, None), (15000, 25000)],
        )
        solvers = [(r.solver, r.setting) for r in rows]
        assert ("MP", "SUM[20k,inf)") in solvers
        # bounded range: no baseline entry (the paper's N/A cells)
        assert not any(
            s == "MP" and "25k" in setting for s, setting in solvers
        )

    def test_format_p_table_layout(self, bench_census):
        rows = table3_rows(
            bench_census,
            "t",
            combos=("M",),
            ranges=workloads.TABLE3_OPEN_LOWER_RANGES[:2],
        )
        text = format_p_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("combo")
        assert any(line.strip().startswith("M") for line in lines[2:])

    def test_format_p_table_other_quantities(self, bench_census):
        rows = table3_rows(
            bench_census, "t", combos=("M",),
            ranges=workloads.TABLE3_OPEN_LOWER_RANGES[:1],
        )
        text = format_p_table(rows, "n_unassigned")
        assert "combo" in text


class TestFigures:
    def test_fig8_distribution_counts_all_areas(self, bench_census):
        data = figures.fig8_avg_distribution(bench_census, "t", n_bins=8)
        total = sum(v for _, v in data.series["areas"])
        assert total == len(bench_census)

    def test_fig9_series_shapes(self, bench_census):
        data = figures.fig9_avg_midpoints(bench_census, "t")
        assert len(data.series["p"]) == len(workloads.FIG9_AVG_MIDPOINTS)
        assert set(data.series) >= {
            "p",
            "unassigned",
            "construction_s",
            "tabu_s",
        }

    def test_figure_format_renders_table(self, bench_census):
        data = figures.fig8_avg_distribution(bench_census, "t", n_bins=4)
        text = data.format()
        assert "Fig 8" in text
        assert "areas" in text

    def test_runtime_sweep_produces_construction_and_tabu(self, bench_census):
        data = figures.fig5_min_open_lower(bench_census, "t")
        assert any(name.endswith("construction") for name in data.series)
        assert any(name.endswith("tabu") for name in data.series)
        # every cell measured with tabu enabled
        assert all(row.construction_seconds > 0 for row in data.rows)


class TestReportWriter:
    def test_report_runs_end_to_end_at_tiny_scale(self, monkeypatch, tmp_path):
        from repro.bench.report import main

        output = tmp_path / "report.md"
        exit_code = main(
            ["--scale", "0.01", "--quick", "--output", str(output)]
        )
        assert exit_code == 0
        text = output.read_text()
        assert "Table III" in text
        assert "Table IV" in text
        assert "Fig 16" in text


class TestScalabilityFigure:
    def test_scalability_series(self):
        from repro.bench import figures

        data = figures.scalability(
            ("1k", "2k"), combos=("M",), scale=0.02, figure="Fig 14"
        )
        assert len(data.series["M construction"]) == 2
        assert len(data.series["M p"]) == 2
        assert all(row.p >= 0 for row in data.rows)

    def test_scalability_bottleneck_variant(self):
        from repro.bench import figures
        from repro.bench.workloads import AVG_BOTTLENECK_RANGE

        data = figures.scalability(
            ("1k",),
            combos=("A",),
            scale=0.02,
            avg_range=AVG_BOTTLENECK_RANGE,
            figure="Fig 16",
        )
        assert "AVG [2k,4k]" in data.title
