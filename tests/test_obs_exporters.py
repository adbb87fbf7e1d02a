"""Exporter/validator tests over hand-authored event logs.

Using synthetic events (fixed timestamps, fixed span ids) makes the
expected report/Chrome/Prometheus output exact — golden assertions
rather than shape checks — and lets each validator failure mode be
triggered in isolation.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    chrome_trace,
    final_metrics_snapshot,
    prometheus_text,
    read_events,
    render_report,
    span_records,
    validate_events,
)


def _event(kind: str, **payload) -> dict:
    record = {"schema": 1, "kind": kind, "ts": 0.0, "mono": 0.0}
    record.update(payload)
    return record


def _span_pair(
    name, span_id, parent_id, start, end, pid=100, status="ok", attrs=None
) -> list[dict]:
    """The paired start/finish records one finished span produces."""
    return [
        _event(
            "span.start",
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            start=start,
            pid=pid,
        ),
        _event(
            "span",
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            trace_id="t1",
            start=start,
            end=end,
            status=status,
            pid=pid,
            attrs=dict(attrs or {}),
        ),
    ]


SNAPSHOT = {
    "counters": {
        'phase_seconds{phase="tabu"}': 0.3,
        "perf_contiguity_checks": 10.0,
    },
    "gauges": {"perf_oracle_hit_rate": 0.5},
    "histograms": {
        "pass_seconds": {"count": 2, "sum": 0.7, "min": 0.2, "max": 0.5},
    },
}


@pytest.fixture
def trace_events() -> list[dict]:
    events = [_event("run.start", trace_id="t1")]
    events += _span_pair("solve", "s1", None, 0.0, 1.0, attrs={"p": 5})
    events += _span_pair("construction", "s2", "s1", 0.1, 0.6)
    events += _span_pair(
        "tabu", "s3", "s1", 0.6, 0.9, pid=200, attrs={"iterations": 40}
    )
    events.append(
        _event("metrics.snapshot", phase="final", snapshot=SNAPSHOT, delta={})
    )
    events.append(
        _event("run.end", status="complete", open_spans=[], total_spans=3)
    )
    return events


class TestReadEvents:
    def test_round_trip(self, tmp_path, trace_events):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(json.dumps(e) for e in trace_events) + "\n"
        )
        assert read_events(str(path)) == trace_events

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "a"}\n\n{"kind": "b"}\n')
        assert [e["kind"] for e in read_events(str(path))] == ["a", "b"]

    def test_malformed_line_names_path_and_lineno(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "ok"}\n{torn off mid-\n')
        with pytest.raises(ValueError, match=r"trace\.jsonl:2: not valid"):
            read_events(str(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('[1, 2, 3]\n')
        with pytest.raises(ValueError, match="expected a JSON object"):
            read_events(str(path))


class TestValidateEvents:
    def test_well_formed_log_is_clean(self, trace_events):
        assert validate_events(trace_events) == []

    def test_empty_log(self):
        assert validate_events([]) == ["event log is empty"]

    def test_missing_required_fields(self):
        problems = validate_events([{"kind": "run.start"}])
        assert len(problems) == 1
        assert "missing required fields" in problems[0]

    def test_unclosed_span(self, trace_events):
        events = trace_events + [
            _event(
                "span.start", span_id="s9", parent_id="s1",
                name="leaked", start=0.5, pid=100,
            )
        ]
        problems = validate_events(events)
        assert any(
            "'leaked' (s9) started but never finished" in p
            for p in problems
        )

    def test_finish_without_start(self, trace_events):
        events = list(trace_events)
        events.remove(events[1])  # drop solve's span.start
        problems = validate_events(events)
        assert any("finished without a span.start" in p for p in problems)

    def test_span_without_end_timestamp(self):
        events = [_event("run.start", trace_id="t1")]
        events += _span_pair("solve", "s1", None, 0.0, None)
        problems = validate_events(events)
        assert any("has no end timestamp" in p for p in problems)

    def test_multiple_roots(self, trace_events):
        events = trace_events + _span_pair("rogue", "s8", None, 0.0, 0.1)
        problems = validate_events(events)
        assert any("expected exactly one root span" in p for p in problems)

    def test_orphaned_parent(self, trace_events):
        events = trace_events + _span_pair("lost", "s7", "missing", 0.0, 0.1)
        problems = validate_events(events)
        assert any(
            "'lost' (s7) is orphaned: parent missing" in p
            for p in problems
        )

    def test_run_end_open_spans(self, trace_events):
        events = list(trace_events)
        events[-1] = _event(
            "run.end", status="complete", open_spans=["tabu"], total_spans=3
        )
        problems = validate_events(events)
        assert any("run.end reports open spans" in p for p in problems)


class TestRenderReport:
    def test_tree_layout_and_attrs(self, trace_events):
        text = render_report(trace_events)
        lines = text.splitlines()
        assert lines[0] == "trace t1"
        assert lines[1].startswith("solve  +0.0ms  1000.0ms")
        assert "(p=5)" in lines[1]
        # children indented under the root, in start order
        assert lines[2].startswith("  construction  +100.0ms  500.0ms")
        assert lines[3].startswith("  tabu  +600.0ms  300.0ms")
        assert "(iterations=40)" in lines[3]

    def test_event_counts_line(self, trace_events):
        text = render_report(trace_events)
        assert "span×3" in text
        assert "run.start×1" in text

    def test_phase_seconds_section(self, trace_events):
        text = render_report(trace_events)
        assert "phase seconds:" in text
        assert 'phase="tabu"' in text
        assert "0.3000s" in text

    def test_error_status_flagged(self, trace_events):
        events = list(trace_events)
        events += _span_pair(
            "certify", "s4", "s1", 0.9, 1.0, status="error"
        )
        assert "certify [error]" in render_report(events)

    def test_profile_attrs_rendered_under_their_span(self, trace_events):
        # REPRO_PROFILE attaches these; the report is their only view.
        profile = {
            "cprofile_top": [
                "0.8000s tabu_improve (tabu.py:120)",
                "0.5000s best_admissible (tabu.py:300)",
            ],
            "tracemalloc_kb": 12.5,
            "tracemalloc_peak_kb": 40.0,
        }
        events = list(trace_events)
        events += _span_pair(
            "certify", "s4", "s1", 0.9, 1.0, attrs=profile
        )
        lines = render_report(events).splitlines()
        at = next(
            i for i, line in enumerate(lines) if line.startswith("  certify")
        )
        assert lines[at + 1:at + 5] == [
            "    | tracemalloc_kb 12.5",
            "    | tracemalloc_peak_kb 40.0",
            "    | cprofile_top 0.8000s tabu_improve (tabu.py:120)",
            "    | cprofile_top 0.5000s best_admissible (tabu.py:300)",
        ]


class TestChromeTrace:
    def test_complete_events_with_microsecond_offsets(self, trace_events):
        payload = chrome_trace(trace_events)
        assert payload["displayTimeUnit"] == "ms"
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in spans}
        assert by_name["solve"]["ts"] == 0.0
        assert by_name["solve"]["dur"] == 1_000_000.0
        assert by_name["construction"]["ts"] == 100_000.0
        assert by_name["construction"]["dur"] == 500_000.0
        assert by_name["tabu"]["args"]["iterations"] == 40
        assert by_name["tabu"]["args"]["span_id"] == "s3"

    def test_process_metadata_per_pid(self, trace_events):
        payload = chrome_trace(trace_events)
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {100, 200}
        assert meta[0]["args"]["name"] == "solver pid 100"

    def test_error_status_surfaced_in_args(self, trace_events):
        events = trace_events[:1] + _span_pair(
            "solve", "s1", None, 0.0, 1.0, status="error"
        )
        payload = chrome_trace(events)
        span = [e for e in payload["traceEvents"] if e["ph"] == "X"][0]
        assert span["args"]["status"] == "error"

    def test_serializable(self, trace_events):
        json.dumps(chrome_trace(trace_events))


class TestPrometheusText:
    def test_exposition_format(self):
        text = prometheus_text(SNAPSHOT)
        lines = text.splitlines()
        assert "# TYPE repro_phase_seconds counter" in lines
        assert 'repro_phase_seconds{phase="tabu"} 0.3' in lines
        assert "repro_perf_contiguity_checks 10.0" in lines
        assert "# TYPE repro_perf_oracle_hit_rate gauge" in lines
        assert "repro_pass_seconds_count 2.0" in lines
        assert "repro_pass_seconds_sum 0.7" in lines
        assert "repro_pass_seconds_min 0.2" in lines
        assert "repro_pass_seconds_max 0.5" in lines
        assert text.endswith("\n")

    def test_none_histogram_extremes_render_as_zero(self):
        snapshot = {
            "histograms": {"empty": {"count": 0, "sum": 0.0,
                                     "min": None, "max": None}},
        }
        text = prometheus_text(snapshot)
        assert "repro_empty_min 0" in text.splitlines()

    def test_custom_prefix_and_sanitization(self):
        text = prometheus_text(
            {"counters": {"weird.name-here": 1.0}}, prefix="x_"
        )
        assert "x_weird_name_here 1.0" in text


class TestSnapshotSelection:
    def test_final_metrics_snapshot_takes_last(self, trace_events):
        first = {"counters": {"n": 1.0}}
        events = [
            _event("metrics.snapshot", phase="construction",
                   snapshot=first, delta={}),
        ] + trace_events
        assert final_metrics_snapshot(events) == SNAPSHOT

    def test_no_snapshot_returns_none(self):
        assert final_metrics_snapshot([_event("run.start")]) is None

    def test_span_records_filters_finished_spans(self, trace_events):
        records = span_records(trace_events)
        assert [r["name"] for r in records] == [
            "solve", "construction", "tabu",
        ]
