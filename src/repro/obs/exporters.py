"""Exporters over the run event log (``trace.jsonl``).

Everything here consumes the list-of-dicts form produced by
:func:`read_events` (one JSON object per line, see
:mod:`repro.obs.events`) and is surfaced on the CLI as
``python -m repro obs <report|chrome|prom|validate> trace.jsonl``:

- :func:`render_report` — human-readable timeline: the span tree with
  durations and attributes, event counts, per-phase wall-clock;
- :func:`chrome_trace` — Chrome ``trace_event`` JSON (complete ``"X"``
  events, microsecond timestamps) for chrome://tracing / Perfetto;
- :func:`prometheus_text` — Prometheus text exposition of a metrics
  snapshot (the log's final one, or a ``--metrics-output`` JSON file);
- :func:`validate_events` — structural lint: valid JSONL, schema
  fields present, every span closed, every parent resolvable, exactly
  one root — the CI gate for trace artifacts.
"""

from __future__ import annotations

import json
import re

__all__ = [
    "chrome_trace",
    "final_metrics_snapshot",
    "prometheus_text",
    "read_events",
    "render_report",
    "validate_events",
]


def read_events(path: str) -> list[dict]:
    """Load a JSONL event log; raises ``ValueError`` naming the first
    malformed line (a trace file must be valid JSONL end to end)."""
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{number}: not valid JSON ({error.msg})"
                ) from error
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{number}: expected a JSON object, got "
                    f"{type(record).__name__}"
                )
            records.append(record)
    return records


def span_records(events: list[dict]) -> list[dict]:
    """The finished-span records of an event log, in emission order."""
    return [event for event in events if event.get("kind") == "span"]


def final_metrics_snapshot(events: list[dict]) -> dict | None:
    """The last ``metrics.snapshot`` record's snapshot, if any."""
    for event in reversed(events):
        if event.get("kind") == "metrics.snapshot":
            return event.get("snapshot")
    return None


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

_REQUIRED_FIELDS = ("schema", "kind", "ts", "mono")


def validate_events(events: list[dict]) -> list[str]:
    """Structural problems of an event log (empty list = valid)."""
    problems: list[str] = []
    if not events:
        return ["event log is empty"]
    for position, event in enumerate(events):
        missing = [f for f in _REQUIRED_FIELDS if f not in event]
        if missing:
            problems.append(
                f"record {position} ({event.get('kind', '?')!r}) is missing "
                f"required fields {missing}"
            )
    started: dict[str, dict] = {}
    ended: dict[str, dict] = {}
    for event in events:
        kind = event.get("kind")
        if kind == "span.start" and event.get("span_id"):
            started[event["span_id"]] = event
        elif kind == "span" and event.get("span_id"):
            ended[event["span_id"]] = event
    for span_id, event in started.items():
        if span_id not in ended:
            problems.append(
                f"span {event.get('name')!r} ({span_id}) started but never "
                "finished"
            )
    for span_id, event in ended.items():
        if span_id not in started:
            problems.append(
                f"span {event.get('name')!r} ({span_id}) finished without a "
                "span.start record"
            )
        if event.get("end") is None:
            problems.append(
                f"span {event.get('name')!r} ({span_id}) has no end timestamp"
            )
    roots = [e for e in ended.values() if e.get("parent_id") is None]
    if len(roots) != 1 and ended:
        problems.append(
            f"expected exactly one root span, found {len(roots)} "
            f"({sorted(e.get('name', '?') for e in roots)})"
        )
    for span_id, event in ended.items():
        parent = event.get("parent_id")
        if parent is not None and parent not in ended:
            problems.append(
                f"span {event.get('name')!r} ({span_id}) is orphaned: parent "
                f"{parent} is not in the trace"
            )
    for event in events:
        if event.get("kind") == "run.end" and event.get("open_spans"):
            problems.append(
                f"run.end reports open spans: {event['open_spans']}"
            )
    for position, event in enumerate(events):
        if event.get("kind") == "progress":
            done, total = event.get("done"), event.get("total")
            if not isinstance(done, (int, float)) or not isinstance(
                total, (int, float)
            ):
                problems.append(
                    f"record {position}: progress event lacks numeric "
                    "done/total"
                )
            elif not 0 <= done <= max(total, 0):
                problems.append(
                    f"record {position}: progress done={done} outside "
                    f"[0, total={total}]"
                )
        elif event.get("kind") == "health":
            if event.get("health") not in (
                "healthy", "slow", "stalled"
            ):
                problems.append(
                    f"record {position}: health event carries unknown "
                    f"state {event.get('health')!r}"
                )
    return problems


# ----------------------------------------------------------------------
# timeline report
# ----------------------------------------------------------------------

# Span attributes worth showing inline in the report tree.
_REPORT_ATTRS = (
    "index",
    "seed",
    "p",
    "n_unassigned",
    "heterogeneity",
    "iterations",
    "status",
)

# Span attributes REPRO_PROFILE attaches (see repro.obs.profiling),
# shown on their own lines under the span: one line per list item.
_PROFILE_ATTRS = ("tracemalloc_kb", "tracemalloc_peak_kb", "cprofile_top")


def render_report(events: list[dict]) -> str:
    """Human-readable timeline: span tree, event summary, phase totals."""
    spans = span_records(events)
    lines: list[str] = []
    run_start = next(
        (e for e in events if e.get("kind") == "run.start"), None
    )
    if run_start is not None:
        lines.append(f"trace {run_start.get('trace_id', '?')}")

    children: dict[str | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.get("start") or 0.0, s.get("span_id")))

    base = min((s.get("start") or 0.0 for s in spans), default=0.0)

    def _walk(parent_id: str | None, depth: int) -> None:
        for span in children.get(parent_id, []):
            start = (span.get("start") or 0.0) - base
            duration = ((span.get("end") or span.get("start") or 0.0)
                        - (span.get("start") or 0.0))
            attrs = span.get("attrs") or {}
            shown = ", ".join(
                f"{key}={attrs[key]}" for key in _REPORT_ATTRS if key in attrs
            )
            flag = "" if span.get("status") == "ok" else f" [{span.get('status')}]"
            lines.append(
                f"{'  ' * depth}{span.get('name')}{flag}  "
                f"+{start * 1000:.1f}ms  {duration * 1000:.1f}ms"
                + (f"  ({shown})" if shown else "")
            )
            for key in _PROFILE_ATTRS:
                values = attrs.get(key)
                if values is None:
                    continue
                for value in values if isinstance(values, list) else [values]:
                    lines.append(f"{'  ' * (depth + 1)}| {key} {value}")
            _walk(span.get("span_id"), depth + 1)

    _walk(None, 0)

    counts: dict[str, int] = {}
    for event in events:
        kind = event.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    lines.append("")
    lines.append("events: " + ", ".join(
        f"{kind}×{count}" for kind, count in sorted(counts.items())
    ))

    snapshot = final_metrics_snapshot(events)
    if snapshot:
        phase_seconds = {
            key: value
            for key, value in snapshot.get("counters", {}).items()
            if key.startswith("phase_seconds{")
        }
        if phase_seconds:
            lines.append("phase seconds:")
            for key, value in sorted(phase_seconds.items()):
                label = key[len("phase_seconds{"):-1]
                lines.append(f"  {label:<30} {value:.4f}s")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------

def chrome_trace(events: list[dict]) -> dict:
    """Chrome ``trace_event`` JSON: load the returned object (saved as
    a file) in chrome://tracing or https://ui.perfetto.dev."""
    spans = span_records(events)
    base = min((s.get("start") or 0.0 for s in spans), default=0.0)
    trace_events = []
    for span in spans:
        start = span.get("start") or 0.0
        end = span.get("end") or start
        args = dict(span.get("attrs") or {})
        args["span_id"] = span.get("span_id")
        if span.get("status") != "ok":
            args["status"] = span.get("status")
        trace_events.append(
            {
                "name": span.get("name"),
                "cat": "solve",
                "ph": "X",
                "ts": round((start - base) * 1e6, 1),
                "dur": round((end - start) * 1e6, 1),
                "pid": span.get("pid", 0),
                "tid": span.get("pid", 0),
                "args": args,
            }
        )
    for pid in sorted({e["pid"] for e in trace_events}):
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": f"solver pid {pid}"},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_KEY_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str) -> str:
    return prefix + _SANITIZE_RE.sub("_", name)


def _split_key(key: str) -> tuple[str, str]:
    """A snapshot key like ``phase_seconds{phase="tabu"}`` into
    (name, label part incl. braces or '')."""
    match = _KEY_RE.match(key)
    if match is None:  # pragma: no cover - snapshot keys are regular
        return key, ""
    labels = match.group("labels")
    return match.group("name"), f"{{{labels}}}" if labels else ""


def _escape_help(text: str) -> str:
    """HELP-line escaping per text-format 0.0.4: backslash and
    newline only (double quotes are legal in HELP text)."""
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


def prometheus_text(
    snapshot: dict,
    prefix: str = "repro_",
    help_text: dict[str, str] | None = None,
) -> str:
    """Prometheus text exposition of a metrics snapshot
    (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`).

    *help_text* maps snapshot metric names (pre-prefix, e.g.
    ``service_jobs``) to ``# HELP`` strings, emitted escaped before
    the matching ``# TYPE`` line.
    """
    lines: list[str] = []
    typed: set[str] = set()
    help_text = help_text or {}

    def _emit(key: str, value, kind: str, suffix: str = "") -> None:
        name, labels = _split_key(key)
        prom = _prom_name(name, prefix) + suffix
        if prom not in typed:
            typed.add(prom)
            if not suffix and name in help_text:
                lines.append(
                    f"# HELP {prom} {_escape_help(help_text[name])}"
                )
            lines.append(f"# TYPE {prom} {kind}")
        rendered = "0" if value is None else repr(float(value))
        lines.append(f"{prom}{labels} {rendered}")

    for key, value in (snapshot.get("counters") or {}).items():
        _emit(key, value, "counter")
    for key, value in (snapshot.get("gauges") or {}).items():
        _emit(key, value, "gauge")
    for key, value in (snapshot.get("histograms") or {}).items():
        _emit(key, value.get("count", 0), "counter", suffix="_count")
        _emit(key, value.get("sum", 0.0), "counter", suffix="_sum")
        _emit(key, value.get("min"), "gauge", suffix="_min")
        _emit(key, value.get("max"), "gauge", suffix="_max")
    return "\n".join(lines) + "\n"
