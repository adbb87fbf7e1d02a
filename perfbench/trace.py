"""The traced run's span recorder and the timing wrappers it installs.

The benchmark never edits the solver. During a traced run it replaces
the names the solver calls through (module functions and methods,
listed in :data:`TARGETS`) with wrappers that open a span per call,
and puts the originals back afterwards, so untimed runs execute the
unmodified code. A name that no longer exists is reported as an
unmeasured layer instead of failing the run.

Spans carry a name, start, end and parent, are kept in memory under
one trace id per solve and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager

from .stats import self_times

# (span name, module, attribute path). Several entries may share a span
# name when the solver reaches one layer through more than one module.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("preflight", "repro.fact.solver", "scan_structure"),
    ("preflight", "repro.fact.solver", "build_report"),
    ("fact.feasibility", "repro.fact.solver", "check_feasibility"),
    ("fact.construction", "repro.fact.solver", "construct"),
    ("fact.seeding", "repro.fact.construction", "select_seeds"),
    ("fact.growing", "repro.fact.growing", "grow_regions"),
    ("fact.adjustment", "repro.fact.adjustment", "adjust_counting"),
    ("fact.tabu", "repro.fact.portfolio", "tabu_improve"),
    ("fact.tabu.derive", "repro.fact.tabu", "_MovePool._derive_moves"),
    ("fact.tabu.select", "repro.fact.tabu", "_MovePool.best_admissible"),
    ("fact.tabu.after_move", "repro.fact.tabu", "_MovePool.after_move"),
    ("fact.state.move", "repro.fact.state", "SolutionState.move"),
    (
        "fact.objectives.apply_move",
        "repro.fact.objectives",
        "HeterogeneityObjective.apply_move",
    ),
    ("contiguity.oracle", "repro.core.region", "Region.removable_areas"),
    ("certify", "repro.fact.solver", "certify_partition"),
)

# Span names whose wrapped call returns the derived moves; the count of
# moves they return is accumulated as a layer counter.
_RESULT_COUNTERS = {"fact.tabu.derive": "moves_derived"}


class Tracer:
    """In-memory span recorder for one thread.

    Spans live in flat typed arrays rather than one Python object each:
    a traced solve records over 100k spans, and that many long-lived
    tuples would make the garbage collector rescan the solver's heap
    and inflate the very times being measured.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._span_name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self.trace_ids: dict[int, str] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._trace_id: str | None = None

    @property
    def spans(self) -> list[tuple[int, int | None, str, float, float]]:
        """Every closed span as ``(span_id, parent_id, name, start, end)``."""
        return [
            (
                span_id,
                None if parent < 0 else parent,
                self.names[self._span_name[span_id]],
                self._start[span_id],
                self._end[span_id],
            )
            for span_id, parent in enumerate(self._parent)
        ]

    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def _open(self, name_index: int) -> int:
        span_id = len(self._parent)
        stack = self._stack
        self._parent.append(stack[-1] if stack else -1)
        self._span_name.append(name_index)
        self._start.append(0.0)
        self._end.append(0.0)
        if not stack:
            self.trace_ids[span_id] = self._trace_id or f"t{span_id}"
        stack.append(span_id)
        return span_id

    @contextmanager
    def span(self, name: str, trace_id: str | None = None):
        """A span around the block; *trace_id* names a new root."""
        if trace_id is not None:
            self._trace_id = trace_id
        span_id = self._open(self._intern(name))
        self._start[span_id] = self.clock()
        try:
            yield span_id
        finally:
            self._end[span_id] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, func):
        """*func* with a span per call."""
        counter = _RESULT_COUNTERS.get(name)
        name_index = self._intern(name)
        open_span = self._open
        stack = self._stack
        starts = self._start
        ends = self._end
        clock = self.clock
        counters = self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = open_span(name_index)
            starts[span_id] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                ends[span_id] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] = counters.get(counter, 0) + len(result)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write every span as one JSON line, roots tagged with their
        trace id."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "trace": self.trace_ids.get(span_id),
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def _resolve(module_name: str, attr_path: str):
    """``(owner, attribute, current value)`` or ``None`` when the name
    is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attribute, None)
    if value is None or not callable(value):
        return None
    return owner, attribute, value


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Install the wrappers for the block; yields the span names that
    could not be wrapped (unmeasured layers)."""
    restore: list[tuple[object, str, object, bool]] = []
    missing: list[str] = []
    try:
        for name, module_name, attr_path in targets:
            resolved = _resolve(module_name, attr_path)
            if resolved is None:
                missing.append(name)
                continue
            owner, attribute, value = resolved
            own = attribute in vars(owner)
            restore.append((owner, attribute, vars(owner).get(attribute), own))
            setattr(owner, attribute, tracer.wrap(name, value))
        yield sorted(set(missing))
    finally:
        for owner, attribute, original, own in reversed(restore):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def layer_table(spans, root_id: int) -> dict[str, dict]:
    """Per span name under *root_id*: call count, inclusive seconds
    (outermost calls only, so recursion is not double counted) and
    self seconds. The root's own self time appears under its name."""
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}

    def under_root(span_id):
        while span_id is not None:
            if span_id == root_id:
                return True
            span_id = parent_of.get(span_id)
        return False

    own = [s for s in spans if under_root(s[0])]
    selfs = self_times(own)
    table: dict[str, dict] = {}
    for span_id, parent, name, start, end in own:
        row = table.setdefault(
            name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += selfs[span_id]
        ancestor = parent
        nested = False
        while ancestor is not None:
            if name_of.get(ancestor) == name:
                nested = True
                break
            ancestor = parent_of.get(ancestor)
        if not nested:
            row["inclusive_s"] += end - start
    return table


def inclusive_under(spans, root_id: int, name: str, ancestor_name: str) -> float:
    """Inclusive seconds of *name* spans that have an *ancestor_name*
    span above them, below *root_id*."""
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    total = 0.0
    for span_id, parent, span_name, start, end in spans:
        if span_name != name:
            continue
        ancestor = parent
        found = False
        while ancestor is not None:
            if name_of[ancestor] == ancestor_name:
                found = True
            if ancestor == root_id:
                break
            ancestor = parent_of.get(ancestor)
        if found and ancestor == root_id:
            total += end - start
    return total
