"""Hot-path instrumentation: performance counters.

The FaCT phases spend almost all their wall-clock answering two kinds
of queries — "may this area leave its region?" (contiguity) and "what
borders this region?" (frontier/adjacency). Both are served by
incremental caches (:meth:`repro.core.region.Region.removable_areas`,
the indexes inside :class:`repro.fact.state.SolutionState`), which
are the solver's only path; the naive recomputations they replace
survive as oracles in the test suite. This module provides
:class:`PerfCounters` — a lightweight mutable struct counting cache
hits, rebuilds, full graph traversals and candidate evaluations, plus
named wall-clock timings. One instance is owned by each
``SolutionState`` and surfaces on :class:`repro.fact.solver.
EMPSolution` and in the microbenchmark harness.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from ..obs.metrics import MetricsRegistry

__all__ = ["PerfCounters"]


class PerfCounters:
    """Mutable hot-path counters shared by a solver run.

    Attributes
    ----------
    contiguity_checks:
        Calls to ``Region.remains_contiguous_without`` (every Step-3
        swap/trim candidate and every Tabu donor re-validation).
    oracle_hits:
        Contiguity answers served from a region's cached
        articulation/removable set — O(1) each.
    oracle_rebuilds:
        Lazy rebuilds of that cache that ran a **full** Tarjan/component
        pass over the region — the first query of a fresh region, plus
        every fallback (amortized over every query between two
        mutations of the same region).
    oracle_incremental:
        Oracle rebuilds answered by replaying the region's pending
        membership mutations into its maintained block-cut structure
        (:class:`repro.contiguity.graph.BlockCutIndex`) instead of a
        full DFS — additions are pure block-cut-tree surgery, removals
        re-split only the affected biconnected block.
    oracle_fallbacks:
        Oracle rebuilds where a block-cut structure existed but could
        not absorb the pending mutations (articulation-point removal,
        disconnection, overlong mutation log) and a full DFS ran
        instead. Always ≤ ``oracle_rebuilds``.
    graph_traversals:
        Full passes over a region's induced subgraph (BFS connectivity
        checks, component scans, articulation passes) — the quantity
        the oracle exists to minimize.
    full_bfs_checks:
        Contiguity checks that had to pay for the oracle's lazy
        rebuild themselves (as opposed to an O(1) oracle lookup).
    candidate_evaluations:
        Candidate moves examined by Step-3 adjustment and the Tabu
        move-pool derivation.
    frontier_queries / adjacency_queries:
        Region-frontier and region-adjacency lookups served by the
        ``SolutionState`` indexes.
    index_updates:
        Incremental index maintenance operations (one per area
        assignment change; O(degree) each).
    delta_fastpath:
        Heterogeneity/objective delta queries answered off a region's
        *maintained* sorted-values + prefix-sums structure — an
        O(log g) bisection, no re-sort of the region's dissimilarity
        vector.
    delta_recompute:
        Delta queries that had to (re)build the sorted structure from
        scratch — the first query of a fresh region.
    objective_struct_updates:
        Incremental maintenance operations on the objective structures
        (one sorted-list insertion/deletion or coordinate-sum update
        per region mutation).
    vector_derives:
        Donors whose Tabu moves the batch kernel (over the
        :mod:`repro.core.arrays` mirror) derived instead of the scalar
        per-candidate loop — one per donor, however many donors share
        a batched call. Zero when every donor is below the vector
        cutoff.
    pool_task_failures:
        Worker-pool tasks that raised, returned an unpicklable result,
        or died with their worker (each failure is retried or degraded
        — see :func:`repro.fact.pool.collect_resilient`).
    pool_task_retries:
        Failed tasks resubmitted to the (possibly restarted) pool.
    pool_tasks_degraded:
        Tasks that exhausted their retries (or tripped the per-task
        deadline) and were re-run in-process instead.
    pool_broken_restarts:
        Times a dead executor (``BrokenProcessPool``) was torn down and
        rebuilt mid-solve.
    pool_task_timeouts:
        Tasks abandoned because they exceeded
        ``FaCTConfig.worker_task_deadline_seconds``.
    checkpoint_writes:
        Atomic solve-checkpoint snapshots written
        (``FaCTConfig.checkpoint_path``).
    checkpoint_replays:
        Construction passes / portfolio members replayed from a resume
        checkpoint instead of being recomputed.
    certifications:
        Independent certification passes run over a partition
        (``FaCTConfig.certify``).
    timings:
        Named wall-clock sections recorded via :meth:`time_section`
        or :meth:`record_seconds` (per-phase timings come from the
        solver facade).

        .. deprecated:: PR 5
            ``timings`` is now a read-only *view* over the
            ``phase_seconds`` counters of this struct's backing
            :class:`repro.obs.metrics.MetricsRegistry`
            (:attr:`timing_metrics`) — the registry is the source of
            truth and what the telemetry layer exports. The dict shape
            (``{name: seconds}``) is preserved for every existing
            consumer; mutate through :meth:`record_seconds` /
            :meth:`time_section`, not by assigning to the view.
    """

    __slots__ = (
        "contiguity_checks",
        "oracle_hits",
        "oracle_rebuilds",
        "oracle_incremental",
        "oracle_fallbacks",
        "graph_traversals",
        "full_bfs_checks",
        "candidate_evaluations",
        "frontier_queries",
        "adjacency_queries",
        "index_updates",
        "delta_fastpath",
        "delta_recompute",
        "objective_struct_updates",
        "vector_derives",
        "pool_task_failures",
        "pool_task_retries",
        "pool_tasks_degraded",
        "pool_broken_restarts",
        "pool_task_timeouts",
        "checkpoint_writes",
        "checkpoint_replays",
        "certifications",
        "_timing_metrics",
    )

    _COUNTER_FIELDS = (
        "contiguity_checks",
        "oracle_hits",
        "oracle_rebuilds",
        "oracle_incremental",
        "oracle_fallbacks",
        "graph_traversals",
        "full_bfs_checks",
        "candidate_evaluations",
        "frontier_queries",
        "adjacency_queries",
        "index_updates",
        "delta_fastpath",
        "delta_recompute",
        "objective_struct_updates",
        "vector_derives",
        "pool_task_failures",
        "pool_task_retries",
        "pool_tasks_degraded",
        "pool_broken_restarts",
        "pool_task_timeouts",
        "checkpoint_writes",
        "checkpoint_replays",
        "certifications",
    )

    def __init__(self) -> None:
        for name in self._COUNTER_FIELDS:
            setattr(self, name, 0)
        self._timing_metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    @property
    def timings(self) -> dict[str, float]:
        """Named wall-clock sections as ``{name: seconds}`` — a
        compatibility view over :attr:`timing_metrics` (see the class
        docstring's deprecation note)."""
        return self._timing_metrics.label_values("phase_seconds", "phase")

    @property
    def timing_metrics(self) -> MetricsRegistry:
        """The :class:`repro.obs.metrics.MetricsRegistry` backing the
        named timings (``phase_seconds{phase=...}`` counters)."""
        return self._timing_metrics

    @property
    def oracle_hit_rate(self) -> float:
        """Fraction of oracle lookups served without a rebuild."""
        total = self.oracle_hits + self.oracle_rebuilds
        if total == 0:
            return 0.0
        return self.oracle_hits / total

    @property
    def oracle_incremental_rate(self) -> float:
        """Fraction of oracle rebuilds served by block-cut replay
        instead of a full Hopcroft–Tarjan pass."""
        total = self.oracle_incremental + self.oracle_rebuilds
        if total == 0:
            return 0.0
        return self.oracle_incremental / total

    @property
    def delta_fastpath_rate(self) -> float:
        """Fraction of objective-delta queries answered off the
        maintained structure (no from-scratch re-sort)."""
        total = self.delta_fastpath + self.delta_recompute
        if total == 0:
            return 0.0
        return self.delta_fastpath / total

    def record_seconds(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock time under *name*."""
        self._timing_metrics.counter("phase_seconds", phase=name).inc(seconds)

    @contextmanager
    def time_section(self, name: str):
        """Context manager accumulating the body's wall-clock under
        *name*."""
        started = perf_counter()
        try:
            yield self
        finally:
            self.record_seconds(name, perf_counter() - started)

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Fold *other*'s counters and timings into this one."""
        for name in self._COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name, seconds in other.timings.items():
            self.record_seconds(name, seconds)
        return self

    def reset(self) -> None:
        """Zero every counter and drop all timings."""
        for name in self._COUNTER_FIELDS:
            setattr(self, name, 0)
        self._timing_metrics = MetricsRegistry()

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (JSON-serializable) for reports and bench
        output."""
        payload: dict[str, object] = {
            name: getattr(self, name) for name in self._COUNTER_FIELDS
        }
        payload["oracle_hit_rate"] = round(self.oracle_hit_rate, 4)
        payload["oracle_incremental_rate"] = round(
            self.oracle_incremental_rate, 4
        )
        payload["delta_fastpath_rate"] = round(self.delta_fastpath_rate, 4)
        payload["timings"] = {
            name: round(seconds, 6) for name, seconds in sorted(self.timings.items())
        }
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        inner = ", ".join(
            f"{name}={getattr(self, name)}" for name in self._COUNTER_FIELDS
        )
        return f"PerfCounters({inner})"
