"""Step-by-step construction tracing.

The paper emphasizes that FaCT "reports output statistics to users so
they are equipped with information about the impact of different
threshold ranges" (§VII-B3). This module takes that one level deeper:
:func:`trace_solve` records a snapshot after every phase — feasibility,
seeding, Substeps 2.1/2.2/2.3, Step 3 and Tabu — so an analyst can see
exactly where areas were filtered, seeded, absorbed, rescued or given
up on:

    trace = trace_solve(collection, constraints)
    print(trace.format())

Tracing is a one-pass :meth:`FaCT.solve <repro.fact.solver.FaCT.solve>`
(the paper's per-iteration view) under in-memory telemetry: the
Step 2/3 snapshots are the ``grow``/``enclave``/``extrema``/``adjust``
span attributes the solver's construction pass records, and the Tabu
snapshot is the solver's own answer. The trace is the solve, not a
re-enactment of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.area import AreaCollection
from ..core.constraints import ConstraintSet
from ..core.partition import Partition
from ..obs.telemetry import SolveTelemetry
from .config import FaCTConfig

__all__ = ["StepSnapshot", "SolveTrace", "trace_solve"]


@dataclass(frozen=True)
class StepSnapshot:
    """State summary after one pipeline step."""

    step: str
    description: str
    p: int
    n_assigned: int
    n_unassigned: int
    n_excluded: int
    heterogeneity: float

    def format(self) -> str:
        """One human-readable trace line."""
        return (
            f"{self.step:<22} p={self.p:<5} assigned={self.n_assigned:<6} "
            f"unassigned={self.n_unassigned:<6} "
            f"excluded={self.n_excluded:<5} H={self.heterogeneity:,.0f}"
            f"  [{self.description}]"
        )


@dataclass
class SolveTrace:
    """Full trace of one FaCT run.

    ``perf`` carries the run's hot-path counters (see
    :class:`repro.core.perf.PerfCounters`) so a trace shows not just
    *what* each step decided but how much contiguity/frontier work it
    cost.
    """

    snapshots: list[StepSnapshot] = field(default_factory=list)
    partition: Partition | None = None
    perf: object | None = None

    def step(self, name: str) -> StepSnapshot:
        """The snapshot recorded for a named step."""
        for snapshot in self.snapshots:
            if snapshot.step == name:
                return snapshot
        raise KeyError(f"no snapshot for step {name!r}")

    def format(self) -> str:
        """The whole trace as an aligned text block."""
        lines = [snapshot.format() for snapshot in self.snapshots]
        if self.perf is not None:
            lines.append(
                f"{'hot-path':<22} "
                f"contiguity={self.perf.contiguity_checks} "
                f"oracle_hit_rate={self.perf.oracle_hit_rate:.1%} "
                f"traversals={self.perf.graph_traversals} "
                f"candidates={self.perf.candidate_evaluations}"
            )
        return "\n".join(lines)


# Construction-pass child spans, in pipeline order, as trace steps.
_PASS_STEPS = (
    ("grow", "step2.1 seeding",
     "in-range seeds to singletons; Algorithm 1 on off-range seeds"),
    ("enclave", "step2.2 enclaves",
     "round-1 sweeps + round-2 merges (merge limit {merge_limit})"),
    ("extrema", "step2.3 extrema", "regions merged to cover all MIN/MAX"),
    ("adjust", "step3 adjustments",
     "absorb/swap/merge/trim for SUM-COUNT; infeasible dissolved"),
)


def trace_solve(
    collection: AreaCollection,
    constraints: ConstraintSet,
    config: FaCTConfig | None = None,
) -> SolveTrace:
    """Run one traced FaCT pass and return the step-by-step record.

    The solve runs *config* with one construction pass, no degenerate
    retries, one in-process worker and no checkpoint file; its answer
    is exactly what ``FaCT(config).solve`` returns for such a config.
    Raises :class:`repro.exceptions.InfeasibleProblemError` exactly as
    the solver would when the instance is infeasible.
    """
    from .solver import FaCT

    config = replace(
        config or FaCTConfig(),
        construction_iterations=1,
        construction_retry_attempts=0,
        n_jobs=1,
        checkpoint_path=None,
        decompose_components=False,
    )
    telemetry = SolveTelemetry(verbosity=2)
    solution = FaCT(config).solve(collection, constraints, telemetry=telemetry)

    n_areas = len(collection)
    n_excluded = solution.feasibility.n_invalid
    trace = SolveTrace(partition=solution.partition, perf=solution.perf)

    def record(step, description, p, n_unassigned, heterogeneity):
        # n_unassigned counts valid areas only, like SolutionState's.
        trace.snapshots.append(
            StepSnapshot(
                step=step,
                description=description,
                p=p,
                n_assigned=n_areas - n_excluded - n_unassigned,
                n_unassigned=n_unassigned,
                n_excluded=n_excluded,
                heterogeneity=heterogeneity,
            )
        )

    record(
        "feasibility",
        f"{n_excluded} invalid areas filtered, "
        f"{len(solution.construction.seeding.seeds)} seeds marked",
        0, n_areas - n_excluded, 0.0,
    )
    spans = {span["name"]: span for span in telemetry.tracer.finished}
    for span_name, step, description in _PASS_STEPS:
        attrs = spans.get(span_name, {}).get("attrs", {})
        if "heterogeneity" not in attrs:
            break  # the pass was interrupted before finishing this step
        record(
            step,
            description.format(merge_limit=config.merge_limit),
            attrs["p"], attrs["n_unassigned"], attrs["heterogeneity"],
        )
    tabu = solution.tabu
    if tabu is not None:
        record(
            "tabu",
            f"{tabu.moves_applied} moves, {tabu.improvement:.1%} improvement",
            solution.p,
            solution.n_unassigned - n_excluded,
            solution.heterogeneity,
        )
    return trace
