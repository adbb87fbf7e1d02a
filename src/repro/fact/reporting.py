"""Human-readable reports for FaCT runs.

The paper stresses that "FaCT algorithm reports output statistics to
users so they are equipped with information about the impact of
different threshold ranges on the given dataset" (Section VII-B3).
This module renders those statistics as plain-text reports suitable
for terminals and logs.
"""

from __future__ import annotations

from ..core.area import AreaCollection
from ..preflight import PreflightReport
from .feasibility import FeasibilityReport
from .solver import EMPSolution

__all__ = [
    "format_feasibility_report",
    "format_preflight_report",
    "format_solution_report",
]


def format_preflight_report(report: PreflightReport) -> str:
    """Render a preflight report as a multi-line string.

    One line per finding, errors first, each led by its stable
    machine-readable code so terminal output and the JSON report
    (:meth:`~repro.preflight.PreflightReport.as_dict`) line up.
    """
    lines = ["Preflight report"]
    lines.append(f"  verdict: {'ok' if report.ok else 'REJECTED'}")
    lines.append(
        f"  connected components: {report.n_components} "
        f"(sizes {[len(c) for c in report.components]})"
    )
    for finding in (*report.errors, *report.warnings):
        lines.append(
            f"  {finding.severity} [{finding.code}]: {finding.message}"
        )
        if finding.data:
            details = ", ".join(
                f"{key}={value!r}"
                for key, value in sorted(finding.data.items())
            )
            lines.append(f"    {details}")
    if not report.findings:
        lines.append("  no findings")
    return "\n".join(lines)


def format_feasibility_report(report: FeasibilityReport) -> str:
    """Render a Phase-1 report as a multi-line string."""
    lines = ["FaCT feasibility report"]
    lines.append(f"  feasible: {'yes' if report.feasible else 'NO'}")
    for reason in report.reasons:
        lines.append(f"  infeasible because: {reason}")
    for warning in report.warnings:
        lines.append(f"  warning: {warning}")
    lines.append(f"  invalid areas filtered: {report.n_invalid}")
    lines.append(f"  seed areas marked: {len(report.seed_areas)}")
    if report.global_aggregates:
        lines.append("  global aggregates:")
        for (aggregate, attribute), value in sorted(
            report.global_aggregates.items()
        ):
            label = f"{aggregate}({attribute})" if attribute else aggregate
            lines.append(f"    {label} = {value:g}")
    return "\n".join(lines)


def format_solution_report(
    solution: EMPSolution, collection: AreaCollection | None = None
) -> str:
    """Render a full solution report as a multi-line string."""
    lines = ["FaCT solution report"]
    if solution.interrupted:
        lines.append(
            f"  status: {solution.status.value} — best-so-far result "
            "(run was cut short by its budget)"
        )
    lines.append(f"  regions (p): {solution.p}")
    lines.append(f"  unassigned areas (|U0|): {solution.n_unassigned}")
    if collection is not None:
        fraction = solution.n_unassigned / len(collection)
        lines.append(f"  unassigned fraction: {fraction:.1%}")
    lines.append(
        "  heterogeneity: "
        f"{solution.heterogeneity_before:,.1f} -> {solution.heterogeneity:,.1f} "
        f"({solution.improvement:.1%} improvement)"
    )
    lines.append(
        f"  construction time: {solution.construction_seconds:.3f}s over "
        f"{solution.construction.iterations} pass(es)"
    )
    if len(solution.attempts) > 1:
        retried = sum(1 for attempt in solution.attempts if attempt.degenerate)
        lines.append(
            f"  construction attempts: {len(solution.attempts)} "
            f"({retried} degenerate, retried with derived seeds)"
        )
    if solution.tabu is not None:
        lines.append(
            f"  tabu time: {solution.tabu_seconds:.3f}s "
            f"({solution.tabu.iterations} iterations, "
            f"{solution.tabu.moves_applied} moves)"
        )
    else:
        lines.append("  tabu: disabled")
    if solution.perf is not None:
        perf = solution.perf
        lines.append(
            f"  contiguity checks: {perf.contiguity_checks:,} "
            f"(oracle hit rate {perf.oracle_hit_rate:.1%}, "
            f"{perf.graph_traversals:,} graph traversals)"
        )
        lines.append(
            f"  candidate evaluations: {perf.candidate_evaluations:,} "
            f"(frontier queries {perf.frontier_queries:,}, "
            f"adjacency queries {perf.adjacency_queries:,})"
        )
        faults = (
            perf.pool_task_failures
            + perf.pool_task_timeouts
            + perf.pool_broken_restarts
        )
        if faults:
            lines.append(
                f"  worker faults survived: {perf.pool_task_failures:,} "
                f"task failure(s), {perf.pool_task_timeouts:,} deadline "
                f"timeout(s), {perf.pool_broken_restarts:,} broken-pool "
                f"restart(s) — {perf.pool_task_retries:,} retried, "
                f"{perf.pool_tasks_degraded:,} degraded to in-process"
            )
        if perf.checkpoint_writes or perf.checkpoint_replays:
            lines.append(
                f"  checkpoints: {perf.checkpoint_writes:,} written, "
                f"{perf.checkpoint_replays:,} unit(s) replayed on resume"
            )
    if solution.certificate is not None:
        certificate = solution.certificate
        lines.append(
            f"  certificate ({certificate.label}): "
            f"{'VALID' if certificate.valid else 'INVALID'} — "
            f"{certificate.checked_regions} region(s), "
            f"{certificate.checked_constraints} constraint check(s), "
            f"{len(certificate.violations)} violation(s)"
        )
    sizes = solution.partition.region_sizes()
    if sizes:
        lines.append(
            f"  region sizes: min {min(sizes)}, max {max(sizes)}, "
            f"mean {sum(sizes) / len(sizes):.1f}"
        )
    if solution.provenance:
        lines.append(
            f"  decomposed solve: {len(solution.provenance)} connected "
            "component(s)"
        )
        for entry in solution.provenance:
            lines.append(
                f"    component {entry.index}: {entry.n_areas} area(s) -> "
                f"{entry.p} region(s), {entry.n_unassigned} unassigned, "
                f"status {entry.status} ({entry.seconds:.3f}s)"
            )
    if solution.preflight is not None:
        for finding in solution.preflight.warnings:
            lines.append(
                f"  preflight [{finding.code}]: {finding.message}"
            )
    for warning in solution.feasibility.warnings:
        lines.append(f"  warning: {warning}")
    return "\n".join(lines)
