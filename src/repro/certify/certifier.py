"""Cache-free, first-principles certification of EMP answers.

The solver's hot phases lean on incremental machinery — the contiguity
oracle, streaming :class:`~repro.core.aggregates.AggregateState`
updates, maintained sorted-objective structures. A bug in any of them
could return a partition that *looks* feasible to the code that built
it. This module is the independent auditor: it accepts a finished
partition and re-derives every claim from the raw inputs only:

- **coverage** — every area of the collection appears in exactly one
  region or in ``U_0`` (exclusivity itself is enforced structurally by
  :class:`~repro.core.partition.Partition`);
- **contiguity** — a fresh breadth-first search per region over the raw
  adjacency (never the :class:`~repro.core.region.Region` oracle);
- **constraints** — every ``(f, s, l, u)`` enriched constraint
  re-evaluated per region from freshly streamed attribute values
  (never a cached :class:`~repro.core.aggregates.AggregateState`);
- **objective** — heterogeneity recomputed from scratch (no
  maintained sorted structure, no incremental deltas) and compared
  against the
  solver's claimed value within a small float tolerance — incremental
  ``h += delta`` accumulation legitimately drifts by rounding, which
  is not a defect; a *structural* mismatch is.

Constraint and contiguity checks are exact — the certifier *is* the
ground truth for feasibility. Only the objective claim uses a
tolerance, and only because two mathematically identical summation
orders differ in floating point.

Wired into the solver via ``FaCTConfig.certify``:

- ``"off"`` — never certify (default);
- ``"final"`` — certify the final partition of every solve;
- ``"paranoid"`` — additionally certify each phase boundary
  (post-construction) and every degraded or interrupted return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.aggregates import Aggregate
from ..core.area import AreaCollection
from ..core.constraints import Constraint, ConstraintSet
from ..core.heterogeneity import pairwise_absolute_deviation
from ..core.partition import Partition
from ..exceptions import CertificationError

__all__ = [
    "Certificate",
    "Violation",
    "certify_partition",
    "certify_solution",
]

# Relative/absolute tolerance for the *objective claim* comparison only
# (see module docstring); feasibility checks never use a tolerance.
_OBJECTIVE_REL_TOL = 1e-6
_OBJECTIVE_ABS_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One defect found by the certifier.

    Attributes
    ----------
    kind:
        ``"coverage"``, ``"contiguity"``, ``"constraint"`` or
        ``"objective"``.
    region:
        Region index the defect is localized to, or ``None`` for
        partition-level defects (coverage holes, objective mismatch).
    constraint:
        ``str(constraint)`` for constraint violations, else ``None``.
    detail:
        Human-readable description.
    value:
        The freshly computed value that breached (aggregate value,
        recomputed heterogeneity), when meaningful.
    """

    kind: str
    detail: str
    region: int | None = None
    constraint: str | None = None
    value: float | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "region": self.region,
            "constraint": self.constraint,
            "value": self.value,
        }


@dataclass(frozen=True)
class Certificate:
    """The structured outcome of one certification pass.

    ``valid`` is True iff no violation was found. The certificate also
    restates what was checked (regions, constraints) and the freshly
    recomputed objective, so it can be persisted as evidence alongside
    the answer it vouches for. For decomposed (per-connected-component)
    solves, ``provenance`` records which component produced which
    regions — plain dicts shaped like
    :meth:`repro.fact.solver.ComponentProvenance.as_dict`; empty for
    ordinary solves.
    """

    valid: bool
    p: int
    n_unassigned: int
    heterogeneity: float
    claimed_heterogeneity: float | None
    checked_regions: int
    checked_constraints: int
    violations: tuple[Violation, ...] = ()
    label: str = "final"
    provenance: tuple[dict, ...] = ()

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable view (the CI chaos job archives these)."""
        payload = {
            "format": "repro-certificate/1",
            "label": self.label,
            "valid": self.valid,
            "p": self.p,
            "n_unassigned": self.n_unassigned,
            "heterogeneity": self.heterogeneity,
            "claimed_heterogeneity": self.claimed_heterogeneity,
            "checked_regions": self.checked_regions,
            "checked_constraints": self.checked_constraints,
            "violations": [v.as_dict() for v in self.violations],
        }
        if self.provenance:
            payload["provenance"] = [dict(p) for p in self.provenance]
        return payload

    def raise_if_invalid(self) -> "Certificate":
        """Raise :class:`~repro.exceptions.CertificationError` unless
        valid; returns self so calls chain."""
        if not self.valid:
            preview = "; ".join(v.detail for v in self.violations[:3])
            raise CertificationError(
                f"certification {self.label!r} failed with "
                f"{len(self.violations)} violation(s): {preview}",
                certificate=self,
            )
        return self


# ----------------------------------------------------------------------
# first-principles primitives (deliberately reimplemented: the whole
# point is sharing nothing with the incremental hot path)
# ----------------------------------------------------------------------

def _bfs_connected(collection: AreaCollection, members: frozenset[int]) -> bool:
    """Fresh BFS over the raw adjacency restricted to *members*."""
    start = next(iter(members))
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbor in collection.neighbors(current):
            if neighbor in members and neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(members)


def _fresh_aggregate(
    collection: AreaCollection, members: frozenset[int], constraint: Constraint
) -> float:
    """Stream the constraint's aggregate over *members* from raw
    attribute values."""
    if constraint.aggregate == Aggregate.COUNT:
        return float(len(members))
    values = [
        collection.attribute(area_id, constraint.attribute)
        for area_id in members
    ]
    if constraint.aggregate == Aggregate.MIN:
        return min(values)
    if constraint.aggregate == Aggregate.MAX:
        return max(values)
    total = math.fsum(values)
    if constraint.aggregate == Aggregate.SUM:
        return total
    return total / len(values)  # AVG; members is never empty


def _fresh_heterogeneity(
    collection: AreaCollection, regions: tuple[frozenset[int], ...]
) -> float:
    """``H(P)`` recomputed from scratch, region by region."""
    return math.fsum(
        pairwise_absolute_deviation(
            collection.dissimilarity(area_id) for area_id in region
        )
        for region in regions
    )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def certify_partition(
    partition: Partition,
    collection: AreaCollection,
    constraints: ConstraintSet | None = None,
    claimed_heterogeneity: float | None = None,
    label: str = "final",
    allow_uncovered: frozenset[int] | None = None,
    provenance: tuple = (),
) -> Certificate:
    """Certify *partition* against *collection* from first principles.

    Parameters
    ----------
    claimed_heterogeneity:
        The solver's reported objective. Checked (within a small float
        tolerance) against the fresh recomputation when given.
    label:
        Free-form tag naming the certified boundary (``"final"``,
        ``"construction"``, ``"interrupted"`` …), recorded on the
        certificate.
    allow_uncovered:
        Area ids that may legitimately be absent from the partition —
        the feasibility phase's filtered invalid areas live in ``U_0``,
        but a *partial* best-so-far snapshot (interrupted run) may not
        have reached every area yet.
    provenance:
        Per-component provenance dicts of a decomposed solve, recorded
        verbatim on the certificate (the certifier itself re-validates
        every region the same way regardless of origin).

    Returns a :class:`Certificate`; never raises for an invalid
    partition (call :meth:`Certificate.raise_if_invalid` to escalate).
    """
    violations: list[Violation] = []

    # -- coverage ------------------------------------------------------
    covered = partition.all_areas
    missing = set(collection.ids) - covered - set(allow_uncovered or ())
    if missing:
        violations.append(
            Violation(
                kind="coverage",
                detail=(
                    f"{len(missing)} area(s) neither assigned nor in U_0 "
                    f"(e.g. {sorted(missing)[:5]})"
                ),
            )
        )
    unknown = covered - set(collection.ids)
    if unknown:
        violations.append(
            Violation(
                kind="coverage",
                detail=(
                    f"{len(unknown)} partition area(s) unknown to the "
                    f"collection (e.g. {sorted(unknown)[:5]})"
                ),
            )
        )

    # -- contiguity (fresh BFS per region) -----------------------------
    checkable = [
        (index, region)
        for index, region in enumerate(partition.regions)
        if not (region - set(collection.ids))
    ]
    for index, region in checkable:
        if not _bfs_connected(collection, region):
            violations.append(
                Violation(
                    kind="contiguity",
                    region=index,
                    detail=f"region {index} is not connected (BFS)",
                )
            )

    # -- enriched constraints (fresh streaming aggregates) -------------
    checked_constraints = 0
    if constraints is not None:
        for index, region in checkable:
            for constraint in constraints:
                checked_constraints += 1
                value = _fresh_aggregate(collection, region, constraint)
                if not constraint.contains(value):
                    violations.append(
                        Violation(
                            kind="constraint",
                            region=index,
                            constraint=str(constraint),
                            value=value,
                            detail=(
                                f"region {index} violates {constraint} "
                                f"(fresh value {value:g})"
                            ),
                        )
                    )

    # -- objective (fresh recomputation, tolerance for the claim) ------
    # Only checkable regions contribute: a region with unknown areas
    # has no dissimilarity values to sum (it is already a coverage
    # violation), and a partial recomputation cannot be compared
    # against the claim, so the claim check is skipped in that case.
    heterogeneity = _fresh_heterogeneity(
        collection, tuple(region for _, region in checkable)
    )
    if len(checkable) < len(partition.regions):
        claimed_heterogeneity = None
    if claimed_heterogeneity is not None and not math.isclose(
        heterogeneity,
        claimed_heterogeneity,
        rel_tol=_OBJECTIVE_REL_TOL,
        abs_tol=_OBJECTIVE_ABS_TOL,
    ):
        violations.append(
            Violation(
                kind="objective",
                value=heterogeneity,
                detail=(
                    f"claimed heterogeneity {claimed_heterogeneity!r} != "
                    f"fresh recomputation {heterogeneity!r}"
                ),
            )
        )

    return Certificate(
        valid=not violations,
        p=partition.p,
        n_unassigned=len(partition.unassigned),
        heterogeneity=heterogeneity,
        claimed_heterogeneity=claimed_heterogeneity,
        checked_regions=len(partition.regions),
        checked_constraints=checked_constraints,
        violations=tuple(violations),
        label=label,
        provenance=tuple(provenance),
    )


def certify_solution(
    solution,
    collection: AreaCollection,
    constraints: ConstraintSet | None = None,
    label: str = "final",
    check_objective: bool = True,
) -> Certificate:
    """Certify an :class:`~repro.fact.solver.EMPSolution`.

    Extracts the final partition and — when *check_objective* and the
    solution was scored by the default heterogeneity objective — the
    claimed objective value. Pass ``check_objective=False`` for runs
    under a custom :mod:`repro.fact.objectives` objective, whose score
    is not ``H(P)``.
    """
    claimed = solution.heterogeneity if check_objective else None
    return certify_partition(
        solution.partition,
        collection,
        constraints=constraints,
        claimed_heterogeneity=claimed,
        label=label,
    )
