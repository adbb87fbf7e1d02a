"""FaCT Step 2 — Region Growing (Section V-B, Algorithm 1).

Grows regions that satisfy the AVG (centrality) constraints without
violating the extrema constraints, in three substeps:

- **Substep 2.1** — seed areas whose value lies inside the AVG range
  become singleton regions (maximizing the region count); seed areas
  below/above the range are grown into valid regions by repeatedly
  absorbing unassigned neighbors from the *opposite* extreme, which
  pulls the running average toward the range (Algorithm 1). A seed
  that cannot reach the range reverts to unassigned.
- **Substep 2.2** — remaining unassigned areas are assigned in two
  rounds. Round 1 adds areas to adjacent regions whenever the region
  stays valid, repeating passes until a fixpoint ("the enclave
  assignment process continues for multiple iterations until no
  further update can be made"). Round 2 handles stubborn areas by
  merging an adjacent region with one of *its* neighbor regions so the
  combined region can absorb the area; the number of merge trials per
  area is capped by ``FaCTConfig.merge_limit`` to prevent oversized
  regions.
- **Substep 2.3** — regions grown from a single extrema constraint's
  seed may not satisfy the *other* extrema constraints, so deficient
  regions are merged with adjacent regions until every region
  satisfies all MIN/MAX constraints. (Merging cannot break AVG: the
  average of a union lies between the two averages. Merging cannot
  break extrema either: invalid areas were filtered, so a union
  satisfies an extrema constraint iff either part does.)

With no AVG constraint, every seed becomes a singleton region and
Round 1 sweeps all remaining areas into adjacent regions (Section
V-D).
"""

from __future__ import annotations

import random
from typing import Sequence

from ..core.constraints import Constraint, ConstraintSet
from ..core.region import Region
from ..obs.spans import NULL_TRACER
from .config import FaCTConfig, PickupCriterion
from .seeding import SeedingResult
from .state import SolutionState

__all__ = ["grow_regions"]

_CLASS_AVG = "avg"
_CLASS_LOW = "low"
_CLASS_HIGH = "high"
_CLASS_BY_CODE = (_CLASS_AVG, _CLASS_LOW, _CLASS_HIGH)

# Below this many candidates the numpy gather's fixed overhead beats
# the scalar loop it replaces (same calibration story as
# ``repro.fact.tabu._VECTOR_MIN_DONOR``). Purely a dispatch heuristic:
# both paths decide identically, and the parity tests monkeypatch it
# to 0 or past any batch to force one path throughout.
_VECTOR_MIN_BATCH = 16


def grow_regions(
    state: SolutionState,
    seeding: SeedingResult,
    config: FaCTConfig,
    rng: random.Random,
    budget=None,
    tracer=None,
) -> None:
    """Run Step 2 over *state* (all areas initially unassigned).

    *budget* is an optional :class:`repro.runtime.Budget` checked at
    every seed (Substep 2.1) and every enclave sweep (Substep 2.2); an
    exhausted budget raises :class:`repro.runtime.Interrupted`, leaving
    the state to the caller, which dissolves any half-grown (invalid)
    regions before using it.

    *tracer* is an optional :class:`repro.obs.Tracer`; each substep
    becomes a span (``grow`` / ``enclave`` / ``extrema``) carrying the
    state shape it left behind — the same numbers
    :func:`repro.fact.trace.trace_solve` snapshots per step.
    """
    if tracer is None:
        tracer = NULL_TRACER
    avgs = state.constraints.avgs
    classes = _AvgClasses(state, avgs)
    with tracer.span("grow") as span:
        _initialize_from_seeds(state, seeding, classes, config, rng, budget)
        _set_state_attrs(span, state)
    with tracer.span("enclave") as span:
        _assign_enclaves(state, classes, config, rng, budget)
        _set_state_attrs(span, state)
    with tracer.span("extrema") as span:
        _combine_for_extrema(state)
        _set_state_attrs(span, state)


def _set_state_attrs(span, state: SolutionState) -> None:
    """Attach the partition shape to a substep span (recording only).

    ``total_heterogeneity`` walks every region, so it is additionally
    gated on the span's verbosity: the default *detailed* tracer
    (verbosity 2) records it, a *shape-only* tracer (verbosity 1, e.g.
    ``REPRO_TRACE_VERBOSITY=1``) keeps the cheap partition counts and
    skips the objective sweep."""
    if span.recording:
        span.set(p=state.p, n_unassigned=state.n_unassigned)
        if span.verbosity >= 2:
            span.set(heterogeneity=state.total_heterogeneity())


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def _classify_area(
    state: SolutionState, area_id: int, avgs: Sequence[Constraint]
) -> str:
    """Classify one area against the AVG constraints.

    ``avg``: inside every AVG range (safe to add anywhere); ``low``/
    ``high``: outside the first violated constraint's range, on the
    named side. With no AVG constraints every area is ``avg``.
    """
    attributes = state.collection.area(area_id).attributes
    for c in avgs:
        value = attributes[c.attribute]
        if value < c.lower:
            return _CLASS_LOW
        if value > c.upper:
            return _CLASS_HIGH
    return _CLASS_AVG


class _AvgClasses:
    """Area → AVG-range class, batch-precomputed off the array mirror.

    An area's class depends only on its own attributes and the
    constraint bounds — never on solver state — so the vector path
    classifies the whole collection once up front: one comparison
    sweep per AVG constraint over the attribute columns, with an
    *undecided* mask replicating the scalar loop's
    first-violated-constraint ordering (a later constraint never
    overrides an earlier verdict). Lookups are then O(1). Collections
    below ``_VECTOR_MIN_BATCH`` areas defer to :func:`_classify_area`
    per query instead; both paths compare the same float64 values, so
    every verdict is identical.
    """

    __slots__ = ("_state", "_avgs", "_codes", "_index")

    def __init__(self, state: SolutionState, avgs: Sequence[Constraint]):
        self._state = state
        self._avgs = avgs
        self._codes = None
        self._index = None
        arrays = state.array_state.arrays
        if not avgs or len(arrays) < _VECTOR_MIN_BATCH:
            return
        np = arrays.np
        n = len(arrays.index)
        codes = np.zeros(n, dtype=np.int8)
        undecided = np.ones(n, dtype=bool)
        for c in avgs:
            column = arrays.attributes[c.attribute]
            low = undecided & (column < c.lower)
            # ``& ~low`` mirrors the scalar elif: below-range wins when
            # a degenerate bound pair admits both verdicts.
            high = undecided & (column > c.upper) & ~low
            codes[low] = 1
            codes[high] = 2
            undecided &= ~(low | high)
            if not undecided.any():
                break
        self._codes = codes
        self._index = arrays.index

    @property
    def avgs(self) -> Sequence[Constraint]:
        return self._avgs

    def classify(self, area_id: int) -> str:
        if self._codes is None:
            return _classify_area(self._state, area_id, self._avgs)
        return _CLASS_BY_CODE[self._codes[self._index[area_id]]]


def _pick(
    candidates: list, config: FaCTConfig, rng: random.Random, key=None
):
    """Choose one candidate per the configured pickup criterion."""
    if len(candidates) == 1:
        return candidates[0]
    if config.pickup == PickupCriterion.RANDOM or key is None:
        return rng.choice(candidates)
    return min(candidates, key=key)


# ----------------------------------------------------------------------
# Substep 2.1 — region initialization from seeds
# ----------------------------------------------------------------------

def _initialize_from_seeds(
    state: SolutionState,
    seeding: SeedingResult,
    classes: _AvgClasses,
    config: FaCTConfig,
    rng: random.Random,
    budget=None,
) -> None:
    # Sorted before the shuffle: the seeding result crosses process
    # boundaries on the parallel path, and a pickle round trip may
    # reorder frozenset iteration — the shuffle must start from the
    # same sequence everywhere for pass results to be reproducible.
    seeds = [a for a in sorted(seeding.seeds) if state.is_unassigned(a)]
    rng.shuffle(seeds)
    off_range: list[int] = []
    for area_id in seeds:
        if budget is not None:
            budget.checkpoint("construction.grow.seed")
        if classes.classify(area_id) == _CLASS_AVG:
            # In-range seeds each become their own region, maximizing p.
            state.new_region([area_id])
        else:
            off_range.append(area_id)
    _merge_off_range_seeds(state, off_range, classes.avgs, config, rng, budget)


def _merge_off_range_seeds(
    state: SolutionState,
    off_range: list[int],
    avgs: Sequence[Constraint],
    config: FaCTConfig,
    rng: random.Random,
    budget=None,
) -> None:
    """Algorithm 1 — grow each off-range seed into a valid region by
    absorbing unassigned opposite-extreme neighbors."""
    arrays = state.array_state.arrays
    for seed_id in off_range:
        if budget is not None:
            budget.checkpoint("construction.grow.seed")
        if not state.is_unassigned(seed_id):
            continue
        region = state.new_region([seed_id])
        while True:
            violated = _first_violated_avg(region, avgs)
            if violated is None:
                break  # region satisfies every AVG constraint — commit
            candidates = _opposite_extreme_neighbors(
                state, region, violated, arrays
            )
            if not candidates:
                state.dissolve_region(region)
                break
            choice = _pick_growth_area(region, candidates, config, rng, arrays)
            state.assign(choice, region)


def _pick_growth_area(
    region: Region,
    candidates: list[int],
    config: FaCTConfig,
    rng: random.Random,
    arrays,
):
    """:func:`_pick` for area candidates priced against one region.

    Under BEST pickup the vector path prices the whole candidate batch
    in one ``searchsorted`` sweep off the region's maintained
    sorted/prefix structure — the same closed form (and the same
    float64 operation order) as the scalar
    ``Region.heterogeneity_delta_add``, so the argmin picks the same
    area ``min`` would (both take the first minimum). RANDOM pickup
    consumes ``rng.choice`` on the identical candidate list either
    way.
    """
    if len(candidates) == 1:
        return candidates[0]
    if config.pickup == PickupCriterion.RANDOM:
        return rng.choice(candidates)
    if len(candidates) >= _VECTOR_MIN_BATCH:
        np = arrays.np
        d = arrays.dissimilarity[arrays.positions(candidates)]
        values, prefix = region._struct_arrays(np)
        k = values.searchsorted(d, side="left")
        below_sum = prefix[k]
        above_sum = prefix[-1] - below_sum
        deltas = (d * k - below_sum) + (above_sum - d * (len(values) - k))
        perf = region.perf
        if perf is not None:
            perf.delta_fastpath += len(candidates)
        return candidates[int(deltas.argmin())]
    return min(candidates, key=lambda a: region.heterogeneity_delta_add(a))


def _first_violated_avg(
    region: Region, avgs: Sequence[Constraint]
) -> Constraint | None:
    for c in avgs:
        if not region.satisfies(c):
            return c
    return None


def _opposite_extreme_neighbors(
    state: SolutionState,
    region: Region,
    violated: Constraint,
    arrays,
) -> list[int]:
    """Unassigned neighbors whose value lies beyond the *opposite*
    bound of the violated AVG constraint (Algorithm 1, line 18).

    The vector path masks one attribute gather over the (sorted)
    frontier instead of looping; filtering preserves the frontier
    order, and both paths compare the same float64 values, so the
    candidate list — and with it RNG consumption — is identical.
    """
    running_average = region.constraint_value(violated)
    below = running_average < violated.lower
    frontier = state.unassigned_neighbors(region)
    if len(frontier) >= _VECTOR_MIN_BATCH:
        np = arrays.np
        values = arrays.attributes[violated.attribute][
            arrays.positions(frontier)
        ]
        mask = values > violated.upper if below else values < violated.lower
        return [frontier[i] for i in np.nonzero(mask)[0].tolist()]
    result = []
    for area_id in frontier:
        value = state.collection.attribute(area_id, violated.attribute)
        if below and value > violated.upper:
            result.append(area_id)
        elif not below and value < violated.lower:
            result.append(area_id)
    return result


# ----------------------------------------------------------------------
# Substep 2.2 — enclave assignment (two rounds, to a fixpoint)
# ----------------------------------------------------------------------

def _assign_enclaves(
    state: SolutionState,
    classes: _AvgClasses,
    config: FaCTConfig,
    rng: random.Random,
    budget=None,
) -> None:
    avgs = classes.avgs
    while True:
        _assignment_round(state, classes, config, rng, budget)
        if not avgs:
            return  # round 2 exists only to rescue AVG-blocked areas
        if not _merging_round(state, avgs, config, rng):
            return


def _assignment_round(
    state: SolutionState,
    classes: _AvgClasses,
    config: FaCTConfig,
    rng: random.Random,
    budget=None,
) -> None:
    """Round 1: sweep unassigned areas into adjacent regions until no
    pass makes an update."""
    avgs = classes.avgs
    changed = True
    while changed:
        if budget is not None:
            budget.checkpoint("construction.grow.enclave")
        changed = False
        pending = list(state.unassigned)
        rng.shuffle(pending)
        for area_id in pending:
            if not state.is_unassigned(area_id):
                continue
            neighbor_regions = state.neighbor_regions(area_id)
            if not neighbor_regions:
                continue
            if classes.classify(area_id) == _CLASS_AVG:
                candidates = neighbor_regions
            else:
                candidates = [
                    region
                    for region in neighbor_regions
                    if region.satisfies_after_add(avgs, area_id)
                ]
            if not candidates:
                continue
            target = _pick(
                candidates,
                config,
                rng,
                key=lambda r: r.heterogeneity_delta_add(area_id),
            )
            state.assign(area_id, target)
            changed = True


def _merging_round(
    state: SolutionState,
    avgs: Sequence[Constraint],
    config: FaCTConfig,
    rng: random.Random,
) -> bool:
    """Round 2: rescue remaining areas by merging adjacent regions.

    For an unassigned area ``a`` and an adjacent region ``R``, try
    merging ``R`` with one of R's neighbor regions so the union (plus
    ``a``) satisfies the AVG constraints. Each tested merge counts one
    trial against ``config.merge_limit``. Returns True when anything
    was assigned (the caller then re-runs Round 1, since a new
    assignment can unlock further ones).
    """
    changed = False
    pending = list(state.unassigned)
    rng.shuffle(pending)
    for area_id in pending:
        if not state.is_unassigned(area_id):
            continue
        trials = 0
        placed = False
        for region in state.neighbor_regions(area_id):
            if placed or trials >= config.merge_limit:
                break
            for other in state.adjacent_regions(region):
                if trials >= config.merge_limit:
                    break
                trials += 1
                if _union_with_area_satisfies(region, other, area_id, avgs):
                    merged = state.merge_regions(region, other)
                    state.assign(area_id, merged)
                    changed = True
                    placed = True
                    break
    return changed


def _union_with_area_satisfies(
    region: Region,
    other: Region,
    area_id: int,
    avgs: Sequence[Constraint],
) -> bool:
    """Would ``region ∪ other ∪ {area}`` satisfy every AVG constraint?

    Computed arithmetically from the two regions' maintained sums, so
    the trial costs O(#AVG constraints) and no region is mutated.
    """
    collection = region.collection
    combined_count = len(region) + len(other) + 1
    for c in avgs:
        attribute = c.attribute
        combined_sum = (
            region.aggregate("SUM", attribute)
            + other.aggregate("SUM", attribute)
            + collection.attribute(area_id, attribute)
        )
        if not c.contains(combined_sum / combined_count):
            return False
    return True


# ----------------------------------------------------------------------
# Substep 2.3 — combine regions to satisfy all extrema constraints
# ----------------------------------------------------------------------

def _combine_for_extrema(state: SolutionState) -> None:
    """Merge regions until every region satisfies all MIN/MAX
    constraints, where possible.

    A union satisfies an extrema constraint iff either part does (all
    invalid areas were filtered out beforehand), so a deficient region
    merges with any adjacent region that covers its missing
    constraints — including another deficient region covering the
    complementary subset. Regions that cannot be repaired are left for
    the finalization pass to dissolve.
    """
    extrema = state.constraints.extrema
    if not extrema:
        return
    changed = True
    while changed:
        changed = False
        for region_id in list(state.regions):
            region = state.regions.get(region_id)
            if region is None:
                continue  # absorbed by an earlier merge this sweep
            missing = [c for c in extrema if not region.satisfies(c)]
            if not missing:
                continue
            for other in state.adjacent_regions(region):
                if all(other.satisfies(c) for c in missing):
                    state.merge_regions(region, other)
                    changed = True
                    break
