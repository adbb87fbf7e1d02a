"""Pluggable optimization objectives for the local-search phase.

Definition III.3 fixes the default objective — pairwise-absolute-
deviation heterogeneity — but the paper explicitly notes that "our
work can support alternative definitions, such as improving spatial
compactness or balancing multiple criteria. The reason is that our
second phase, which is based on Tabu search […], can deal with
different optimization functions." This module delivers that claim:

- :class:`HeterogeneityObjective` — the default ``H(P)``;
- :class:`CompactnessObjective` — within-region centroid dispersion
  (the moment-of-inertia compactness proxy used in the p-compact-
  regions literature);
- :class:`WeightedObjective` — a weighted sum balancing several
  criteria.

Every objective scores a region in isolation (the total is the sum
over regions) and must price a prospective move in O(1)–O(log g) so
the Tabu scan stays fast. The Tabu phase itself only sees the
:class:`Objective` interface.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Sequence

from ..core.region import Region
from ..exceptions import DatasetError
from .state import SolutionState

__all__ = [
    "Objective",
    "HeterogeneityObjective",
    "CompactnessObjective",
    "WeightedObjective",
]


class Objective(ABC):
    """Interface between the Tabu phase and an optimization function.

    Lifecycle: :meth:`attach` is called once with the solution state;
    :meth:`delta_move` prices a prospective move; :meth:`apply_move`
    is called after the state mutation so the objective can update any
    internal caches. :meth:`total` returns the current overall score
    (lower is better).
    """

    name = "objective"

    @abstractmethod
    def attach(self, state: SolutionState) -> None:
        """Bind to a solution state and build per-region caches."""

    @abstractmethod
    def total(self) -> float:
        """Current overall score (lower is better)."""

    @abstractmethod
    def delta_move(self, donor: Region, receiver: Region, area_id: int) -> float:
        """Score change if *area_id* moved from *donor* to *receiver*."""

    def apply_move(self, donor_id: int, receiver_id: int, area_id: int) -> None:
        """Update caches after the move was executed (default: none)."""

    # Attach-time state (``_state`` plus any per-region caches) must
    # never travel to worker processes: it drags the whole solution
    # state through pickle. Portfolio workers receive a detached copy
    # and call :meth:`attach` on their own rebuilt state.
    _ATTACH_ATTRS: tuple[str, ...] = ("_state",)

    def detached(self) -> "Objective":
        """A copy of this objective with all attach-time state dropped.

        The copy is safe to pickle into a worker process; it must be
        re-:meth:`attach`-ed before use.
        """
        clone = copy.copy(self)
        for attr in self._ATTACH_ATTRS:
            clone.__dict__.pop(attr, None)
        return clone


class HeterogeneityObjective(Objective):
    """The paper's default objective: ``H(P)`` (Definition III.3).

    Stateless — regions already maintain their own heterogeneity
    incrementally, including O(log g) delta queries off the maintained
    sorted-values + prefix-sums structure (``delta_fastpath`` /
    ``delta_recompute`` in :class:`~repro.core.perf.PerfCounters`
    record which path served each query).
    """

    name = "heterogeneity"

    def attach(self, state: SolutionState) -> None:
        self._state = state

    def total(self) -> float:
        return self._state.total_heterogeneity()

    def delta_move(self, donor: Region, receiver: Region, area_id: int) -> float:
        return donor.heterogeneity_delta_remove(
            area_id
        ) + receiver.heterogeneity_delta_add(area_id)


class CompactnessObjective(Objective):
    """Spatial compactness: within-region centroid dispersion.

    Region score = ``sum_i ||c_i - mean_c||²`` over member-area
    centroids — the moment-of-inertia measure minimized by the
    p-compact-regions family. Maintained per region as running sums
    (Σx, Σy, Σx², Σy², g), giving O(1) totals and move deltas. The
    running sums agree with sums re-derived from the live membership
    only to float accumulation order (moves add and subtract terms a
    fresh pass re-sums), so checks against such a recompute belong at
    ``pytest.approx`` tolerance.

    Requires every area to carry a polygon (centroids come from the
    geometry); raises :class:`DatasetError` otherwise.
    """

    name = "compactness"

    _ATTACH_ATTRS = ("_state", "_centroids", "_sums")

    def attach(self, state: SolutionState) -> None:
        self._state = state
        self._centroids: dict[int, tuple[float, float]] = {}
        for area in state.collection:
            if area.polygon is None:
                raise DatasetError(
                    f"area {area.area_id} has no polygon; the compactness "
                    "objective needs centroids"
                )
            centroid = area.polygon.centroid
            self._centroids[area.area_id] = (centroid.x, centroid.y)
        self._sums: dict[int, list[float]] = {}
        for region in state.iter_regions():
            # Sorted member order keeps the accumulated sums identical
            # across processes (portfolio workers rebuild their own).
            self._sums[region.region_id] = self._sums_of(
                sorted(region.area_ids)
            )

    def _sums_of(self, area_ids) -> list[float]:
        sx = sy = sxx = syy = 0.0
        count = 0
        for area_id in area_ids:
            x, y = self._centroids[area_id]
            sx += x
            sy += y
            sxx += x * x
            syy += y * y
            count += 1
        return [sx, sy, sxx, syy, float(count)]

    def _region_sums(self, region: Region) -> list[float]:
        """The region's maintained sums."""
        perf = self._state.perf
        sums = self._sums.get(region.region_id)
        if sums is None:
            # A region created after attach (construction-time use of
            # the objective) enters the maintained map lazily, summed in
            # sorted member order for determinism.
            sums = self._sums[region.region_id] = self._sums_of(
                sorted(region.area_ids)
            )
            if perf is not None:
                perf.delta_recompute += 1
        elif perf is not None:
            perf.delta_fastpath += 1
        return sums

    @staticmethod
    def _score(sums: Sequence[float]) -> float:
        sx, sy, sxx, syy, count = sums
        if count <= 0:
            return 0.0
        return (sxx - sx * sx / count) + (syy - sy * sy / count)

    def total(self) -> float:
        return sum(
            self._score(self._region_sums(region))
            for region in self._state.iter_regions()
        )

    def _score_after(self, sums, x, y, sign) -> float:
        sx, sy, sxx, syy, count = sums
        return self._score(
            [
                sx + sign * x,
                sy + sign * y,
                sxx + sign * x * x,
                syy + sign * y * y,
                count + sign,
            ]
        )

    def delta_move(self, donor: Region, receiver: Region, area_id: int) -> float:
        x, y = self._centroids[area_id]
        donor_sums = self._region_sums(donor)
        receiver_sums = self._region_sums(receiver)
        return (
            self._score_after(donor_sums, x, y, -1)
            - self._score(donor_sums)
            + self._score_after(receiver_sums, x, y, +1)
            - self._score(receiver_sums)
        )

    def apply_move(self, donor_id: int, receiver_id: int, area_id: int) -> None:
        x, y = self._centroids[area_id]
        perf = self._state.perf
        for region_id, sign in ((donor_id, -1), (receiver_id, +1)):
            sums = self._sums.get(region_id)
            if sums is None:
                continue  # not materialized yet; built fresh when queried
            sums[0] += sign * x
            sums[1] += sign * y
            sums[2] += sign * x * x
            sums[3] += sign * y * y
            sums[4] += sign
            if perf is not None:
                perf.objective_struct_updates += 1


class WeightedObjective(Objective):
    """A weighted sum of objectives — "balancing multiple criteria".

    ``WeightedObjective([(HeterogeneityObjective(), 1.0),
    (CompactnessObjective(), 0.5)])`` optimizes
    ``H(P) + 0.5 · compactness``. Because the component scales can
    differ wildly, each component is normalized by its score on the
    initial partition (so weights express *relative* emphasis).
    """

    name = "weighted"

    def __init__(self, components: Sequence[tuple[Objective, float]]):
        if not components:
            raise DatasetError("WeightedObjective needs at least one component")
        self._components = list(components)
        self._scales: list[float] = []

    def attach(self, state: SolutionState) -> None:
        self._scales = []
        for objective, _weight in self._components:
            objective.attach(state)
            initial = objective.total()
            self._scales.append(initial if initial > 0 else 1.0)

    def total(self) -> float:
        return sum(
            weight * objective.total() / scale
            for (objective, weight), scale in zip(self._components, self._scales)
        )

    def delta_move(self, donor: Region, receiver: Region, area_id: int) -> float:
        return sum(
            weight * objective.delta_move(donor, receiver, area_id) / scale
            for (objective, weight), scale in zip(self._components, self._scales)
        )

    def apply_move(self, donor_id: int, receiver_id: int, area_id: int) -> None:
        for objective, _weight in self._components:
            objective.apply_move(donor_id, receiver_id, area_id)

    def detached(self) -> "WeightedObjective":
        return WeightedObjective(
            [
                (objective.detached(), weight)
                for objective, weight in self._components
            ]
        )
