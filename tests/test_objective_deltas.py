"""The incremental objective engine against its naive oracles.

Three layers of checks:

- **property suite** — randomized assign/move/merge/dissolve sequences
  on a solution state; after *every* mutation, every region's
  incrementally maintained heterogeneity and sorted-values structure
  must agree with the O(g²) naive recompute, and every delta query
  must price exactly what a recompute-after-the-move would;
- **reference equivalence** — the maintained-structure fast path must
  be *bit-identical*, not just approximately equal, to a from-scratch
  reference computed in the test (sort the member values, prefix-sum
  them with ``accumulate``, evaluate the same closed form): the
  maintained structure is an acceleration of exactly that arithmetic;
- **worker invariance** — a fixed seed must produce the identical
  partition at every ``n_jobs``, with and without the Tabu portfolio.
"""

from __future__ import annotations

import random

import pytest

from bisect import bisect_left
from itertools import accumulate

from repro.core import ConstraintSet, min_constraint, sum_constraint
from repro.core.heterogeneity import (
    pairwise_absolute_deviation,
    pairwise_absolute_deviation_naive,
)
from repro.fact import FaCT, FaCTConfig
from repro.fact.objectives import CompactnessObjective, HeterogeneityObjective
from repro.fact.state import SolutionState

from conftest import make_grid_collection


def _reference_abs_deviation_sum(values, d: float) -> float:
    """``sum_j |d - d_j|`` recomputed from scratch: sort, prefix-sum
    with ``accumulate``, evaluate the closed form around the bisection
    point — the arithmetic the maintained structure accelerates."""
    values = sorted(values)
    if not values:
        return 0.0
    prefix = list(accumulate(values, initial=0.0))
    k = bisect_left(values, d)
    below_sum = prefix[k]
    above_sum = prefix[-1] - below_sum
    return (d * k - below_sum) + (above_sum - d * (len(values) - k))


def _reference_heterogeneity(collection, insertions) -> float:
    """A region's heterogeneity accumulated like ``Region.add_area``
    does, each addition priced by the from-scratch reference."""
    values: list[float] = []
    total = 0.0
    for area_id in insertions:
        d = collection.dissimilarity(area_id)
        total += _reference_abs_deviation_sum(values, d)
        values.append(d)
    return total


def _random_world(seed: int, rows: int = 6, cols: int = 6):
    """A rook grid with random dissimilarity values (duplicates
    included, to exercise bisect ties in the sorted structure)."""
    rng = random.Random(seed)
    values = {
        area_id: float(rng.choice([1, 2, 2, 3, 5, 8, 8, 13, 21]))
        for area_id in range(1, rows * cols + 1)
    }
    return make_grid_collection(rows, cols, values=values)


def _check_all_regions(state: SolutionState) -> None:
    """Every region's maintained objective state vs the naive oracle."""
    for region in state.iter_regions():
        values = [
            state.collection.dissimilarity(a) for a in region.area_ids
        ]
        naive = pairwise_absolute_deviation_naive(values)
        assert region.heterogeneity == pytest.approx(naive, abs=1e-6)
        region.check_objective_structure()
        # Delta queries must price a recompute-after-mutation exactly.
        for area_id in sorted(region.area_ids):
            d = state.collection.dissimilarity(area_id)
            removed = [v for v in values]
            removed.remove(d)
            expected = pairwise_absolute_deviation_naive(removed) - naive
            assert region.heterogeneity_delta_remove(area_id) == pytest.approx(
                expected, abs=1e-6
            )
        outside = sorted(state.unassigned)[:3]
        for area_id in outside:
            d = state.collection.dissimilarity(area_id)
            expected = (
                pairwise_absolute_deviation_naive(values + [d]) - naive
            )
            assert region.heterogeneity_delta_add(area_id) == pytest.approx(
                expected, abs=1e-6
            )


def _random_mutations(state: SolutionState, rng: random.Random, steps: int):
    """Drive the state through a random mutation sequence, yielding
    after every step so the caller can assert invariants."""
    collection = state.collection
    for _ in range(steps):
        op = rng.random()
        regions = sorted(state.regions)
        if not regions or (op < 0.25 and state.n_unassigned):
            # Seed a new region from a random unassigned area.
            area_id = rng.choice(sorted(state.unassigned))
            state.new_region([area_id])
        elif op < 0.5 and state.n_unassigned:
            # Grow a random region by an adjacent unassigned area.
            region = state.regions[rng.choice(regions)]
            frontier = state.unassigned_neighbors(region)
            if frontier:
                state.assign(rng.choice(frontier), region)
        elif op < 0.7 and len(regions) >= 2:
            # Move a boundary area between adjacent regions.
            donor = state.regions[rng.choice(regions)]
            moved = False
            for area_id in sorted(donor.area_ids):
                if len(donor) <= 1:
                    break
                for neighbor in sorted(collection.neighbors(area_id)):
                    target_id = state.assignment.get(neighbor)
                    if target_id is not None and target_id != donor.region_id:
                        state.move(area_id, state.regions[target_id])
                        moved = True
                        break
                if moved:
                    break
        elif op < 0.85 and len(regions) >= 2:
            # Merge two adjacent regions.
            keep = state.regions[rng.choice(regions)]
            for other in state.adjacent_regions(keep):
                state.merge_regions(keep, other)
                break
        elif regions:
            # Dissolve a random region back to the unassigned pool.
            state.dissolve_region(state.regions[rng.choice(regions)])
        yield


class TestIncrementalHeterogeneity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_mutations_match_naive_oracle(self, seed):
        # check_indexes() also validates the flat-array mirror against
        # the object graph after every mutation.
        collection = _random_world(seed)
        state = SolutionState(collection, ConstraintSet())
        rng = random.Random(1000 + seed)
        for _ in _random_mutations(state, rng, steps=60):
            _check_all_regions(state)
            state.check_indexes()

    def test_reference_path_matches_naive_oracle(self):
        """The test's from-scratch reference — the oracle the maintained
        structure is held to bit for bit below — itself agrees with the
        O(g²) naive recompute on every region after every mutation."""
        collection = _random_world(9)
        state = SolutionState(collection, ConstraintSet())
        rng = random.Random(1009)
        for _ in _random_mutations(state, rng, steps=40):
            for region in state.iter_regions():
                values = [collection.dissimilarity(a) for a in region]
                naive = pairwise_absolute_deviation_naive(values)
                for area_id in sorted(region.area_ids):
                    d = collection.dissimilarity(area_id)
                    others = list(values)
                    others.remove(d)
                    assert -_reference_abs_deviation_sum(
                        values, d
                    ) == pytest.approx(
                        pairwise_absolute_deviation_naive(others) - naive,
                        abs=1e-6,
                    )

    def test_gate_paths_bit_identical(self):
        """The maintained path and the from-scratch reference agree to
        the last bit on every delta query of a mutation sequence —
        approximate equality is not enough, since solver decisions
        compare deltas exactly."""
        collection = _random_world(4)
        state = SolutionState(collection, ConstraintSet())
        rng = random.Random(77)
        outside_probes = 0
        for _ in _random_mutations(state, rng, steps=50):
            for region in state.iter_regions():
                values = [collection.dissimilarity(a) for a in region]
                for area_id in sorted(region.area_ids):
                    assert region.heterogeneity_delta_remove(
                        area_id
                    ) == -_reference_abs_deviation_sum(
                        values, collection.dissimilarity(area_id)
                    )
                for area_id in sorted(state.unassigned)[:3]:
                    outside_probes += 1
                    assert region.heterogeneity_delta_add(
                        area_id
                    ) == _reference_abs_deviation_sum(
                        values, collection.dissimilarity(area_id)
                    )
        assert outside_probes > 0
        # A region grown in one ascending sequence accumulates exactly
        # the reference's running total.
        fresh = SolutionState(collection, ConstraintSet())
        members = sorted(collection.ids)[:12]
        region = fresh.new_region(members)
        assert region.heterogeneity == _reference_heterogeneity(
            collection, members
        )

    def test_fastpath_counters_recorded(self):
        collection = _random_world(5)
        state = SolutionState(collection, ConstraintSet())
        region = state.new_region([1])
        for area_id in (2, 7):
            state.assign(area_id, region)
        region.heterogeneity_delta_add(8)
        region.heterogeneity_delta_add(3)
        assert state.perf.delta_fastpath >= 1
        assert state.perf.objective_struct_updates >= 2
        assert 0.0 <= state.perf.delta_fastpath_rate <= 1.0


class TestAssumeSorted:
    def test_matches_default_on_sorted_input(self):
        values = [1.0, 2.0, 2.0, 5.0, 9.0]
        assert pairwise_absolute_deviation(
            values, assume_sorted=True
        ) == pairwise_absolute_deviation(values)

    def test_matches_naive(self):
        rng = random.Random(3)
        values = sorted(rng.uniform(0, 100) for _ in range(40))
        assert pairwise_absolute_deviation(
            values, assume_sorted=True
        ) == pytest.approx(pairwise_absolute_deviation_naive(values))

    def test_region_sorted_structure_feeds_fast_path(self):
        collection = _random_world(6)
        state = SolutionState(collection, ConstraintSet())
        region = state.new_region([1, 2, 3, 8])
        values = region.sorted_dissimilarities()
        assert values == sorted(values)
        assert pairwise_absolute_deviation(
            values, assume_sorted=True
        ) == pytest.approx(region.heterogeneity, abs=1e-9)


def _compactness_from_membership(collection, regions) -> float:
    """Centroid dispersion summed afresh over each region's members."""
    total = 0.0
    for members in regions:
        points = [collection.area(a).polygon.centroid for a in members]
        mx = sum(point.x for point in points) / len(points)
        my = sum(point.y for point in points) / len(points)
        total += sum((point.x - mx) ** 2 for point in points)
        total += sum((point.y - my) ** 2 for point in points)
    return total


class TestCompactnessGate:
    def test_gate_paths_agree(self, small_census):
        """Compactness maintained sums vs sums re-derived from the live
        membership (approx: moves add and subtract terms a fresh pass
        re-sums in another order)."""
        constraints = ConstraintSet(
            [sum_constraint("TOTALPOP", lower=20000)]
        )
        config = FaCTConfig(rng_seed=3, construction_iterations=1)
        solution = FaCT(config, objective=CompactnessObjective()).solve(
            small_census, constraints
        )
        assert solution.tabu is not None and solution.tabu.moves_applied > 0
        assert solution.heterogeneity == pytest.approx(
            _compactness_from_membership(
                small_census, solution.partition.regions
            ),
            rel=1e-9,
        )
        # Drive the maintained sums through a long move sequence and
        # re-sum from membership after every move.
        state = SolutionState.from_labels(
            small_census, constraints, solution.partition.labels()
        )
        objective = CompactnessObjective()
        objective.attach(state)
        rng = random.Random(3)
        moves = 0
        for _ in range(120):
            donor = state.regions[rng.choice(sorted(state.regions))]
            if len(donor) <= 1:
                continue
            area_id = rng.choice(sorted(donor.area_ids))
            receivers = sorted(
                {
                    state.assignment[n]
                    for n in small_census.neighbors(area_id)
                    if state.assignment.get(n) not in (None, donor.region_id)
                }
            )
            if not receivers:
                continue
            receiver = state.regions[rng.choice(receivers)]
            predicted = objective.total() + objective.delta_move(
                donor, receiver, area_id
            )
            state.move(area_id, receiver)
            objective.apply_move(donor.region_id, receiver.region_id, area_id)
            moves += 1
            recomputed = _compactness_from_membership(
                small_census, (region.area_ids for region in state.iter_regions())
            )
            assert objective.total() == pytest.approx(recomputed, rel=1e-9)
            assert predicted == pytest.approx(recomputed, rel=1e-9)
        assert moves > 50


class TestWorkerInvariance:
    def _constraints(self):
        return ConstraintSet(
            [
                min_constraint("POP16UP", upper=3000),
                sum_constraint("TOTALPOP", lower=20000),
            ]
        )

    @pytest.mark.parametrize("portfolio", [1, 3])
    def test_partition_invariant_across_n_jobs(self, small_census, portfolio):
        partitions = []
        for n_jobs in (1, 2, 4):
            config = FaCTConfig(
                rng_seed=7,
                construction_iterations=4,
                n_jobs=n_jobs,
                tabu_portfolio=portfolio,
            )
            solution = FaCT(config).solve(small_census, self._constraints())
            partitions.append(solution.partition)
        assert partitions[0] == partitions[1] == partitions[2]

    def test_portfolio_never_worse_than_single(self, small_census):
        solutions = {}
        for portfolio in (1, 3):
            config = FaCTConfig(
                rng_seed=7,
                construction_iterations=2,
                tabu_portfolio=portfolio,
            )
            solutions[portfolio] = FaCT(config).solve(
                small_census, self._constraints()
            )
        assert solutions[3].p == solutions[1].p
        assert (
            solutions[3].heterogeneity <= solutions[1].heterogeneity + 1e-9
        )

    def test_portfolio_reduction_prefers_lowest_member(self, small_census):
        """Member 0 runs unperturbed from the winning pass, so the
        portfolio's improvement is measured against the same baseline
        the single search starts from."""
        config = FaCTConfig(
            rng_seed=11, construction_iterations=2, tabu_portfolio=2
        )
        solution = FaCT(config).solve(small_census, self._constraints())
        assert solution.tabu is not None
        assert (
            solution.tabu.heterogeneity_after
            <= solution.tabu.heterogeneity_before + 1e-9
        )


class TestObjectiveDetachment:
    def test_detached_drops_attach_state(self, small_census):
        objective = HeterogeneityObjective()
        state = SolutionState(
            small_census,
            ConstraintSet([sum_constraint("TOTALPOP", lower=1)]),
        )
        objective.attach(state)
        clone = objective.detached()
        assert not hasattr(clone, "_state")
        # The original stays attached and usable.
        assert objective.total() == state.total_heterogeneity()

    def test_canonical_from_labels_rebuild(self, small_census):
        constraints = ConstraintSet([sum_constraint("TOTALPOP", lower=1)])
        state = SolutionState(small_census, constraints)
        rng = random.Random(5)
        for _ in _random_mutations(state, rng, steps=30):
            pass
        labels = {
            area_id: region_id
            for area_id, region_id in state.assignment.items()
            if region_id is not None
        }
        # Scrambled label values describing the same partition must
        # rebuild into an identical canonical state.
        remap = {
            rid: 1000 - rid for rid in set(labels.values())
        }
        scrambled = {aid: remap[rid] for aid, rid in labels.items()}
        rebuilt_a = SolutionState.from_labels(
            small_census, constraints, labels
        )
        rebuilt_b = SolutionState.from_labels(
            small_census, constraints, scrambled
        )
        assert rebuilt_a.to_partition() == rebuilt_b.to_partition()
        assert sorted(rebuilt_a.regions) == sorted(rebuilt_b.regions)
        assert (
            rebuilt_a.total_heterogeneity()
            == rebuilt_b.total_heterogeneity()
        )
        assert rebuilt_a.total_heterogeneity() == pytest.approx(
            state.total_heterogeneity(), abs=1e-6
        )
