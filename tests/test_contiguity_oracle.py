"""Property tests for the incremental contiguity oracle and the
SolutionState frontier/adjacency indexes.

The oracle caches ``(is_contiguous, removable members)`` per region
and invalidates on every membership mutation; the state maintains
counted border/adjacency indexes through ``assign``/``move``/
``unassign``/``merge_regions``/``dissolve_region``. These tests drive
random mutation sequences and assert, after **every** mutation, that

- every cached contiguity verdict matches a fresh BFS over the same
  member set (the pre-oracle reference semantics) and the standalone
  :func:`repro.contiguity.graph.removable_set` pass,
- the indexes match a from-scratch rederivation
  (``SolutionState.check_indexes``),
- indexed queries return exactly what a scan over the members'
  adjacency, computed in the test, returns.
"""

from __future__ import annotations

import random

import pytest

from repro.contiguity.graph import removable_set
from repro.core import ConstraintSet, PerfCounters, sum_constraint
from repro.core.region import Region
from repro.fact.state import SolutionState

from conftest import make_grid_collection


def trivial_constraints() -> ConstraintSet:
    return ConstraintSet([sum_constraint("s", lower=0)])


def reference_verdicts(collection, members):
    """Per-node BFS reference: ``(is_contiguous, removable set)``."""
    members = frozenset(members)
    connected = collection.is_contiguous(members)
    removable = frozenset(
        area_id
        for area_id in members
        if len(members) > 1 and collection.is_contiguous(members - {area_id})
    )
    return connected, removable


def assert_oracle_matches_reference(state):
    for region in state.iter_regions():
        connected, removable = reference_verdicts(
            state.collection, region.area_ids
        )
        assert region.is_contiguous() == connected
        assert region.removable_areas() == removable
        for area_id in sorted(region.area_ids):
            assert region.remains_contiguous_without(area_id) == (
                area_id in removable
            )


def random_mutation_walk(state, rng, steps):
    """Drive *state* through a random mutation sequence.

    Only legal operations are attempted (areas exist, donors stay
    non-empty). Yields after every applied mutation.
    """

    def regions():
        return [state.regions[rid] for rid in sorted(state.regions)]

    for _ in range(steps):
        ops = []
        live = regions()
        if state.unassigned:
            ops.append("new_region")
            if live:
                ops.append("assign")
        donors = [r for r in live if len(r) > 1]
        if donors and len(live) > 1:
            ops.append("move")
        if donors:
            ops.append("unassign")
        if len(live) > 1:
            ops.append("merge")
        if live:
            ops.append("dissolve")
        if not ops:
            break
        op = rng.choice(ops)
        if op == "new_region":
            seed = rng.choice(sorted(state.unassigned))
            state.new_region([seed])
        elif op == "assign":
            area_id = rng.choice(sorted(state.unassigned))
            region = rng.choice(regions())
            state.assign(area_id, region)
        elif op == "move":
            donor = rng.choice([r for r in regions() if len(r) > 1])
            area_id = rng.choice(sorted(donor.area_ids))
            receivers = [
                r for r in regions() if r.region_id != donor.region_id
            ]
            receiver = rng.choice(receivers)
            state.move(area_id, receiver)
        elif op == "unassign":
            donor = rng.choice([r for r in regions() if len(r) > 1])
            area_id = rng.choice(sorted(donor.area_ids))
            state.unassign(area_id)
        elif op == "merge":
            keep, absorb = rng.sample(regions(), 2)
            state.merge_regions(keep, absorb)
        elif op == "dissolve":
            region = rng.choice(regions())
            state.dissolve_region(region)
        yield op


class TestOracleMatchesFreshBFS:
    @pytest.mark.parametrize("seed", [3, 17, 42, 99])
    def test_random_mutation_sequence(self, seed):
        collection = make_grid_collection(5, 5)
        state = SolutionState(collection, trivial_constraints())
        rng = random.Random(seed)
        for _ in random_mutation_walk(state, rng, steps=60):
            assert_oracle_matches_reference(state)
            state.check_indexes()

    def test_disconnected_region_semantics(self, grid3):
        """Two-component and three-component regions match per-node
        BFS verdicts exactly (only singleton components may leave a
        two-component region)."""
        region = Region(0, grid3, areas=[1, 3])  # opposite corners
        assert not region.is_contiguous()
        # Removing either singleton leaves the other, which is
        # connected — both are removable.
        assert region.removable_areas() == frozenset({1, 3})
        region.add_area(2)  # bridges: now one path component 1-2-3
        assert region.is_contiguous()
        assert region.removable_areas() == frozenset({1, 3})
        region.add_area(7)  # detached corner: two components again
        assert not region.is_contiguous()
        assert region.removable_areas() == frozenset({7})
        region.add_area(9)  # three components: nothing may leave
        assert not region.is_contiguous()
        assert region.removable_areas() == frozenset()
        _, removable = reference_verdicts(grid3, region.area_ids)
        assert region.removable_areas() == removable

    def test_singleton_region(self, grid3):
        region = Region(0, grid3, areas=[5])
        assert region.is_contiguous()
        assert region.removable_areas() == frozenset()
        assert not region.remains_contiguous_without(5)


class TestCacheInvalidation:
    def test_add_and_remove_invalidate(self, grid3):
        perf = PerfCounters()
        region = Region(0, grid3, areas=[1, 2, 3], perf=perf)
        assert region.removable_areas() == frozenset({1, 3})

        # A mutation invalidates the cached verdict; the refresh is
        # either a full rebuild or (once a block-cut structure exists)
        # an incremental replay of the pending mutations.
        def refreshes():
            return perf.oracle_rebuilds + perf.oracle_incremental

        count = refreshes()
        assert region.remains_contiguous_without(1)  # cache hit
        assert refreshes() == count
        region.add_area(6)
        assert region.removable_areas() == frozenset({1, 6})
        assert refreshes() == count + 1
        region.remove_area(6)
        assert region.removable_areas() == frozenset({1, 3})
        assert refreshes() == count + 2
        # The structure established by the first full pass served the
        # later refreshes incrementally.
        assert perf.oracle_incremental >= 1

    def test_merge_regions_invalidates(self, grid3):
        state = SolutionState(grid3, trivial_constraints())
        left = state.new_region([1, 2])
        right = state.new_region([3, 6])
        assert left.removable_areas() == frozenset({1, 2})
        merged = state.merge_regions(left, right)
        assert merged is left
        # The stale verdict would claim 2 is removable; after the merge
        # it is the bridge between 1 and {3, 6}.
        assert merged.removable_areas() == frozenset({1, 6})
        assert not merged.remains_contiguous_without(2)
        assert_oracle_matches_reference(state)
        state.check_indexes()

    def test_dissolve_region_returns_members_to_pool(self, grid3):
        state = SolutionState(grid3, trivial_constraints())
        region = state.new_region([1, 2, 3])
        other = state.new_region([4, 5])
        assert region.removable_areas() == frozenset({1, 3})
        state.dissolve_region(region)
        assert region.region_id not in state.regions
        assert {1, 2, 3} <= set(state.unassigned)
        # The surviving region's oracle and the indexes are intact.
        assert_oracle_matches_reference(state)
        state.check_indexes()
        assert state.unassigned_neighbors(other) == [1, 2, 6, 7, 8]


def scan_unassigned_neighbors(state, region):
    """Frontier oracle: scan every member's adjacency."""
    return sorted(
        area_id
        for area_id in state.collection.region_neighbors(region.area_ids)
        if state.is_unassigned(area_id)
    )


def scan_adjacent_regions(state, region):
    """Region-adjacency oracle: owners of the frontier areas."""
    owners = {
        state.assignment.get(area_id)
        for area_id in state.collection.region_neighbors(region.area_ids)
    }
    owners.discard(None)
    owners.discard(region.region_id)
    return sorted(owners)


def scan_donor_boundary(donor, receiver):
    """Swap-candidate oracle: donor members touching the receiver."""
    return sorted(a for a in donor.area_ids if receiver.touches(a))


class TestIndexedQueriesMatchScanFallback:
    @pytest.mark.parametrize("seed", [5, 23])
    def test_bit_identical_query_results(self, seed):
        """Indexed queries and the contiguity oracle return exactly the
        (sorted) answers of from-scratch scans after every mutation —
        the invariant that makes the maintained structures pure
        accelerations."""
        collection = make_grid_collection(5, 5)
        state = SolutionState(collection, trivial_constraints())
        rng = random.Random(seed)
        for _ in random_mutation_walk(state, rng, 60):
            for region_id in sorted(state.regions):
                region = state.regions[region_id]
                assert state.unassigned_neighbors(
                    region
                ) == scan_unassigned_neighbors(state, region)
                assert [
                    r.region_id for r in state.adjacent_regions(region)
                ] == scan_adjacent_regions(state, region)
                for other_id in sorted(state.regions):
                    if other_id == region_id:
                        continue
                    other = state.regions[other_id]
                    assert state.donor_boundary(
                        region, other
                    ) == scan_donor_boundary(region, other)
                members = region.area_ids
                assert region.is_contiguous() == collection.is_contiguous(
                    members
                )
                assert region.removable_areas() == frozenset(
                    removable_set(members, collection.neighbors)[1]
                )


class TestPerfCounters:
    def test_hits_and_rebuilds_accounting(self, grid3):
        perf = PerfCounters()
        region = Region(0, grid3, areas=[1, 2, 3], perf=perf)
        region.removable_areas()  # rebuild
        region.removable_areas()  # hit
        region.is_contiguous()  # hit
        assert perf.oracle_rebuilds == 1
        assert perf.oracle_hits == 2
        assert perf.graph_traversals == 1
        assert perf.oracle_hit_rate == pytest.approx(2 / 3)

    def test_full_bfs_checks_cached_vs_uncached(self, grid3):
        """Three checks on one region cost one full pass — the check
        that pays for the lazy rebuild. The uncached semantics the
        oracle replaces, one fresh BFS per check, give the same
        verdicts."""
        cached = PerfCounters()
        region = Region(0, grid3, areas=[1, 2, 3], perf=cached)
        verdicts = [
            region.remains_contiguous_without(1),  # pays for the rebuild
            region.remains_contiguous_without(2),  # O(1) lookup
            region.remains_contiguous_without(3),  # O(1) lookup
        ]
        assert cached.contiguity_checks == 3
        assert cached.full_bfs_checks == 1
        members = region.area_ids
        uncached = [
            grid3.is_contiguous(members - {area_id}) for area_id in (1, 2, 3)
        ]
        assert verdicts == uncached == [True, False, True]

    def test_merge_and_reset(self):
        first = PerfCounters()
        first.contiguity_checks = 3
        first.record_seconds("tabu", 1.5)
        second = PerfCounters()
        second.contiguity_checks = 4
        second.oracle_hits = 2
        second.record_seconds("tabu", 0.5)
        second.record_seconds("construction", 1.0)
        first.merge(second)
        assert first.contiguity_checks == 7
        assert first.oracle_hits == 2
        assert first.timings == {"tabu": 2.0, "construction": 1.0}
        first.reset()
        assert first.contiguity_checks == 0
        assert first.timings == {}

    def test_as_dict_is_json_shaped(self):
        perf = PerfCounters()
        perf.contiguity_checks = 2
        perf.oracle_hits = 1
        perf.oracle_rebuilds = 1
        with perf.time_section("tabu"):
            pass
        payload = perf.as_dict()
        assert payload["contiguity_checks"] == 2
        assert payload["oracle_hit_rate"] == 0.5
        assert "tabu" in payload["timings"]

    def test_state_threads_one_counter_into_regions(self, grid3):
        state = SolutionState(grid3, trivial_constraints())
        region = state.new_region([1, 2])
        assert region.perf is state.perf
        assert state.perf.index_updates > 0

    def test_solution_carries_perf(self, grid3):
        from repro.fact import FaCT, FaCTConfig

        constraints = trivial_constraints()
        solution = FaCT(FaCTConfig(rng_seed=1)).solve(grid3, constraints)
        assert solution.perf is not None
        summary = solution.summary()
        assert summary["perf"]["contiguity_checks"] >= 0
