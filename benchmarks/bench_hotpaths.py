"""Hot-path benchmarks: the incremental contiguity oracle and the
SolutionState frontier/adjacency indexes (DESIGN.md "Performance
model").

The checked-in full-scale trajectory lives in ``BENCH_hotpaths.json``
(regenerate with ``python -m repro.bench micro``).
"""

from __future__ import annotations

from repro import FaCT
from repro.bench.micro import _grow_state
from repro.bench.runner import bench_config
from repro.bench.workloads import combo_constraints

from conftest import run_once


def _solve(collection, constraints, rng_seed=7, enable_tabu=True):
    config = bench_config(
        len(collection), rng_seed=rng_seed, enable_tabu=enable_tabu
    )
    return FaCT(config).solve(collection, constraints)


def test_hotpaths_full_solve(benchmark, default_2k):
    """The headline: one Tabu-enabled solve."""
    constraints = combo_constraints("MAS")
    solution = run_once(benchmark, _solve, default_2k, constraints)
    perf = solution.perf.as_dict()
    benchmark.extra_info.update(
        p=solution.p,
        heterogeneity=solution.heterogeneity,
        graph_traversals=perf["graph_traversals"],
        full_bfs_checks=perf["full_bfs_checks"],
        oracle_hit_rate=perf["oracle_hit_rate"],
    )


def test_hotpaths_contiguity_queries(benchmark, default_2k):
    """Repeated ``remains_contiguous_without`` over every member of a
    partially grown partition — the oracle's O(1) inner loop."""
    constraints = combo_constraints("MAS")
    state = _grow_state(default_2k, constraints)
    regions = [state.regions[rid] for rid in sorted(state.regions)]

    def drain():
        verdicts = 0
        for region in regions:
            removable = region.removable_areas()
            for area_id in sorted(region.area_ids):
                if region.remains_contiguous_without(area_id):
                    verdicts += 1
                assert (area_id in removable) == (
                    region.remains_contiguous_without(area_id)
                )
        return verdicts

    verdicts = run_once(benchmark, drain)
    benchmark.extra_info.update(removable=verdicts)


def test_hotpaths_frontier_queries(benchmark, default_2k):
    """Frontier/adjacency queries over a partially grown partition —
    the indexed lookups behind growing and Phase-B swaps."""
    constraints = combo_constraints("MAS")
    state = _grow_state(default_2k, constraints)
    regions = [state.regions[rid] for rid in sorted(state.regions)]

    def drain():
        touched = 0
        for region in regions:
            touched += len(state.unassigned_neighbors(region))
            touched += len(state.adjacent_regions(region))
        return touched

    touched = run_once(benchmark, drain)
    benchmark.extra_info.update(touched=touched)

