"""The array mirror and vector kernels against their pure-Python
oracles.

Four property families:

- **CSR round-trip** — ``csr_adjacency`` / ``neighbors_from_csr``
  must be exact inverses on any induced subgraph, and the CSR view
  must drive the contiguity primitives (articulation points,
  removable sets) to the same verdicts as the dict-of-sets graph;
- **canonical rebuild** — ``SolutionState.from_labels`` must produce
  bit-identical flat arrays regardless of the label values used to
  describe the partition;
- **no backend switch** — the removed ``FaCTConfig.backend`` option
  must fail loudly instead of being silently ignored;
- **solve bit-identity** — a full solve with every hot path forced
  onto the scalar loops must produce the identical partition as the
  default dispatch and the forced vector kernels, and
  ``check_indexes`` must catch a corrupted array mirror at the first
  divergence.
"""

from __future__ import annotations

import random

import pytest

from repro.contiguity.graph import (
    _SCRATCH_NODE_CAP,
    articulation_points,
    csr_adjacency,
    neighbors_from_csr,
    removable_set,
)
from repro.core import ConstraintSet, min_constraint, sum_constraint
from repro.data import schema, synthetic_census
from repro.fact import FaCT, FaCTConfig
from repro.fact.state import SolutionState

from conftest import force_kernel


def _constraints() -> ConstraintSet:
    return ConstraintSet(
        [
            min_constraint(schema.POP16UP, upper=3000),
            sum_constraint(schema.TOTALPOP, lower=15000),
        ]
    )


# ----------------------------------------------------------------------
# CSR adjacency round-trips
# ----------------------------------------------------------------------
class TestCsrRoundTrip:
    def _reference(self, nodes, neighbors):
        node_set = set(nodes)
        return {
            node: frozenset(
                n for n in neighbors(node) if n in node_set
            )
            for node in nodes
        }

    def test_full_collection_round_trip(self, tiny_census):
        ids = list(tiny_census.ids)
        indptr, indices = csr_adjacency(ids, tiny_census.neighbors)
        rebuilt = neighbors_from_csr(ids, indptr, indices)
        assert rebuilt == self._reference(ids, tiny_census.neighbors)

    def test_rows_are_sorted_positions(self, grid3):
        ids = list(grid3.ids)
        indptr, indices = csr_adjacency(ids, grid3.neighbors)
        assert indptr[0] == 0 and indptr[-1] == len(indices)
        for i in range(len(ids)):
            row = indices[indptr[i] : indptr[i + 1]]
            assert row == sorted(row)
            assert all(0 <= j < len(ids) for j in row)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_induced_subgraph_round_trip(self, tiny_census, seed):
        rng = random.Random(seed)
        ids = sorted(tiny_census.ids)
        subset = rng.sample(ids, k=len(ids) // 2)
        indptr, indices = csr_adjacency(subset, tiny_census.neighbors)
        rebuilt = neighbors_from_csr(subset, indptr, indices)
        assert rebuilt == self._reference(subset, tiny_census.neighbors)

    def test_articulation_agrees_through_csr(self, line5, tiny_census):
        for collection in (line5, tiny_census):
            ids = list(collection.ids)
            indptr, indices = csr_adjacency(ids, collection.neighbors)
            rebuilt = neighbors_from_csr(ids, indptr, indices)
            via_csr = articulation_points(
                ids, lambda a: rebuilt[a]
            )
            assert via_csr == articulation_points(
                ids, collection.neighbors
            )

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_removable_set_with_precomputed_adjacency(
        self, tiny_census, seed
    ):
        """The induced-adjacency fast path of the contiguity oracle
        must return the exact verdict of the filtering path."""
        rng = random.Random(seed)
        ids = sorted(tiny_census.ids)
        subset = set(rng.sample(ids, k=rng.randrange(2, len(ids))))
        induced = {
            node: [
                n for n in tiny_census.neighbors(node) if n in subset
            ]
            for node in subset
        }
        plain = removable_set(subset, tiny_census.neighbors)
        fast = removable_set(
            subset, tiny_census.neighbors, adjacency=induced
        )
        assert fast == plain

    @pytest.mark.parametrize("seed", [7, 8])
    def test_sparse_ids_match_dense_scratch_path(self, seed):
        """Node ids above the dense-scratch cap take the dict DFS
        variant; both must return identical verdicts."""
        rng = random.Random(seed)
        n = 24
        edges: dict[int, set[int]] = {i: set() for i in range(n)}
        for i in range(1, n):  # random connected graph
            j = rng.randrange(i)
            edges[i].add(j)
            edges[j].add(i)
        for _ in range(n // 2):
            a, b = rng.sample(range(n), 2)
            edges[a].add(b)
            edges[b].add(a)
        shift = _SCRATCH_NODE_CAP + 13
        shifted = {
            a + shift: {b + shift for b in row}
            for a, row in edges.items()
        }
        dense = removable_set(edges, lambda a: edges[a])
        sparse = removable_set(shifted, lambda a: shifted[a])
        assert sparse[0] == dense[0]
        assert {a - shift for a in sparse[1]} == set(dense[1])
        assert {
            a - shift
            for a in articulation_points(shifted, lambda a: shifted[a])
        } == set(articulation_points(edges, lambda a: edges[a]))


# ----------------------------------------------------------------------
# the removed backend switch
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_config_rejects_unknown_backend_at_construction(self):
        # The backend option is gone: an old caller must fail at
        # construction, not run silently on an ignored setting.
        with pytest.raises(TypeError, match="backend"):
            FaCTConfig(backend="numpy")


# ----------------------------------------------------------------------
# canonical rebuild parity
# ----------------------------------------------------------------------
class TestFromLabelsArrayParity:
    def test_rebuild_is_invariant_to_label_values(self, tiny_census):
        """Two label snapshots describing the same partition under
        different label values must rebuild into bit-identical flat
        arrays (the canonicalization contract of ``from_labels``)."""
        constraints = _constraints()
        solution = FaCT(FaCTConfig(rng_seed=3)).solve(
            tiny_census, constraints
        )
        labels = solution.partition.labels()
        shuffled = {
            area_id: (None if label is None else 1000 - 7 * label)
            for area_id, label in labels.items()
        }
        state_a = SolutionState.from_labels(
            tiny_census, constraints, labels
        )
        state_b = SolutionState.from_labels(
            tiny_census, constraints, shuffled
        )
        astate_a, astate_b = state_a.array_state, state_b.array_state
        np = astate_a.arrays.np
        assert np.array_equal(astate_a.labels, astate_b.labels)
        assert np.array_equal(
            astate_a.region_count, astate_b.region_count
        )
        for name in astate_a.tracked:
            assert np.array_equal(
                astate_a.region_sums[name], astate_b.region_sums[name]
            )
        assert (
            state_a.total_heterogeneity() == state_b.total_heterogeneity()
        )
        state_a.check_indexes()
        state_b.check_indexes()

    def test_check_indexes_catches_corrupted_labels(self, tiny_census):
        state = SolutionState(tiny_census, _constraints())
        region = state.new_region()
        seed = sorted(state.unassigned)[0]
        state.assign(seed, region)
        astate = state.array_state
        state.check_indexes()
        astate.labels[astate.arrays.index[seed]] = 99
        with pytest.raises(AssertionError, match="label vector"):
            state.check_indexes()

    def test_check_indexes_catches_corrupted_sums(self, tiny_census):
        state = SolutionState(tiny_census, _constraints())
        region = state.new_region()
        for area_id in sorted(state.unassigned)[:3]:
            state.assign(area_id, region)
        astate = state.array_state
        state.check_indexes()
        name = astate.tracked[0]
        astate.region_sums[name][region.region_id] += 1.0
        with pytest.raises(AssertionError, match="sum vector"):
            state.check_indexes()


# ----------------------------------------------------------------------
# whole-solve bit-identity
# ----------------------------------------------------------------------
class TestSolveBitIdentity:
    @pytest.mark.parametrize("vector_min_donor", [None, 0])
    def test_backends_produce_identical_partitions(
        self, monkeypatch, vector_min_donor
    ):
        """Bit-identity between every hot path forced onto the scalar
        loops and the default dispatch AND the vector derive forced on
        every donor (the small fixture regions would otherwise all
        take the scalar path, proving nothing about the vector
        kernels)."""
        from repro.fact import tabu as tabu_mod

        collection = synthetic_census(60, seed=11)
        constraints = _constraints()

        def solve():
            solution = FaCT(FaCTConfig(rng_seed=7)).solve(
                collection, constraints
            )
            result = (
                solution.partition.labels(),
                solution.p,
                solution.heterogeneity,
            )
            return result, solution.perf.vector_derives

        with monkeypatch.context() as patch:
            force_kernel(patch, "python")
            scalar, scalar_derives = solve()
        assert scalar_derives == 0
        if vector_min_donor is not None:
            monkeypatch.setattr(
                tabu_mod, "_VECTOR_MIN_DONOR", vector_min_donor
            )
        dispatched, derives = solve()
        if vector_min_donor == 0:
            # forced: the kernels must actually have run
            assert derives > 0
        else:
            # default cutoff: tiny donors all stay scalar
            assert derives == 0
        assert dispatched == scalar
