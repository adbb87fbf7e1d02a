"""Kernel parity for the construction phase (Step 2).

The vectorized construction paths (``repro.fact.growing``: batch AVG
classification, masked frontier filtering, batch growth pricing) must
be invisible in the answer: with the numpy kernels in play every
substep has to make bit-identical decisions to the pure-Python scalar
loops — same seed pickups (Substep 2.1 growth choices), same enclave
assignments (Substep 2.2), same final labels — and the full
construction pipeline must additionally be invariant to ``n_jobs``.
The scalar side is forced by raising the size-dispatch cutoffs past
any input (:func:`conftest.force_kernel`).

These run on the registry's real 1k/2k census datasets, not synthetic
toys: the vector paths only engage above ``_VECTOR_MIN_BATCH``
candidates, so tiny fixtures would pass vacuously through the scalar
fallback.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.runner import bench_config, bench_dataset
from repro.bench.workloads import enriched_constraints
from repro.fact import FaCTConfig, check_feasibility, construct
from repro.fact.growing import grow_regions
from repro.fact.seeding import select_seeds
from repro.fact.state import SolutionState

from conftest import force_kernel


@pytest.fixture(scope="module")
def constraints():
    return enriched_constraints()


@pytest.fixture(scope="module", params=["1k", "2k"])
def dataset(request):
    return request.param, bench_dataset(request.param, scale=1.0)


def _phase_labels(monkeypatch, collection, constraints, kernel=None):
    """Run Step 2 substep by substep — at the default size dispatch, or
    with every hot path forced onto *kernel* — and snapshot the
    assignment after each phase (plus the AVG classifier, to prove the
    batch paths actually engaged)."""
    from repro.fact.growing import (
        _assign_enclaves,
        _AvgClasses,
        _combine_for_extrema,
        _initialize_from_seeds,
    )

    with monkeypatch.context() as patch:
        if kernel is not None:
            force_kernel(patch, kernel)
        config = bench_config(len(collection), rng_seed=7, enable_tabu=False)
        report = check_feasibility(collection, constraints, config)
        report.raise_if_infeasible()
        seeding = select_seeds(collection, constraints, report)
        state = SolutionState(
            collection, constraints, excluded=report.invalid_areas
        )
        rng = random.Random(config.rng_seed)

        def snapshot():
            return tuple(
                sorted(
                    (area, region)
                    for area, region in state.assignment.items()
                    if region is not None
                )
            )

        classes = _AvgClasses(state, constraints.avgs)
        _initialize_from_seeds(state, seeding, classes, config, rng)
        seeds = snapshot()
        _assign_enclaves(state, classes, config, rng)
        enclaves = snapshot()
        _combine_for_extrema(state)
        return {
            "seeds": seeds,
            "enclaves": enclaves,
            "final": snapshot(),
            "p": state.p,
            "n_unassigned": state.n_unassigned,
            "classes": classes,
        }


class TestPhaseParity:
    def test_every_substep_bit_identical(
        self, monkeypatch, dataset, constraints
    ):
        _, collection = dataset
        python = _phase_labels(monkeypatch, collection, constraints, "python")
        for kernel in (None, "numpy"):
            numpy = _phase_labels(monkeypatch, collection, constraints, kernel)
            # Substep 2.1: identical seed pickups (growth choices
            # included).
            assert python["seeds"] == numpy["seeds"]
            # Substep 2.2: identical enclave assignments.
            assert python["enclaves"] == numpy["enclaves"]
            # Post-extrema: identical final construction labels and
            # shape.
            assert python["final"] == numpy["final"]
            assert python["p"] == numpy["p"] > 1
            assert python["n_unassigned"] == numpy["n_unassigned"]

    def test_numpy_engaged_vector_paths(
        self, monkeypatch, dataset, constraints
    ):
        from repro.core.arrays import CollectionArrays

        gathers = []
        original = CollectionArrays.positions

        def spy(self, area_ids):
            gathers.append(len(area_ids))
            return original(self, area_ids)

        monkeypatch.setattr(CollectionArrays, "positions", spy)
        _, collection = dataset
        # Default dispatch: the collection-wide AVG classification is
        # batched (the growth frontiers here stay below the cutoff).
        default = _phase_labels(monkeypatch, collection, constraints)
        assert default["classes"]._codes is not None
        # Forced vector kernels: the growth paths gather candidate
        # positions too. Without either, the parity assertions above
        # would prove nothing about the vector kernels.
        gathers.clear()
        _phase_labels(monkeypatch, collection, constraints, "numpy")
        assert gathers
        gathers.clear()
        scalar = _phase_labels(monkeypatch, collection, constraints, "python")
        assert scalar["classes"]._codes is None
        assert not gathers


class TestWholeGrowParity:
    def test_grow_regions_entrypoint(self, monkeypatch, dataset, constraints):
        # The public entry point (grow_regions) on both kernels — same
        # labels without reaching into the substep internals.
        _, collection = dataset

        def grow():
            config = bench_config(
                len(collection), rng_seed=7, enable_tabu=False
            )
            report = check_feasibility(collection, constraints, config)
            seeding = select_seeds(collection, constraints, report)
            state = SolutionState(
                collection, constraints, excluded=report.invalid_areas
            )
            grow_regions(state, seeding, config, random.Random(config.rng_seed))
            return state.p, tuple(sorted(state.assignment.items()))

        with monkeypatch.context() as patch:
            force_kernel(patch, "python")
            python = grow()
        assert python == grow()


class TestPipelineParity:
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_full_construction_invariant_to_backend_and_jobs(
        self, monkeypatch, n_jobs, constraints
    ):
        # The full multi-pass construction pipeline: final labels at
        # every worker count (the pass-distribution machinery must not
        # reorder decisions) must equal the scalar-loop run.
        collection = bench_dataset("1k", scale=1.0)

        def build():
            config = FaCTConfig(
                rng_seed=7,
                construction_iterations=3,
                n_jobs=n_jobs,
                enable_tabu=False,
            )
            partition = construct(collection, constraints, config).partition
            return partition.p, tuple(sorted(partition.labels().items()))

        with monkeypatch.context() as patch:
            force_kernel(patch, "python")
            python = build()
        assert python == build()
