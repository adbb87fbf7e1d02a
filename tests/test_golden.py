"""Golden partition corpus: re-solve a fixed grid and compare digests.

``tests/golden/partitions.json`` records, for every cell of a
tabu-sensitive grid, the hash of the solved labels, ``p``, the
unassigned count and ``repr(H)``. Any refactor of the solver must
reproduce every cell bit for bit; an *intended* behaviour change
regenerates the file in its own change, with the diff explained.

The grid crosses two registry datasets at reduced scale, the enriched
and MAS constraint sets, two rng seeds, ``n_jobs`` 1 and 2, and the
Tabu vector-dispatch cutoff at its default and at 0 (every donor
priced by the vector kernel). Each solve runs two construction passes
and a two-member Tabu portfolio, so perturbation kicks and the
parallel member path are covered too.

Regenerate with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys

import pytest

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "partitions.json"
)

# (dataset, scale): ~300 areas each, enough for several regions under
# both constraint sets while the whole grid stays fast.
DATASETS = (("2k", 0.12), ("10k", 0.03))
CONSTRAINT_SETS = ("enriched", "MAS")
RNG_SEEDS = (1, 2)
N_JOBS = (1, 2)
# None keeps the module default of repro.fact.tabu._VECTOR_MIN_DONOR.
VECTOR_MIN_DONOR = (None, 0)
# Enriched SUM(TOTALPOP) lower bound scaled down with the datasets so
# regions keep ~40 areas: above the default vector cutoff, and several
# regions per instance.
ENRICHED_SUM_THRESHOLD = 120_000.0
# Bounded search: long enough for hundreds of moves per member, short
# enough that no cell's chaotic trajectory dominates the grid's time.
TABU_PATIENCE = 250
TABU_MAX_ITERATIONS = 1200


def cell_name(dataset, scale, constraints, seed, n_jobs, cutoff) -> str:
    cutoff_name = "default" if cutoff is None else str(cutoff)
    return (
        f"{dataset}@{scale}/{constraints}/seed{seed}/jobs{n_jobs}"
        f"/vector_min_donor={cutoff_name}"
    )


def grid():
    """Every golden cell as ``(name, dataset, scale, constraints, seed,
    n_jobs, cutoff)``."""
    cells = itertools.product(
        DATASETS, CONSTRAINT_SETS, RNG_SEEDS, N_JOBS, VECTOR_MIN_DONOR
    )
    for (dataset, scale), constraints, seed, n_jobs, cutoff in cells:
        name = cell_name(dataset, scale, constraints, seed, n_jobs, cutoff)
        yield name, dataset, scale, constraints, seed, n_jobs, cutoff


def _collection(dataset: str, scale: float):
    from repro.data.datasets import DATASETS as REGISTRY
    from repro.data.synthetic import synthetic_census

    spec = REGISTRY[dataset]
    return synthetic_census(
        spec.scaled_size(scale), seed=spec.seed, patches=spec.patches
    )


def _constraints(name: str):
    from repro.bench.workloads import combo_constraints, enriched_constraints

    if name == "enriched":
        return enriched_constraints(ENRICHED_SUM_THRESHOLD)
    return combo_constraints(name)


def labels_sha256(labels: dict) -> str:
    payload = json.dumps(
        sorted((int(area), int(region)) for area, region in labels.items()),
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def solve_cell(dataset, scale, constraints, seed, n_jobs, cutoff) -> dict:
    """Solve one cell and return its golden record."""
    from repro.fact import tabu as tabu_mod
    from repro.fact.config import FaCTConfig
    from repro.fact.solver import FaCT

    config = FaCTConfig(
        rng_seed=seed,
        construction_iterations=2,
        tabu_portfolio=2,
        n_jobs=n_jobs,
        tabu_max_no_improve=TABU_PATIENCE,
        tabu_max_iterations=TABU_MAX_ITERATIONS,
    )
    default_cutoff = tabu_mod._VECTOR_MIN_DONOR
    if cutoff is not None:
        tabu_mod._VECTOR_MIN_DONOR = cutoff
    try:
        solution = FaCT(config).solve(
            _collection(dataset, scale), _constraints(constraints)
        )
    finally:
        tabu_mod._VECTOR_MIN_DONOR = default_cutoff
    return {
        "labels_sha256": labels_sha256(solution.partition.labels()),
        "p": solution.p,
        "unassigned": solution.n_unassigned,
        "H": repr(solution.heterogeneity),
    }


def _load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_the_grid():
    assert sorted(_load_golden()) == sorted(cell[0] for cell in grid())


@pytest.mark.parametrize(
    "dataset,scale,constraints",
    [(d, s, c) for (d, s), c in itertools.product(DATASETS, CONSTRAINT_SETS)],
)
def test_golden_partitions(dataset, scale, constraints):
    golden = _load_golden()
    mismatches = {}
    for name, d, s, c, seed, n_jobs, cutoff in grid():
        if (d, s, c) != (dataset, scale, constraints):
            continue
        got = solve_cell(d, s, c, seed, n_jobs, cutoff)
        if got != golden[name]:
            mismatches[name] = {"expected": golden[name], "got": got}
    assert not mismatches, json.dumps(mismatches, indent=1)


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    records = {}
    for name, *cell in grid():
        records[name] = solve_cell(*cell)
        print(name, records[name], flush=True)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
