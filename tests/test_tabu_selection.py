"""Differential oracle for the Tabu move table's selection.

The move table answers "best admissible move" through a heap of
per-donor row heads. The reference here is the exhaustive scan it
replaced: every cached move, minimized under the total order
``(delta, area, receiver, donor)`` with the tabu/aspiration test, then
live-validated — an invalid move dropped, a stale delta corrected and
the scan repeated. At every iteration of real searches both must pick
the same ``(delta, area, donor, receiver)``.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.bench.workloads import enriched_constraints
from repro.core import (
    ConstraintSet,
    count_constraint,
    min_constraint,
    sum_constraint,
)
from repro.data import synthetic_census
from repro.fact import FaCTConfig, tabu_improve
from repro.fact import tabu as tabu_mod
from repro.fact.construction import construct


def scan(moves, iteration, tabu_until, current_h, best_h):
    """The admissible move minimizing ``(delta, area, receiver,
    donor)`` over *moves* (``{(donor, area, receiver): delta}``), or
    ``None``."""
    best = None
    for (donor_id, area_id, receiver_id), delta in moves.items():
        if tabu_until.get((area_id, receiver_id), 0) >= iteration:
            # Aspiration: accept a tabu move that beats best_h.
            if current_h + delta >= best_h - 1e-9:
                continue
        candidate = (delta, area_id, receiver_id, donor_id)
        if best is None or candidate < best:
            best = candidate
    return best


def best_by_scan(pool, iteration, tabu_until, current_h, best_h, seen):
    """Reference selection over a copy of *pool*'s table, counting the
    cases the search ran into in *seen*."""
    moves = {
        (donor_id, area_id, receiver_id): delta
        for delta, area_id, receiver_id, donor_id in pool.cached_moves()
    }
    while True:
        best = scan(moves, iteration, tabu_until, current_h, best_h)
        if best is None:
            return None
        delta, area_id, receiver_id, donor_id = best
        key = (donor_id, area_id, receiver_id)
        live = pool._live_delta(area_id, donor_id, receiver_id)
        if live is None:
            seen["dropped"] += 1
            del moves[key]
            continue
        if abs(live - delta) > 1e-9:
            seen["stale"] += 1
            moves[key] = live
            continue
        break
    if tabu_until.get((area_id, receiver_id), 0) >= iteration:
        seen["aspiration"] += 1
    if any(
        tabu_until.get((a, r), 0) >= iteration and (d, a, r, donor) < best
        for (donor, a, r), d in moves.items()
    ):
        seen["tabu_skip"] += 1
    return (live, area_id, donor_id, receiver_id)


def _instances():
    """Small census instances under a SUM range (regions of ~10-20
    areas; the upper bound makes cached moves turn invalid when their
    receiver grows) and under the enriched workload scaled down, which
    adds MIN/MAX/AVG/COUNT feasibility on both sides of every move."""
    mas_like = ConstraintSet(
        [
            sum_constraint("TOTALPOP", lower=40_000, upper=70_000),
            min_constraint("POP16UP", upper=3000),
            count_constraint(2, 60),
        ]
    )
    enriched = enriched_constraints(60_000.0)
    for seed in (3, 5, 8):
        yield synthetic_census(90, seed=seed), mas_like, seed
        yield synthetic_census(140, seed=seed), enriched, seed


@pytest.mark.parametrize("vector_min_donor", [None, 0])
def test_table_selection_matches_exhaustive_scan(
    monkeypatch, vector_min_donor
):
    if vector_min_donor is not None:
        monkeypatch.setattr(tabu_mod, "_VECTOR_MIN_DONOR", vector_min_donor)
    seen = dict.fromkeys(("stale", "dropped", "tabu_skip", "aspiration"), 0)
    checked = []
    select = tabu_mod._MovePool.best_admissible

    def checked_select(pool, iteration, tabu_until, current_h, best_h):
        pool._refresh()
        expected = best_by_scan(
            pool, iteration, tabu_until, current_h, best_h, seen
        )
        chosen = select(pool, iteration, tabu_until, current_h, best_h)
        assert chosen == expected, (iteration, chosen, expected)
        checked.append(chosen)
        return chosen

    monkeypatch.setattr(tabu_mod._MovePool, "best_admissible", checked_select)
    vector_derives = 0
    for collection, constraints, seed in _instances():
        state = construct(
            collection,
            constraints,
            FaCTConfig(rng_seed=seed, construction_iterations=1),
        ).state
        tabu_improve(
            state,
            FaCTConfig(tabu_max_no_improve=150, tabu_max_iterations=600),
            rng=Random(seed),
            perturbation_moves=8,
        )
        vector_derives += state.perf.vector_derives
    assert len(checked) > 1000
    # The instances must exercise every branch of the selection.
    assert all(count > 0 for count in seen.values()), seen
    if vector_min_donor == 0:
        assert vector_derives > 0
