"""Guard for the solve's units of work (construction passes and Tabu
portfolio members): the partition, ``repr(H)`` and the number of visits
to every registered fault checkpoint are pinned per execution mode.

Chaos and service tests address faults by visit ordinal
(``on_visit=N``), so a change in how units are dispatched, replayed or
recorded must leave these counts exactly where they are — serial and
parallel, fresh and resumed, whole-problem and decomposed.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import ConstraintSet
from repro.data.schema import default_constraints
from repro.fact import FaCT, FaCTConfig
from repro.runtime import CHECKPOINTS, FaultInjector, InjectedFault, inject

from test_preflight import island_collection, island_constraints

pytestmark = pytest.mark.chaos


def _digest(labels: dict[int, int]) -> str:
    payload = json.dumps(sorted(labels.items())).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _observed(solve) -> tuple[str, str, dict[str, int]]:
    """Run *solve* under a fault-free injector; return the partition
    digest, ``repr(H)`` and the non-zero checkpoint visit counts."""
    injector = FaultInjector()
    with inject(injector):
        solution = solve()
    visits = {
        name: injector.visited(name)
        for name in CHECKPOINTS
        if injector.visited(name)
    }
    return (
        _digest(solution.partition.labels()),
        repr(solution.heterogeneity),
        visits,
    )


def _config(tmp_path, **overrides) -> FaCTConfig:
    options = dict(
        rng_seed=5,
        certify="paranoid",
        checkpoint_path=str(tmp_path / "solve.ckpt.json"),
    )
    options.update(overrides)
    return FaCTConfig(**options)


# Partition digest and repr(H) of the seed-5 tiny_census solve: Tabu
# portfolio members 1..2 find nothing better than member 0 here, so both
# portfolio sizes land on the same answer.
_ANSWER = ("1b9dcd4abcd74958", "34940.8")

_COMMON = {
    "preflight.lint": 1,
    "preflight.components": 1,
    "feasibility.checked": 1,
    "certify.solution": 2,
}
# Serial construction: every pass visits its start checkpoint and
# the growth/adjustment checkpoints in-process.
_SERIAL_PASSES = {
    "construction.pass.start": 3,
    "construction.grow.seed": 60,
    "construction.grow.enclave": 12,
    "construction.adjust.phase": 15,
}

# (n_jobs, tabu_portfolio) -> checkpoint visits of one fresh solve.
# Parallel units run in worker processes, which the parent-side
# injector does not see; a one-member portfolio always runs in-process.
EXPECTED_VISITS = {
    (1, 1): {**_COMMON, **_SERIAL_PASSES, "tabu.iteration": 14,
             "pool.result": 3, "checkpoint.write": 3},
    (2, 1): {**_COMMON, "construction.pass.start": 1, "tabu.iteration": 14,
             "pool.result": 3, "checkpoint.write": 3},
    (1, 3): {**_COMMON, **_SERIAL_PASSES, "tabu.iteration": 30,
             "pool.result": 6, "checkpoint.write": 6},
    (2, 3): {**_COMMON, "construction.pass.start": 1,
             "pool.result": 6, "checkpoint.write": 6},
}

# Killed at the third checkpoint write (two passes on file), resumed at
# resume_jobs: replayed units still visit the serial start and result
# checkpoints, but are never submitted to workers.
EXPECTED_RESUME_VISITS = {
    1: {**_COMMON, "construction.pass.start": 3,
        "construction.grow.seed": 20, "construction.grow.enclave": 4,
        "construction.adjust.phase": 5, "tabu.iteration": 30,
        "pool.result": 6, "checkpoint.write": 4},
    2: {**_COMMON, "construction.pass.start": 1,
        "pool.result": 4, "checkpoint.write": 4},
}

# Three islands, each its own construction and portfolio; paranoid
# certification checks only the merged answer.
_DECOMPOSED_ANSWER = ("b3ed32c1d6e97bf1", "39182.700000000004")
_DECOMPOSED_COMMON = {
    "preflight.lint": 1,
    "preflight.components": 1,
    "feasibility.checked": 4,
    "pool.result": 15,
    "certify.solution": 1,
}
EXPECTED_DECOMPOSED_VISITS = {
    1: {**_DECOMPOSED_COMMON, "construction.pass.start": 9,
        "construction.grow.seed": 180, "construction.grow.enclave": 9,
        "construction.adjust.phase": 45, "tabu.iteration": 183},
    2: {**_DECOMPOSED_COMMON, "construction.pass.start": 3},
}


@pytest.fixture
def constraints() -> ConstraintSet:
    return ConstraintSet(default_constraints())


class TestUnitRunnerGuard:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("portfolio", [1, 3])
    def test_fresh_solve(self, tiny_census, constraints, tmp_path, n_jobs,
                         portfolio):
        config = _config(tmp_path, n_jobs=n_jobs, tabu_portfolio=portfolio)
        observed = _observed(
            lambda: FaCT(config).solve(tiny_census, constraints)
        )
        assert observed == (*_ANSWER, EXPECTED_VISITS[n_jobs, portfolio])

    @pytest.mark.parametrize("resume_jobs", [1, 2])
    def test_kill_and_resume(self, tiny_census, constraints, tmp_path,
                             resume_jobs):
        config = _config(tmp_path, tabu_portfolio=3)
        killer = FaultInjector().fail("checkpoint.write", on_visit=3)
        with pytest.raises(InjectedFault):
            with inject(killer):
                FaCT(config).solve(tiny_census, constraints)
        resumed = _config(tmp_path, tabu_portfolio=3, n_jobs=resume_jobs)
        observed = _observed(
            lambda: FaCT(resumed).solve(
                tiny_census, constraints,
                resume_from=config.checkpoint_path,
            )
        )
        assert observed == (*_ANSWER, EXPECTED_RESUME_VISITS[resume_jobs])

    def test_serial_unit_is_on_file_before_its_result_checkpoint(
        self, tiny_census, constraints, tmp_path
    ):
        # A crash at the second pool.result still leaves the second
        # pass on file: in-process units are recorded first.
        config = _config(tmp_path)
        killer = FaultInjector().fail("pool.result", on_visit=2)
        with pytest.raises(InjectedFault):
            with inject(killer):
                FaCT(config).solve(tiny_census, constraints)
        with open(config.checkpoint_path) as handle:
            units = json.load(handle)["units"]
        assert sorted(units) == ["construction/0/0", "construction/0/1"]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_decomposed_solve(self, n_jobs):
        config = FaCTConfig(
            rng_seed=11,
            n_jobs=n_jobs,
            tabu_portfolio=2,
            certify="paranoid",
            decompose_components=True,
        )
        observed = _observed(
            lambda: FaCT(config).solve(
                island_collection(), island_constraints()
            )
        )
        assert observed == (
            *_DECOMPOSED_ANSWER, EXPECTED_DECOMPOSED_VISITS[n_jobs]
        )
