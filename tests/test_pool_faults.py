"""Chaos suite for the fault-tolerant worker pool.

Worker processes die, hang, and return garbage; the solve must not.
These tests drive :meth:`SolverPool.collect_resilient` through every
escalation step (retry → broken-pool restart → deadline abandonment →
in-process degradation) with synthetic futures — no real process pool
needed, so the failure timing is deterministic — and then poison a
full parallel solve end to end, asserting the answer stays
bit-identical to the serial reference and certifies cleanly.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import ConstraintSet
from repro.core.perf import PerfCounters
from repro.data.schema import default_constraints
from repro.exceptions import SolverInterrupted
from repro.fact import FaCT, FaCTConfig
from repro.fact.pool import SolverPool
from repro.runtime import FaultInjector, RetryPolicy, RunStatus, inject

pytestmark = pytest.mark.chaos


@pytest.fixture
def constraints() -> ConstraintSet:
    return ConstraintSet(default_constraints())


def _double(x):
    return 2 * x


def _bare_pool() -> SolverPool:
    # The unit tests' task never touches the worker context, so the
    # payload contents are irrelevant.
    return SolverPool(None, ConstraintSet(), (), FaCTConfig(), max_workers=2)


def _done(value) -> Future:
    future = Future()
    future.set_result(value)
    return future


def _failed(exception) -> Future:
    future = Future()
    future.set_exception(exception)
    return future


class TestCollectResilient:
    def test_all_tasks_succeed_in_index_order(self):
        pool = _bare_pool()
        pool.submit = lambda task, *args: _done(task(*args))
        args = [(i,) for i in range(5)]
        results, status = pool.collect_resilient(_double, args, args)
        assert status is None
        assert results == {i: 2 * i for i in range(5)}

    def test_failed_task_is_retried_then_succeeds(self):
        pool = _bare_pool()
        calls = {"n": 0}

        def submit(task, *args):
            calls["n"] += 1
            if calls["n"] == 1:
                return _failed(pickle.PicklingError("unpicklable result"))
            return _done(task(*args))

        pool.submit = submit
        perf = PerfCounters()
        results, status = pool.collect_resilient(
            _double, [(7,)], [(7,)], perf=perf,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        assert status is None
        assert results == {0: 14}
        assert perf.pool_task_failures == 1
        assert perf.pool_task_retries == 1
        assert perf.pool_tasks_degraded == 0

    def test_exhausted_retries_degrade_to_in_process(self):
        pool = _bare_pool()
        pool.submit = lambda task, *args: _failed(RuntimeError("worker bug"))
        perf = PerfCounters()
        results, status = pool.collect_resilient(
            _double, [(3,), (4,)], [(3,), (4,)], perf=perf,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        assert status is None
        # Degraded execution still produces the right answers — the
        # task function is a pure function of its arguments.
        assert results == {0: 6, 1: 8}
        assert perf.pool_tasks_degraded == 2
        assert perf.pool_task_failures == 4  # 2 first tries + 2 retries

    def test_broken_pool_restarts_and_recovers(self):
        pool = _bare_pool()
        restarts = []
        original_restart = pool.restart
        pool.restart = lambda: (restarts.append(1), original_restart())
        state = {"broken_once": False}

        def submit(task, *args):
            if not state["broken_once"]:
                state["broken_once"] = True
                return _failed(BrokenProcessPool("a worker died hard"))
            return _done(task(*args))

        pool.submit = submit
        perf = PerfCounters()
        results, status = pool.collect_resilient(
            _double, [(5,)], [(5,)], perf=perf,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        assert status is None
        assert results == {0: 10}
        assert perf.pool_broken_restarts == 1
        assert perf.pool_task_retries == 1
        assert len(restarts) == 1

    def test_permanently_broken_pool_degrades_everything(self):
        pool = _bare_pool()
        pool.submit = lambda task, *args: _failed(
            BrokenProcessPool("workers keep dying")
        )
        perf = PerfCounters()
        results, status = pool.collect_resilient(
            _double, [(1,), (2,), (3,)], [(1,), (2,), (3,)],
            perf=perf, retry_policy=RetryPolicy(max_attempts=2),
        )
        assert status is None
        assert results == {0: 2, 1: 4, 2: 6}
        assert perf.pool_broken_restarts == 2  # first round + retry round
        assert perf.pool_tasks_degraded == 3

    def test_unpicklable_submission_degrades_immediately(self):
        pool = _bare_pool()

        def submit(task, *args):
            raise TypeError("cannot pickle task arguments")

        pool.submit = submit
        perf = PerfCounters()
        results, status = pool.collect_resilient(
            _double, [(9,)], [(9,)], perf=perf
        )
        assert status is None
        assert results == {0: 18}
        assert perf.pool_task_failures == 1
        assert perf.pool_tasks_degraded == 1

    def test_hung_task_is_abandoned_after_deadline(self):
        pool = _bare_pool()
        pool.submit = lambda task, *args: Future()  # never completes
        perf = PerfCounters()
        results, status = pool.collect_resilient(
            _double, [(6,)], [(6,)],
            perf=perf, task_deadline=0.01, poll_seconds=0.02,
        )
        assert status is None
        assert results == {0: 12}
        assert perf.pool_task_timeouts == 1
        assert perf.pool_tasks_degraded == 1


class TestPoisonedSolves:
    """End-to-end: a parallel solve whose pool misbehaves must still
    return the serial run's exact partition, with a valid certificate."""

    @pytest.fixture
    def reference(self, tiny_census, constraints):
        return FaCT(FaCTConfig(rng_seed=3)).solve(tiny_census, constraints)

    def test_solve_survives_unpicklable_submissions(
        self, tiny_census, constraints, reference, monkeypatch
    ):
        def broken_submit(self, task, *args):
            raise TypeError("simulated pickling failure")

        monkeypatch.setattr(SolverPool, "submit", broken_submit)
        solution = FaCT(
            FaCTConfig(rng_seed=3, n_jobs=2, certify="final")
        ).solve(tiny_census, constraints)
        assert solution.status is RunStatus.COMPLETE
        assert solution.partition.labels() == reference.partition.labels()
        assert solution.certificate.valid
        assert solution.perf.pool_tasks_degraded > 0

    def test_solve_survives_repeatedly_broken_pool(
        self, tiny_census, constraints, reference, monkeypatch
    ):
        def broken_submit(self, task, *args):
            return _failed(BrokenProcessPool("worker massacre"))

        monkeypatch.setattr(SolverPool, "submit", broken_submit)
        solution = FaCT(
            FaCTConfig(rng_seed=3, n_jobs=2, certify="final")
        ).solve(tiny_census, constraints)
        assert solution.status is RunStatus.COMPLETE
        assert solution.partition.labels() == reference.partition.labels()
        assert solution.certificate.valid
        assert solution.perf.pool_broken_restarts > 0

    def test_solve_survives_hung_workers_via_deadline(
        self, tiny_census, constraints, reference, monkeypatch
    ):
        monkeypatch.setattr(
            SolverPool, "submit", lambda self, task, *args: Future()
        )
        solution = FaCT(
            FaCTConfig(
                rng_seed=3,
                n_jobs=2,
                certify="final",
                worker_task_deadline_seconds=0.01,
            )
        ).solve(tiny_census, constraints)
        assert solution.status is RunStatus.COMPLETE
        assert solution.partition.labels() == reference.partition.labels()
        assert solution.certificate.valid
        assert solution.perf.pool_task_timeouts > 0

    def test_worker_faults_surface_in_the_report(
        self, tiny_census, constraints, monkeypatch
    ):
        from repro.fact.reporting import format_solution_report

        def broken_submit(self, task, *args):
            raise TypeError("simulated pickling failure")

        monkeypatch.setattr(SolverPool, "submit", broken_submit)
        solution = FaCT(FaCTConfig(rng_seed=3, n_jobs=2)).solve(
            tiny_census, constraints
        )
        report = format_solution_report(solution, tiny_census)
        assert "worker faults survived" in report
        assert "degraded to in-process" in report


class TestStrictInterruptEvidence:
    def test_strict_interrupt_carries_certificate_and_labels(
        self, tiny_census, constraints, tmp_path
    ):
        config = FaCTConfig(
            rng_seed=3,
            strict_interrupt=True,
            certify="final",
            checkpoint_path=str(tmp_path / "ck.json"),
        )
        injector = FaultInjector().cancel("tabu.iteration")
        with inject(injector):
            with pytest.raises(SolverInterrupted) as excinfo:
                FaCT(config).solve(tiny_census, constraints)
        interrupt = excinfo.value
        assert interrupt.status is RunStatus.CANCELLED
        assert interrupt.solution is not None
        # Even the refused partial answer ships with evidence: its
        # certificate and the best-so-far labels for salvage.
        assert interrupt.certificate is not None
        assert interrupt.certificate.valid
        assert interrupt.certificate.label == "interrupted"
        assert interrupt.best_labels == interrupt.solution.partition.labels()
