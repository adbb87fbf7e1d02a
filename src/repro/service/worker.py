"""The service worker: lease a job, solve it, survive anything.

One :class:`ServiceWorker` loops: claim the next runnable job from the
:class:`~repro.service.store.JobStore`, mark it RUNNING, and execute
the solve through :class:`repro.fact.FaCT` with the full resilience
stack wired in:

- **checkpointing** — the solve writes its
  :class:`~repro.fact.checkpointing.SolveLedger` into the job
  directory, so *any* later attempt (same worker or another, after a
  crash, SIGKILL or drain) resumes from completed work units and
  produces a **bit-identical** partition;
- **lease heartbeats** — a :class:`~repro.service.lease.LeaseKeeper`
  thread renews the lease while solving and cancels the solve's
  :class:`repro.runtime.CancellationToken` when the job is cancelled
  or the lease is lost;
- **budgets** — a per-job deadline from the spec becomes a
  :class:`repro.runtime.Budget`; a resumed attempt only gets the
  seconds earlier attempts left unconsumed (read from the checkpoint);
- **event log** — the solve's :class:`repro.obs.SolveTelemetry`
  appends to ``events.jsonl`` in the job directory, which the HTTP
  API streams as live progress;
- **certification** — unless the spec opts out, completion writes an
  independently validated :class:`repro.certify.Certificate` next to
  the result.

Failure routing: deterministic rejections (infeasible query, malformed
spec, certification veto) fail the job permanently — retrying a
deterministic solve reproduces the same answer. Everything else
(worker crash, OS error, poisoned pool) is retryable and goes back
through the store's :class:`repro.runtime.RetryPolicy` — unless two
consecutive attempts crash with the same :func:`fault_signature`, in
which case the store quarantines the poison job straight to DEAD
without burning the remaining retry budget.

Graceful drain: :meth:`ServiceWorker.drain` (wired to SIGTERM by the
CLI) cancels the in-flight solve at its next checkpoint; the job is
re-queued *without* burning a retry attempt and the next lease resumes
from the checkpoint just written.
"""

from __future__ import annotations

import json
import os
import re
import time
import traceback
import uuid

from ..exceptions import (
    CertificationError,
    InfeasibleProblemError,
    JobError,
    ReproError,
)
from ..runtime.budget import Budget, CancellationToken, RunStatus
from .jobs import Job
from .lease import LeaseKeeper
from .store import JobStore

__all__ = ["ServiceWorker"]

# Heartbeat when neither the job config nor the worker pins one:
# a third of the lease keeps three beats inside every lease window.
_HEARTBEAT_FRACTION = 3.0


def fault_signature(error: BaseException) -> str:
    """Normalized identity of a failure for poison-job detection.

    Exception type plus its message with digit runs masked — so two
    attempts that crash the same way match even when the message
    embeds attempt counters, ordinals or addresses (fault-injection
    messages carry the checkpoint visit number, for example).
    """
    masked = re.sub(r"\d+", "#", str(error))
    return f"{type(error).__name__}:{masked}"


class ServiceWorker:
    """Claims and executes jobs from a :class:`JobStore`.

    Parameters
    ----------
    store:
        The shared job store.
    worker_id:
        Stable identity in leases/journal records; generated if omitted.
    poll_seconds:
        Idle sleep between claim attempts in :meth:`run_forever`.
    heartbeat_seconds:
        Default beat interval; a job config's ``heartbeat_seconds``
        overrides it, and both default to a third of the job's lease.
    reap:
        When true (the default), the worker also reaps expired leases
        before each claim — so a single-worker deployment still
        recovers jobs lost by a crashed predecessor.
    """

    def __init__(
        self,
        store: JobStore,
        worker_id: str | None = None,
        poll_seconds: float = 0.2,
        heartbeat_seconds: float | None = None,
        reap: bool = True,
    ):
        self.store = store
        self.worker_id = worker_id or f"w-{uuid.uuid4().hex[:8]}"
        self.poll_seconds = float(poll_seconds)
        self.heartbeat_seconds = heartbeat_seconds
        self.reap = reap
        self.jobs_run = 0
        self._draining = False
        self._active_token: CancellationToken | None = None
        self._active_job_id: str | None = None

    # ------------------------------------------------------------------
    # loop
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Stop after the in-flight job; cancel its solve now.

        The solve checkpoints best-so-far at its next budget
        checkpoint and unwinds; the job is re-queued for resumption.
        Safe to call from a signal handler.
        """
        self._draining = True
        token = self._active_token
        if token is not None:
            token.cancel()

    @property
    def draining(self) -> bool:
        return self._draining

    def run_once(self) -> bool:
        """Reap, claim and execute one job. False when queue is idle."""
        if self.reap:
            self.store.reap_expired()
        job = self.store.claim(self.worker_id)
        if job is None:
            return False
        self.execute(job)
        self.jobs_run += 1
        return True

    def run_forever(self, max_jobs: int | None = None) -> int:
        """Process jobs until drained (or *max_jobs*); returns count."""
        while not self._draining:
            if max_jobs is not None and self.jobs_run >= max_jobs:
                break
            if not self.run_once():
                time.sleep(self.poll_seconds)
        return self.jobs_run

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, job: Job) -> None:
        """Run one leased job to a journal-recorded outcome.

        Every exit path lands the job back in the store: COMPLETED,
        FAILED (non-retryable), CANCELLED, re-QUEUED (drain / retryable
        failure via the retry policy) or DEAD — unless the lease was
        lost mid-solve, in which case the result is discarded because
        the job already belongs to someone else.
        """
        job_id = job.job_id
        try:
            self._execute_inner(job)
        except JobError:
            # Lease lost while finalizing (reaped or re-owned): the new
            # owner's outcome wins; ours is abandoned.
            pass
        except (InfeasibleProblemError, CertificationError) as error:
            self._fail(job_id, error, retryable=False)
        except ReproError as error:
            self._fail(
                job_id, error, retryable=True,
                signature=fault_signature(error),
            )
        except Exception as error:  # noqa: BLE001 - worker must survive
            detail = "".join(
                traceback.format_exception_only(type(error), error)
            ).strip()
            self._fail(
                job_id, detail, retryable=True,
                signature=fault_signature(error),
            )

    def _fail(
        self, job_id: str, error, retryable: bool, signature: str | None = None
    ) -> None:
        try:
            self.store.fail(
                job_id,
                self.worker_id,
                str(error),
                retryable=retryable,
                signature=signature,
            )
        except JobError:
            pass  # lease already lost; the reaper handled the job

    def _execute_inner(self, job: Job) -> None:
        from ..fact.solver import FaCT

        store = self.store
        job_id = job.job_id
        checkpoint_path = store.checkpoint_path(job_id)
        resume_from = (
            checkpoint_path if os.path.exists(checkpoint_path) else None
        )

        overrides = {
            "checkpoint_path": checkpoint_path,
            "trace_path": store.events_path(job_id),
            # Keep the ledger for audit; the job directory owns it.
            "checkpoint_keep_on_complete": True,
        }
        if "certify" not in job.spec.config:
            # Service results ship with a certificate unless the spec
            # explicitly opts out (config entry "certify": "off").
            overrides["certify"] = "final"
        config = job.spec.build_config(**overrides)

        token = CancellationToken()
        budget = Budget(
            deadline_seconds=self._remaining_deadline(config, resume_from),
            token=token,
        )
        self._active_token = token
        self._active_job_id = job_id
        if self._draining:
            token.cancel()

        store.start_running(job_id, self.worker_id)
        keeper = LeaseKeeper(
            store,
            job_id,
            self.worker_id,
            self._heartbeat_for(job, config),
            token,
        )
        try:
            with keeper:
                collection = job.spec.build_collection()
                constraints = job.spec.build_constraints()
                solution = FaCT(config).solve(
                    collection,
                    constraints,
                    budget=budget,
                    resume_from=resume_from,
                )
        finally:
            self._active_token = None
            self._active_job_id = None

        if keeper.lease_lost:
            return  # job re-owned; discard our result

        result = self._result_payload(job, solution)
        if solution.status is RunStatus.CANCELLED:
            # Operator cancel or drain: persist best-so-far either way.
            store.write_result(job_id, result)
            if keeper.cancel_observed or job.cancel_requested:
                store.finalize_cancel(job_id, self.worker_id)
            else:
                store.requeue_drained(job_id, self.worker_id)
            return

        store.write_result(job_id, result)
        if solution.certificate is not None:
            store.write_certificate(
                job_id, solution.certificate.as_dict()
            )
        store.complete(
            job_id, self.worker_id, result_status=solution.status.value
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _heartbeat_for(self, job: Job, config) -> float:
        if config.heartbeat_seconds is not None:
            return config.heartbeat_seconds
        if self.heartbeat_seconds is not None:
            return self.heartbeat_seconds
        return self.store.lease_for(job) / _HEARTBEAT_FRACTION

    def _remaining_deadline(self, config, resume_from) -> float | None:
        """The seconds this attempt may spend.

        The worker owns the :class:`Budget` (the lease keeper needs its
        token), so the solver's own consumed-seconds carryover does not
        apply — replicate it here by reading the checkpoint directly.
        """
        deadline = config.deadline_seconds
        if deadline is None or resume_from is None:
            return deadline
        try:
            with open(resume_from, "r", encoding="utf-8") as handle:
                consumed = float(
                    json.load(handle).get("consumed_seconds", 0.0)
                )
        except (OSError, ValueError):
            consumed = 0.0
        return max(deadline - consumed, 1e-3)

    def _result_payload(self, job: Job, solution) -> dict:
        labels = {
            str(area): int(region)
            for area, region in solution.partition.labels().items()
        }
        return {
            "job_id": job.job_id,
            "worker_id": self.worker_id,
            "attempt": job.attempts,
            "summary": solution.summary(),
            "labels": labels,
        }
