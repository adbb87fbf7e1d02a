"""FaCT solver configuration.

All tuning knobs the paper exposes (Section VII-A lists the defaults:
random area pickup, AVG merge limit 3, tabu list length 10, tabu
patience equal to the dataset size) plus reproducibility and safety
knobs specific to this implementation.
"""

from __future__ import annotations

import math
import numbers
import os
import random
from dataclasses import dataclass, field

from ..exceptions import BudgetError, InvalidConstraintError

__all__ = ["CertifyLevel", "FaCTConfig", "PickupCriterion"]

# Environment variable consulted when FaCTConfig.certify is None; lets
# a whole test/CI run opt into certification without touching code.
_CERTIFY_ENV = "REPRO_CERTIFY"

# Multiplier used to derive independent-but-deterministic seeds from
# rng_seed (also used by the parallel construction path).
_SEED_STRIDE = 1_000_003


def _require_integer(name: str, value) -> None:
    """Reject bools and non-integral numbers for integer knobs.

    ``bool`` is an ``int`` subclass, so ``n_jobs=True`` would otherwise
    slip through every range check as 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConstraintError(
            f"{name} must be an integer, got {value!r}"
        )


class CertifyLevel:
    """How much of a solve the independent certifier re-validates.

    - ``OFF`` — never certify (default).
    - ``FINAL`` — certify the final partition of every solve from
      first principles (:mod:`repro.certify`) before returning it.
    - ``PARANOID`` — additionally certify each phase boundary (the
      construction partition before Tabu takes over) and every
      degraded or interrupted best-so-far return.
    """

    OFF = "off"
    FINAL = "final"
    PARANOID = "paranoid"

    @classmethod
    def validate(cls, value: str) -> str:
        """Return the canonical value or raise for unknown levels."""
        value = str(value).lower()
        if value not in (cls.OFF, cls.FINAL, cls.PARANOID):
            raise InvalidConstraintError(
                f"unknown certify level {value!r}; expected "
                f"{cls.OFF!r}, {cls.FINAL!r} or {cls.PARANOID!r}"
            )
        return value


class PickupCriterion:
    """How Step 2 chooses among candidate neighbor regions/areas.

    - ``RANDOM`` — the paper's default ("area pickup criteria are
      random"): a uniformly random valid candidate.
    - ``BEST`` — the candidate minimizing the heterogeneity increase,
      trading construction time for a better starting point.
    """

    RANDOM = "random"
    BEST = "best"

    @classmethod
    def validate(cls, value: str) -> str:
        """Return the canonical value or raise for unknown criteria."""
        value = str(value).lower()
        if value not in (cls.RANDOM, cls.BEST):
            raise InvalidConstraintError(
                f"unknown pickup criterion {value!r}; expected "
                f"{cls.RANDOM!r} or {cls.BEST!r}"
            )
        return value


@dataclass
class FaCTConfig:
    """Configuration for one :class:`repro.fact.solver.FaCT` run.

    Parameters
    ----------
    rng_seed:
        Seed for every randomized decision (construction order
        shuffles, random pickups). Runs are deterministic in it.
    construction_iterations:
        Number of independent construction passes; the pass with the
        largest ``p`` (ties: fewest unassigned areas) wins (Section
        V-B: "Each iteration produces a feasible partition, and we
        maintain the partition with the highest p value").
    merge_limit:
        Maximum merge trials per area in Round 2 of Substep 2.2 — the
        guard against oversized regions (paper default 3).
    pickup:
        Candidate-selection criterion, see :class:`PickupCriterion`.
    enable_tabu:
        Run the local-search phase. Disable to measure construction in
        isolation (as the paper's runtime breakdowns do).
    tabu_tenure:
        Length of the tabu list (paper default 10).
    tabu_max_no_improve:
        Stop after this many consecutive non-improving moves; ``None``
        means "dataset size n", the paper's default.
    tabu_max_iterations:
        Hard safety cap on total tabu iterations; ``None`` means
        ``20 * n``.
    strict_avg_feasibility:
        Treat a global AVG outside the constraint range as a hard
        infeasibility (Theorem 3). Off by default because EMP permits
        unassigned areas, so a solution may still exist; the condition
        is always reported as a warning.
    n_jobs:
        Worker processes for the parallel parts of a solve (the
        paper's stated future work: "further improve the algorithm
        performance through parallelization"): construction passes
        fan out across the pool, and the Tabu portfolio (see
        ``tabu_portfolio``) runs its members there too. ``1``
        (default) executes everything in-process. The *result* is
        invariant to ``n_jobs``: every pass and every portfolio
        member gets its own seed derived from ``rng_seed`` and its
        index — identical in serial and parallel execution — and
        reductions break ties deterministically, so a fixed
        ``rng_seed`` yields a bit-identical partition at any worker
        count.
    tabu_portfolio:
        Number of independently seeded Tabu searches to run over the
        best construction passes (a portfolio: member 0 starts from
        the winning pass unperturbed, further members start from the
        runner-up passes and/or apply seeded perturbation kicks). The
        best member — lowest final objective, ties to the lowest
        member index — wins. ``1`` (default) keeps the single
        deterministic search. Members execute on the ``n_jobs``
        worker pool when available, serially otherwise; either way
        the result is identical.
    deadline_seconds:
        Wall-clock budget for one :meth:`FaCT.solve` call (``None`` =
        unlimited). On expiry the solver stops at the next checkpoint
        and returns the best-so-far solution flagged with
        ``RunStatus.DEADLINE_EXCEEDED`` — see :mod:`repro.runtime`.
    strict_interrupt:
        Raise :class:`repro.exceptions.SolverInterrupted` (carrying the
        partial solution) on deadline/cancel instead of returning the
        flagged solution. Off by default: services generally prefer the
        best-so-far answer.
    construction_retry_attempts:
        Extra construction attempts (with seeds derived from
        ``rng_seed``) when a construction yields a degenerate
        partition — ``p == 0`` or more than
        ``degenerate_unassigned_ratio`` of the valid areas left
        unassigned. Every attempt is recorded in
        ``EMPSolution.attempts`` and the best one wins. ``0`` disables
        the retry policy.
    degenerate_unassigned_ratio:
        Unassigned-to-valid-areas ratio above which a constructed
        partition counts as degenerate (in ``(0, 1]``).
    certify:
        Independent-certification level, see :class:`CertifyLevel`
        (``"off"``/``"final"``/``"paranoid"``). ``None`` (default)
        defers to the ``REPRO_CERTIFY`` environment variable, falling
        back to ``"off"``. A failed certification raises
        :class:`repro.exceptions.CertificationError` carrying the
        :class:`repro.certify.Certificate` with per-region violations.
    checkpoint_path:
        Path of the atomic solve-checkpoint file
        (:class:`repro.fact.checkpointing.SolveLedger`). When set, each
        completed construction pass and portfolio member is snapshotted
        there; a killed solve can then continue bit-identically via
        ``FaCT.solve(resume_from=...)``. The file is deleted after a
        COMPLETE solve. ``None`` (default) disables checkpointing.
    trace_path:
        Path of the JSONL telemetry event log
        (:class:`repro.obs.SolveTelemetry`). When set, the solve
        records its span tree, event log and per-phase metric
        snapshots there (inspect with ``python -m repro obs report``).
        ``None`` (default) disables telemetry entirely — the solver
        runs through no-op instruments.
    metrics_path:
        Path for the final metrics snapshot. ``.prom``/``.txt`` files
        get Prometheus text exposition, anything else JSON. Implies
        telemetry on (even without ``trace_path``).
    worker_task_deadline_seconds:
        Per-task wall-clock deadline on the worker pool. A pass or
        portfolio member still unfinished after this long is abandoned
        (its eventual result ignored) and re-run in-process — the
        guard against a wedged worker stalling the whole solve. ``None``
        (default) trusts the run-level budget alone.
    pool_task_retries:
        How many times a failed worker task (crash, unpicklable
        result, broken pool) is resubmitted before being degraded to
        in-process execution. Degradation preserves determinism: the
        same task function runs on the same arguments either way.
        Together with ``pool_retry_backoff_seconds`` this defines the
        pool's :class:`repro.runtime.RetryPolicy` (see
        :meth:`pool_retry_policy`).
    pool_retry_backoff_seconds:
        Base delay before a failed worker task's first resubmission;
        further resubmissions back off exponentially with
        deterministic jitter. ``0`` (default) retries immediately —
        the historical behaviour, right for in-process pools where the
        run budget is already ticking.
    checkpoint_keep_on_complete:
        Keep the solve-checkpoint file after a COMPLETE solve instead
        of deleting it. Off by default (a finished run must not be
        resumable into a stale answer); the solve service turns it on
        to archive each job's final checkpoint for audit.
    lease_seconds:
        When this solve runs as a service job: how long one worker's
        lease on the job lasts before the service may re-queue it.
        ``None`` (default) defers to the service's own default. The
        solver itself never reads it — it rides on the config so one
        object fully describes a job's execution contract.
    heartbeat_seconds:
        Lease-renewal interval of the service worker executing this
        solve; must be positive and smaller than ``lease_seconds``
        when both are set. ``None`` (default) defers to the service.
    preflight:
        Run the :mod:`repro.preflight` gate (structure scan +
        per-constraint relaxation diagnosis) before construction. On
        by default: a provably-infeasible instance is rejected with a
        structured :class:`repro.preflight.PreflightReport` — with
        per-constraint slack/deficit numbers — before any solver
        budget is spent. Off restores the bare Phase-1 behaviour.
    decompose_components:
        Solve a disconnected geography per connected component and
        merge the partitions (islands become a first-class scenario).
        Each component is solved with the same ``rng_seed`` and the
        shared budget, in ascending smallest-member-id order, then the
        labels are merged through the canonical
        :meth:`~repro.fact.state.SolutionState.from_labels` rebuild —
        so the merged partition is bit-identical at any ``n_jobs``.
        The final certificate carries per-component provenance. Off by
        default (the classic solver already copes
        with multi-component datasets by growing regions inside
        components); requires ``preflight``. Not compatible with
        checkpoint/resume — when a ``checkpoint_path`` is set the
        decomposed solve runs without snapshots.
    """

    rng_seed: int = 0
    construction_iterations: int = 3
    merge_limit: int = 3
    pickup: str = PickupCriterion.RANDOM
    enable_tabu: bool = True
    tabu_tenure: int = 10
    tabu_max_no_improve: int | None = None
    tabu_max_iterations: int | None = None
    strict_avg_feasibility: bool = False
    n_jobs: int = 1
    tabu_portfolio: int = 1
    deadline_seconds: float | None = None
    strict_interrupt: bool = False
    construction_retry_attempts: int = 2
    degenerate_unassigned_ratio: float = 0.95
    certify: str | None = None
    checkpoint_path: str | None = None
    trace_path: str | None = None
    metrics_path: str | None = None
    worker_task_deadline_seconds: float | None = None
    pool_task_retries: int = 1
    pool_retry_backoff_seconds: float = 0.0
    checkpoint_keep_on_complete: bool = False
    lease_seconds: float | None = None
    heartbeat_seconds: float | None = None
    preflight: bool = True
    decompose_components: bool = False

    def __post_init__(self) -> None:
        self.pickup = PickupCriterion.validate(self.pickup)
        for name in (
            "rng_seed",
            "construction_iterations",
            "merge_limit",
            "tabu_tenure",
            "n_jobs",
            "tabu_portfolio",
            "construction_retry_attempts",
        ):
            _require_integer(name, getattr(self, name))
        if self.construction_iterations < 1:
            raise InvalidConstraintError("construction_iterations must be >= 1")
        if self.merge_limit < 0:
            raise InvalidConstraintError("merge_limit must be >= 0")
        if self.tabu_tenure < 0:
            raise InvalidConstraintError("tabu_tenure must be >= 0")
        for name in ("tabu_max_no_improve", "tabu_max_iterations"):
            value = getattr(self, name)
            if value is not None:
                _require_integer(name, value)
                if value < 0:
                    raise InvalidConstraintError(f"{name} must be >= 0 or None")
        if self.n_jobs < 1:
            raise InvalidConstraintError("n_jobs must be >= 1")
        if self.tabu_portfolio < 1:
            raise InvalidConstraintError("tabu_portfolio must be >= 1")
        if self.deadline_seconds is not None:
            if isinstance(self.deadline_seconds, bool) or not isinstance(
                self.deadline_seconds, numbers.Real
            ):
                raise BudgetError(
                    "deadline_seconds must be a positive number or None, "
                    f"got {self.deadline_seconds!r}"
                )
            self.deadline_seconds = float(self.deadline_seconds)
            if (
                not math.isfinite(self.deadline_seconds)
                or self.deadline_seconds <= 0
            ):
                raise BudgetError(
                    "deadline_seconds must be positive and finite, got "
                    f"{self.deadline_seconds!r}"
                )
        if self.construction_retry_attempts < 0:
            raise InvalidConstraintError(
                "construction_retry_attempts must be >= 0"
            )
        ratio = self.degenerate_unassigned_ratio
        if (
            isinstance(ratio, bool)
            or not isinstance(ratio, numbers.Real)
            or not 0 < float(ratio) <= 1
        ):
            raise BudgetError(
                f"degenerate_unassigned_ratio must be in (0, 1], got {ratio!r}"
            )
        self.degenerate_unassigned_ratio = float(ratio)
        if self.certify is not None:
            self.certify = CertifyLevel.validate(self.certify)
        if self.checkpoint_path is not None:
            self.checkpoint_path = os.fspath(self.checkpoint_path)
        if self.trace_path is not None:
            self.trace_path = os.fspath(self.trace_path)
        if self.metrics_path is not None:
            self.metrics_path = os.fspath(self.metrics_path)
        if self.worker_task_deadline_seconds is not None:
            value = self.worker_task_deadline_seconds
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(float(value))
                or float(value) <= 0
            ):
                raise BudgetError(
                    "worker_task_deadline_seconds must be positive and "
                    f"finite or None, got {value!r}"
                )
            self.worker_task_deadline_seconds = float(value)
        _require_integer("pool_task_retries", self.pool_task_retries)
        if self.pool_task_retries < 0:
            raise BudgetError("pool_task_retries must be >= 0")
        backoff = self.pool_retry_backoff_seconds
        if (
            isinstance(backoff, bool)
            or not isinstance(backoff, numbers.Real)
            or not math.isfinite(float(backoff))
            or float(backoff) < 0
        ):
            raise BudgetError(
                "pool_retry_backoff_seconds must be finite and >= 0, got "
                f"{backoff!r}"
            )
        self.pool_retry_backoff_seconds = float(backoff)
        if not isinstance(self.checkpoint_keep_on_complete, bool):
            raise InvalidConstraintError(
                "checkpoint_keep_on_complete must be a bool, got "
                f"{self.checkpoint_keep_on_complete!r}"
            )
        for name in ("preflight", "decompose_components"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidConstraintError(
                    f"{name} must be a bool, got {getattr(self, name)!r}"
                )
        if self.decompose_components and not self.preflight:
            raise InvalidConstraintError(
                "decompose_components requires preflight (the component "
                "scan is what drives the decomposition)"
            )
        # Service-execution knobs: leases and heartbeats make no sense
        # at zero or below — a zero-length lease expires the instant it
        # is granted and a non-positive heartbeat spins.
        for name in ("lease_seconds", "heartbeat_seconds"):
            value = getattr(self, name)
            if value is None:
                continue
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(float(value))
                or float(value) <= 0
            ):
                raise BudgetError(
                    f"{name} must be positive and finite or None, got "
                    f"{value!r}"
                )
            setattr(self, name, float(value))
        if (
            self.lease_seconds is not None
            and self.heartbeat_seconds is not None
            and self.heartbeat_seconds >= self.lease_seconds
        ):
            raise BudgetError(
                "heartbeat_seconds must be smaller than lease_seconds "
                f"(got heartbeat={self.heartbeat_seconds!r}, "
                f"lease={self.lease_seconds!r}); a heartbeat that cannot "
                "outrun its own lease guarantees spurious lease expiry"
            )

    def certify_level(self) -> str:
        """The effective certification level: the explicit
        :attr:`certify` value, else ``REPRO_CERTIFY`` from the
        environment, else ``"off"``."""
        if self.certify is not None:
            return self.certify
        env = os.environ.get(_CERTIFY_ENV, "").strip().lower()
        if env:
            return CertifyLevel.validate(env)
        return CertifyLevel.OFF

    def pool_retry_policy(self):
        """The worker pool's :class:`repro.runtime.RetryPolicy`:
        ``pool_task_retries`` resubmissions after the first attempt,
        backing off from ``pool_retry_backoff_seconds``."""
        from ..runtime.retry import RetryPolicy

        return RetryPolicy(
            max_attempts=self.pool_task_retries + 1,
            base_delay_seconds=self.pool_retry_backoff_seconds,
        )

    def make_rng(self) -> random.Random:
        """A fresh RNG seeded from :attr:`rng_seed`."""
        return random.Random(self.rng_seed)

    def resolved_tabu_patience(self, n_areas: int) -> int:
        """The effective non-improvement patience for *n_areas*."""
        if self.tabu_max_no_improve is not None:
            return self.tabu_max_no_improve
        return n_areas

    def resolved_tabu_cap(self, n_areas: int) -> int:
        """The effective hard iteration cap for *n_areas*."""
        if self.tabu_max_iterations is not None:
            return self.tabu_max_iterations
        return 20 * n_areas

    def derived_seed(self, attempt: int) -> int:
        """Deterministic seed for retry *attempt* (0 = ``rng_seed``).

        Strided so retry streams are independent of both the base seed
        and the parallel path's per-pass seeds.
        """
        return self.rng_seed + _SEED_STRIDE * attempt

    def derived_pass_seed(self, index: int) -> int:
        """Deterministic seed for construction pass *index*.

        Used identically by the serial and the parallel construction
        paths, so a pass produces the same partition regardless of
        where it executes.
        """
        return self.rng_seed * _SEED_STRIDE + index

    def derived_tabu_seed(self, member: int) -> int:
        """Deterministic perturbation seed for portfolio member
        *member*, independent of the construction pass seeds (7919 is
        prime and far from the pass-index increments)."""
        return self.rng_seed * _SEED_STRIDE + 7919 * (member + 1)
