"""FaCT Phase 3 — Tabu-search local optimization (Section V-C).

Starting from the construction phase's feasible partition, repeatedly
moves boundary areas between adjacent regions to minimize the overall
heterogeneity ``H(P)`` without ever violating a constraint or breaking
contiguity, and without changing ``p`` (donor regions never empty).

Classic Tabu mechanics (Glover & Laguna):

- each iteration executes the **best admissible move**, even when it
  worsens ``H`` (to escape local optima);
- the reverse of an executed move — (area, donor region) — is *tabu*
  for ``tabu_tenure`` iterations;
- **aspiration**: a tabu move is admissible anyway when it would beat
  the best heterogeneity seen so far;
- the search stops after ``tabu_max_no_improve`` consecutive
  iterations without improving the best ``H`` (paper default: the
  dataset size), or when no admissible move exists.

Candidate moves live in a **move table** maintained incrementally:
after a move, only regions whose state changed (donor, receiver,
neighbors of the moved area) have their moves re-derived, mirroring
the paper's "update the valid moves … in the region updated by the
previous move". Each donor's moves are one row of parallel (delta,
area, receiver) arrays sorted by the selection key, and all of an
iteration's dirty donors are derived in one batched call. The "best
admissible move" query merges the rows through a heap of per-donor
heads — about ``p`` entries, not one per move — taking moves in the
total order ``(delta, area, receiver, donor)``.

For the portfolio parallelism of :mod:`repro.fact.portfolio`, the
search accepts an optional seeded RNG plus a perturbation count:
``perturbation_moves`` random admissible moves are applied (and made
tabu) before the deterministic descent starts, diversifying the
portfolio members' starting points. The best snapshot is taken *before*
the kicks, so a member never returns something worse than its input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import accumulate
from random import Random

from ..core.aggregates import Aggregate
from ..core.partition import Partition
from ..obs.spans import NULL_TRACER
from ..core.region import Region
from ..runtime import Interrupted, RunStatus
from .config import FaCTConfig
from .state import SolutionState

__all__ = ["TabuResult", "tabu_improve"]


@dataclass
class TabuResult:
    """Outcome of the local-search phase.

    ``improvement`` is the paper's measure: ``|H_before - H_after| /
    H_before`` (0 when the construction heterogeneity was already 0).
    ``status`` is ``COMPLETE`` when the search reached its natural
    stopping condition, or the interruption status when a budget
    deadline/cancel cut it short — the returned partition is then the
    best one seen before the interruption (always constraint-valid;
    the search never stores an invalid snapshot).
    """

    partition: Partition
    heterogeneity_before: float
    heterogeneity_after: float
    iterations: int = 0
    moves_applied: int = 0
    elapsed_seconds: float = 0.0
    status: RunStatus = RunStatus.COMPLETE

    @property
    def improvement(self) -> float:
        """Relative heterogeneity improvement achieved by the search."""
        if self.heterogeneity_before == 0:
            return 0.0
        return (
            abs(self.heterogeneity_before - self.heterogeneity_after)
            / self.heterogeneity_before
        )


# A move is "take `area` out of region `donor_id` into region
# `receiver_id`"; its key omits the donor because an area belongs to
# exactly one region at a time.
_MoveKey = tuple[int, int]  # (area_id, receiver_region_id)

# The vectorized move scorer packs one (candidate, receiver) pair into
# a single int64 — the candidate's ordinal in the batch in the high
# bits, receiver region id in the low 31 (region ids are solve-local
# counters, nowhere near 2**31). Sorted codes decode to the scalar
# loop's (area asc, receiver asc) visit order, donor by donor.
_PAIR_SHIFT = 31
_PAIR_MASK = (1 << _PAIR_SHIFT) - 1
_NEG_INF = float("-inf")
_POS_INF = float("inf")

# Donors smaller than this take the scalar derive: the vector kernel
# pays a fixed cost per donor in a batch (candidate sort, donor-side
# segments, pricing slices) that only amortizes once the donor
# boundary yields a few dozen candidate pairs. Both kernels are
# bit-identical by contract, so this is purely a dispatch heuristic —
# small-region workloads (many tiny regions) run at scalar speed, the
# scaling benchmark's 250+-area regions always vectorize. Tests
# monkeypatch this to 0 to force the vector path on small fixtures,
# and past any donor size to force the scalar path on large ones.
_VECTOR_MIN_DONOR = 32

# In-search progress cadence: offer a `progress` event every this many
# iterations (the telemetry layer applies its own wall-clock bound on
# top, so short iterations cannot flood the event log).
_PROGRESS_ITERATIONS = 64


def tabu_improve(
    state: SolutionState,
    config: FaCTConfig,
    objective=None,
    budget=None,
    rng: Random | None = None,
    perturbation_moves: int = 0,
    tracer=None,
    telemetry=None,
) -> TabuResult:
    """Run Tabu search on *state* in place and return the best result.

    Parameters
    ----------
    objective:
        An :class:`repro.fact.objectives.Objective`; defaults to the
        paper's heterogeneity ``H(P)``. When a custom objective is
        used, the ``heterogeneity_before/after`` fields of the result
        carry *that objective's* scores.
    budget:
        Optional :class:`repro.runtime.Budget` checked at the top of
        every iteration; on deadline/cancel the search stops and
        returns the best snapshot so far with the interruption status.
    rng, perturbation_moves:
        Portfolio diversification: apply this many random admissible
        moves (chosen by *rng*, each made tabu) before the
        deterministic search starts. The best-seen snapshot is taken
        before the kicks, so the result is never worse than the input
        partition. ``perturbation_moves > 0`` requires an *rng*.
    tracer:
        Optional :class:`repro.obs.Tracer`; the search becomes one
        ``search`` span carrying iteration/score attributes.
    telemetry:
        Optional :class:`repro.obs.SolveTelemetry`; the search emits
        in-loop ``progress`` events (iterations against the iteration
        cap) every :data:`_PROGRESS_ITERATIONS` iterations, further
        rate-bounded by the telemetry layer. Emission is
        write-only — it never feeds back into move selection — so
        partitions stay bit-identical with telemetry on or off.
    """
    import time

    from .objectives import HeterogeneityObjective

    if tracer is None:
        tracer = NULL_TRACER
    emit_progress = telemetry is not None and getattr(
        telemetry, "enabled", False
    )
    with tracer.span("search") as search_span:
        started = time.perf_counter()
        n = len(state.collection)
        patience = config.resolved_tabu_patience(n)
        iteration_cap = config.resolved_tabu_cap(n)

        if objective is None:
            objective = HeterogeneityObjective()
        objective.attach(state)
        current_h = objective.total()
        initial_h = current_h
        best_h = current_h

        # Labels are maintained incrementally (O(1) per move) so a new-best
        # snapshot is one C-level dict copy instead of a Python pass over
        # the whole collection.
        labels = _initial_labels(state)
        best_labels = dict(labels)

        pool = _MovePool(state, objective)
        tabu_until: dict[_MoveKey, int] = {}
        iterations = 0
        moves_applied = 0
        no_improve = 0
        status = RunStatus.COMPLETE

        for _ in range(perturbation_moves):
            kick = pool.random_admissible(rng)
            if kick is None:
                break
            delta, area_id, donor_id, receiver_id = kick
            state.move(area_id, state.regions[receiver_id])
            labels[area_id] = receiver_id
            current_h += delta
            moves_applied += 1
            # The undo of a kick is tabu through the first `tenure`
            # iterations of the main loop (which counts from 1).
            tabu_until[(area_id, donor_id)] = config.tabu_tenure
            objective.apply_move(donor_id, receiver_id, area_id)
            pool.after_move(area_id, donor_id, receiver_id)

        while iterations < iteration_cap and no_improve < patience:
            if budget is not None:
                try:
                    budget.checkpoint("tabu.iteration")
                except Interrupted as signal:
                    status = signal.status
                    break
            iterations += 1
            chosen = pool.best_admissible(iterations, tabu_until, current_h, best_h)
            if chosen is None:
                break
            delta, area_id, donor_id, receiver_id = chosen
            receiver = state.regions[receiver_id]
            state.move(area_id, receiver)
            labels[area_id] = receiver_id
            current_h += delta
            moves_applied += 1
            # Forbid the reverse move for `tenure` iterations.
            tabu_until[(area_id, donor_id)] = iterations + config.tabu_tenure
            objective.apply_move(donor_id, receiver_id, area_id)
            pool.after_move(area_id, donor_id, receiver_id)
            if current_h < best_h - 1e-9:
                best_h = current_h
                best_labels = dict(labels)
                no_improve = 0
            else:
                no_improve += 1
            if emit_progress and iterations % _PROGRESS_ITERATIONS == 0:
                telemetry.progress(
                    "tabu.search",
                    done=iterations,
                    total=iteration_cap,
                    no_improve=no_improve,
                    patience=patience,
                )

        result = TabuResult(
            partition=Partition.from_labels(best_labels),
            heterogeneity_before=initial_h,
            heterogeneity_after=best_h,
            iterations=iterations,
            moves_applied=moves_applied,
            elapsed_seconds=time.perf_counter() - started,
            status=status,
        )
        if search_span.recording:
            search_span.set(
                iterations=iterations,
                moves_applied=moves_applied,
                heterogeneity_before=initial_h,
                heterogeneity_after=best_h,
                status=status.value,
            )
        return result


def _initial_labels(state: SolutionState) -> dict[int, int]:
    """Labels of the current assignment (excluded areas included as
    unassigned so the Partition covers the whole collection)."""
    labels: dict[int, int] = {}
    assignment = state.assignment
    for area_id in state.collection.ids:
        region_id = assignment.get(area_id)
        labels[area_id] = -1 if region_id is None else region_id
    return labels


def _region_blocks(region_ids, regions, np) -> list[tuple]:
    """``(region, start, end)`` of each run of equal ids in the sorted
    int array *region_ids*, resolved through *regions*."""
    if not len(region_ids):
        return []
    bounds = np.flatnonzero(region_ids[1:] != region_ids[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    return [
        (regions[region_id], start, end)
        for region_id, start, end in zip(
            region_ids[starts].tolist(),
            starts.tolist(),
            np.concatenate((bounds, [len(region_ids)])).tolist(),
        )
    ]


def _deviation_sums(blocks, d, np):
    """``sum_j |d - d_j|`` of each value in *d* over the members of
    the region owning its block, for *blocks* of ``(region, start,
    end)``: one ``searchsorted`` per block off the region's
    maintained sorted/prefix structure, then the closed form
    ``(rank·d − below) + (above − d·(g − rank))`` over every value
    at once — the batch form of ``Region._abs_deviation_sum``."""
    rank = np.empty(len(d), dtype=np.int64)
    below = np.empty(len(d), dtype=np.float64)
    total = np.empty(len(d), dtype=np.float64)
    size = np.empty(len(d), dtype=np.int64)
    for region, start, end in blocks:
        values, prefix = region._struct_arrays(np)
        block_rank = values.searchsorted(d[start:end], side="left")
        rank[start:end] = block_rank
        below[start:end] = prefix[block_rank]
        total[start:end] = prefix[-1]
        size[start:end] = len(values)
    above = total - below
    return (d * rank - below) + (above - d * (size - rank))


class _DerivedMoves:
    """One batched derive: per donor, the ``(deltas, areas, receivers)``
    row of its valid moves, ordered by the selection key.

    ``len()`` counts moves, not donors: the traced benchmark's
    ``moves_derived`` counter sums it per derive call.
    """

    __slots__ = ("rows", "moves")

    def __init__(self) -> None:
        self.rows: dict[int, tuple] = {}
        self.moves = 0

    def add(self, donor_id: int, row: tuple) -> None:
        self.rows[donor_id] = row
        self.moves += len(row[0])

    def __len__(self) -> int:
        return self.moves


_EMPTY_ROW: tuple = ((), (), ())


class _MovePool:
    """The tabu move table: every valid move, one row per donor region.

    A row is three parallel sequences — delta, area, receiver — sorted
    by ``(delta, area, receiver)``, the selection key minus the donor
    (constant within a row). Vector-kernel rows are numpy arrays,
    scalar-kernel rows plain lists; both index the same way.

    After an executed move only the regions whose *structure* changed
    are re-derived: the donor, the receiver, and regions containing a
    neighbor of the moved area (the only places where moves can appear
    or disappear). All of one iteration's dirty donors go through a
    single :meth:`_derive_moves` call. Rows of other donors can still
    carry stale receiver-side deltas — :meth:`best_admissible`
    therefore re-validates its chosen move against live state,
    dropping it or correcting its cached delta in place.

    Selection is a lazy k-way merge of the rows. The heap holds each
    donor's *head* — its least entry not yet popped — plus the tabu
    entries and corrected entries earlier queries pushed back, so it
    stays about ``p`` entries long. Popping a head pushes the next
    entry of its row; every entry a row holds behind its head orders
    after it, so the heap minimum is the minimum of the whole table.
    Entries carry the donor's generation stamp (bumped on every
    re-derive); entries of an older generation are skipped when popped
    and compacted away once they outnumber the live ones.
    """

    def __init__(self, state: SolutionState, objective):
        from .objectives import HeterogeneityObjective

        self._state = state
        self._objective = objective
        self._rows: dict[int, tuple] = {}
        # Row indexes live validation found invalid, per donor; the
        # donor's next derive starts a fresh row.
        self._dropped: dict[int, set[int]] = {}
        self._dirty: set[int] = set(state.regions)
        # Batch candidate scoring off the flat-array mirror, only for
        # the paper objective: its deltas close over the maintained
        # sorted/prefix structure the vector kernel prices against.
        self._vector = type(objective) is HeterogeneityObjective
        # Heap entries: (delta, area, receiver, donor, generation,
        # row index).
        self._heap: list[tuple[float, int, int, int, int, int]] = []
        self._generation: dict[int, int] = {}
        # Row index of each donor's head entry (== row length once the
        # row is exhausted).
        self._head: dict[int, int] = {}

    def after_move(self, area_id: int, donor_id: int, receiver_id: int) -> None:
        """Record the structural consequences of an executed move."""
        self._dirty.add(donor_id)
        self._dirty.add(receiver_id)
        assignment = self._state.assignment
        for neighbor in self._state.collection.neighbors(area_id):
            neighbor_region = assignment.get(neighbor)
            if neighbor_region is not None:
                self._dirty.add(neighbor_region)

    def _refresh(self) -> None:
        """Re-derive every dirty donor in one batch and install the
        new rows."""
        if not self._dirty:
            return
        regions = self._state.regions
        generation = self._generation
        donors: list[Region] = []
        for region_id in self._dirty:
            region = regions.get(region_id)
            if region is None:
                self._rows.pop(region_id, None)
                self._dropped.pop(region_id, None)
                generation[region_id] = generation.get(region_id, 0) + 1
            else:
                donors.append(region)
        self._dirty.clear()
        heap = self._heap
        for donor_id, row in self._derive_moves(donors).rows.items():
            self._rows[donor_id] = row
            self._dropped.pop(donor_id, None)
            generation[donor_id] = generation.get(donor_id, 0) + 1
            self._head[donor_id] = 0
            if len(row[0]):
                self._push(donor_id, 0)
        if len(heap) > 2 * len(self._rows) + 64:
            heap[:] = [
                entry for entry in heap if entry[4] == generation[entry[3]]
            ]
            heapify(heap)

    def _push(self, donor_id: int, index: int) -> None:
        """Push entry *index* of *donor_id*'s row onto the heap."""
        deltas, areas, receivers = self._rows[donor_id]
        heappush(
            self._heap,
            (
                float(deltas[index]),
                int(areas[index]),
                int(receivers[index]),
                donor_id,
                self._generation[donor_id],
                index,
            ),
        )

    def _derive_moves(self, donors: list[Region]) -> _DerivedMoves:
        """All valid moves donating a boundary area of one of *donors*
        to an adjacent region, with their heterogeneity deltas.

        Donors of at least ``_VECTOR_MIN_DONOR`` areas go through one
        batched numpy kernel call under the paper objective; smaller
        donors take the scalar loop, whose per-donor cost beats the
        vector kernel's fixed overhead there. Both kernels produce the
        same row for the same donor — same moves, same deltas bit for
        bit, same order — so the dispatch cannot change a trajectory.
        """
        derived = _DerivedMoves()
        batch: list[Region] = []
        for donor in donors:
            if self._vector and len(donor) >= _VECTOR_MIN_DONOR:
                batch.append(donor)
            else:
                derived.add(donor.region_id, self._derive_moves_scalar(donor))
        if batch:
            self._derive_moves_vector(batch, derived)
        return derived

    def _derive_moves_scalar(self, donor: Region) -> tuple:
        state = self._state
        constraints = state.constraints
        if len(donor) <= 1:
            return _EMPTY_ROW
        collection = state.collection
        assignment = state.assignment
        regions = state.regions
        perf = state.perf
        objective = self._objective
        moves: list[tuple[float, int, int]] = []
        # The region's contiguity oracle answers "who may leave?" for
        # every member at once (one cached Hopcroft–Tarjan pass instead
        # of a per-area BFS) — and the same cache then serves the O(1)
        # re-validation in _live_delta.
        removable = donor.removable_areas()
        donor_id = donor.region_id
        for area_id in sorted(donor.area_ids):
            if area_id not in removable:
                continue
            receiver_ids = {
                assignment[neighbor]
                for neighbor in collection.neighbors(area_id)
                if assignment.get(neighbor) is not None
            }
            receiver_ids.discard(donor_id)
            if not receiver_ids:
                continue
            if not donor.satisfies_after_remove(constraints, area_id):
                continue
            for receiver_id in sorted(receiver_ids):
                perf.candidate_evaluations += 1
                receiver = regions[receiver_id]
                if not receiver.satisfies_after_add(constraints, area_id):
                    continue
                moves.append(
                    (
                        objective.delta_move(donor, receiver, area_id),
                        area_id,
                        receiver_id,
                    )
                )
        if not moves:
            return _EMPTY_ROW
        moves.sort()
        deltas, areas, receivers = map(list, zip(*moves))
        return deltas, areas, receivers

    def _derive_moves_vector(
        self, donors: list[Region], derived: _DerivedMoves
    ) -> None:
        """Batch counterpart of :meth:`_derive_moves_scalar` over many
        donors at once.

        One concatenated CSR gather discovers every (candidate,
        receiver) pair of every donor boundary and one sort of packed
        int64 codes dedups them; donor- and receiver-side feasibility
        and the heterogeneity deltas are then elementwise float64
        arithmetic over the whole batch, segmented by donor or by
        receiver where a region's own structure is needed. Each step
        replays the exact scalar computation (``searchsorted`` ==
        ``bisect_left``, the same closed-form ``rank·d − prefix[rank]``
        pricing off the same maintained prefix lists, IEEE-identical
        elementwise ops), so every row is bit-identical to the scalar
        kernel's.
        """
        state = self._state
        astate = state.array_state
        arrays = astate.arrays
        np = arrays.np
        perf = state.perf

        # Candidates of every donor, concatenated donor by donor, each
        # donor's block in ascending area-id order.
        priced: list[Region] = []
        cand_ids: list[int] = []
        block_sizes: list[int] = []
        for donor in donors:
            if len(donor) <= 1:
                derived.add(donor.region_id, _EMPTY_ROW)
                continue
            perf.vector_derives += 1
            candidates = donor.removable_areas()
            if not candidates:
                derived.add(donor.region_id, _EMPTY_ROW)
                continue
            priced.append(donor)
            cand_ids.extend(sorted(candidates))
            block_sizes.append(len(candidates))
        if not priced:
            return
        block_ends = list(accumulate(block_sizes))
        blocks = list(zip(priced, [0] + block_ends[:-1], block_ends))
        cand_idx = arrays.positions(cand_ids)
        cand_slot = np.empty(len(cand_ids), dtype=np.int64)
        cand_donor = np.empty(len(cand_ids), dtype=np.int64)
        for slot, (donor, start, end) in enumerate(blocks):
            cand_slot[start:end] = slot
            cand_donor[start:end] = donor.region_id

        # Receiver discovery: the concatenated CSR neighbor columns of
        # every candidate row, one label gather over them.
        indptr = arrays.indptr
        starts = indptr[cand_idx]
        counts = indptr[cand_idx + 1] - starts
        flat = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        flat += np.arange(len(flat))
        owner = np.repeat(np.arange(len(cand_ids), dtype=np.int64), counts)
        neighbor_labels = astate.labels[arrays.indices[flat]]
        edge = (neighbor_labels >= 0) & (neighbor_labels != cand_donor[owner])
        # Unique (candidate, receiver) pairs: one sort of packed int64
        # codes, in (donor, area asc, receiver asc) order.
        codes = (owner[edge] << _PAIR_SHIFT) | neighbor_labels[edge]
        codes.sort()
        if len(codes) > 1:
            codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]

        donor_ok = self._feasible_after(
            False, blocks, cand_donor, cand_idx, np
        )
        codes = codes[donor_ok[codes >> _PAIR_SHIFT]]
        perf.candidate_evaluations += len(codes)

        # Receiver-major layout from here on: each receiver's pairs
        # are contiguous, so receiver-side work runs on slices.
        codes = codes[np.argsort(codes & _PAIR_MASK, kind="stable")]
        own = codes >> _PAIR_SHIFT
        recv = codes & _PAIR_MASK
        pair_idx = cand_idx[own]
        regions = state.regions
        ok = self._feasible_after(
            True, _region_blocks(recv, regions, np), recv, pair_idx, np
        )
        if not ok.all():
            codes = codes[ok]
            own = own[ok]
            recv = recv[ok]
            pair_idx = pair_idx[ok]
        # Mirror the scalar kernel's accounting: each priced pair would
        # have cost one donor-side and one receiver-side delta query.
        perf.delta_fastpath += 2 * len(codes)
        # Donor-side removal term per candidate, receiver-side addition
        # term per pair: the two halves of delta_move, summed in its
        # order.
        dissimilarity = arrays.dissimilarity
        remove_delta = -_deviation_sums(
            blocks, dissimilarity[cand_idx], np
        )
        if len(codes):
            deltas = remove_delta[own] + _deviation_sums(
                _region_blocks(recv, regions, np), dissimilarity[pair_idx], np
            )
            slot = cand_slot[own]
            # Row order: by donor, then the (delta, area, receiver)
            # key — the codes order areas, then receivers, in a donor.
            order = np.lexsort((codes, deltas, slot))
            deltas = deltas[order]
            areas = arrays.ids[pair_idx[order]]
            recv = recv[order]
            ends = np.cumsum(
                np.bincount(slot, minlength=len(priced))
            ).tolist()
        else:
            ends = [0] * len(priced)
        start = 0
        for donor, end in zip(priced, ends):
            if end == start:
                derived.add(donor.region_id, _EMPTY_ROW)
            else:
                derived.add(
                    donor.region_id,
                    (deltas[start:end], areas[start:end], recv[start:end]),
                )
            start = end

    def _feasible_after(self, adding, blocks, region_of, positions, np):
        """Elementwise ``satisfies_after_add`` (*adding*) or
        ``satisfies_after_remove`` of the area at each dense position
        in *positions* for the region at the same index of
        *region_of*; *blocks* are the ``(region, start, end)`` runs of
        *region_of*.

        SUM/AVG/COUNT read the flat per-region aggregate vectors the
        :class:`repro.core.arrays.ArrayState` sink maintains (bit-equal
        to the scalar :class:`~repro.core.aggregates.AggregateState`
        sums — ``check_indexes`` asserts exactly that); MIN/MAX read
        each region's cached extremum once per block.
        """
        astate = self._state.array_state
        combine = np.add if adding else np.subtract
        ok = np.ones(len(positions), dtype=bool)
        counts = None
        # One gather per distinct attribute — constraint sets reuse
        # attributes across aggregate families.
        gathered: dict[str, object] = {}
        sums: dict[str, object] = {}
        members: dict[int, object] = {}
        for constraint in self._state.constraints:
            aggregate = constraint.aggregate
            if aggregate == Aggregate.COUNT:
                if counts is None:
                    counts = astate.region_count[region_of]
                value = combine(counts, 1)
            else:
                attribute = constraint.attribute
                vals = gathered.get(attribute)
                if vals is None:
                    vals = astate.arrays.attributes[attribute][positions]
                    gathered[attribute] = vals
                if aggregate == Aggregate.SUM or aggregate == Aggregate.AVG:
                    total = sums.get(attribute)
                    if total is None:
                        total = astate.region_sums[attribute][region_of]
                        sums[attribute] = total
                    value = combine(total, vals)
                    if aggregate == Aggregate.AVG:
                        if counts is None:
                            counts = astate.region_count[region_of]
                        value = value / combine(counts, 1)
                else:
                    value = self._extremum_after(
                        adding, constraint, blocks, vals, members, np
                    )
            # Finite values never fail an infinite bound, so skip
            # those comparisons — half the verdict work for the
            # one-sided constraints that dominate real workloads.
            if constraint.lower != _NEG_INF:
                ok &= value >= constraint.lower
            if constraint.upper != _POS_INF:
                ok &= value <= constraint.upper
        return ok

    def _extremum_after(self, adding, constraint, blocks, vals, members, np):
        """Each element's region MIN/MAX after adding (*adding*) or
        removing its area, whose values are *vals*.

        A removed area holding its region's extremum leaves the
        region's multiset runner-up — the extremum itself when it is
        duplicated, exactly ``AggregateState.value_after_remove``.
        *members* memoizes each region's member positions across the
        constraints of one call.
        """
        astate = self._state.array_state
        attribute = constraint.attribute
        is_min = constraint.aggregate == Aggregate.MIN
        value = np.empty(len(vals), dtype=np.float64)
        for region, start, end in blocks:
            extremum = region._state(attribute)
            value[start:end] = extremum.min if is_min else extremum.max
        if adding:
            return (np.minimum if is_min else np.maximum)(value, vals)
        holders = vals <= value if is_min else vals >= value
        if not holders.any():
            return value
        for region, start, end in blocks:
            held = holders[start:end]
            if not held.any():
                continue
            positions = members.get(region.region_id)
            if positions is None:
                positions = members[region.region_id] = np.flatnonzero(
                    astate.labels == region.region_id
                )
            member_vals = astate.arrays.attributes[attribute][positions]
            if is_min:
                runner_up = np.partition(member_vals, 1)[1]
            else:
                runner_up = np.partition(member_vals, -2)[-2]
            value[start:end][held] = runner_up
        return value

    def _live_delta(
        self, area_id: int, donor_id: int, receiver_id: int
    ) -> float | None:
        """Re-evaluate one cached move against live region state.

        Returns the accurate delta, or ``None`` when the move is no
        longer valid."""
        state = self._state
        donor = state.regions.get(donor_id)
        receiver = state.regions.get(receiver_id)
        if donor is None or receiver is None or area_id not in donor:
            return None
        if len(donor) <= 1:
            return None
        if not receiver.touches(area_id):
            return None
        constraints = state.constraints
        if not donor.satisfies_after_remove(constraints, area_id):
            return None
        if not receiver.satisfies_after_add(constraints, area_id):
            return None
        if not donor.remains_contiguous_without(area_id):
            return None
        return self._objective.delta_move(donor, receiver, area_id)

    def cached_moves(self):
        """Every move in the table as ``(delta, area, receiver,
        donor)`` with its cached delta, donors ascending and each row
        in key order (dropped moves excluded)."""
        for donor_id in sorted(self._rows):
            deltas, areas, receivers = self._rows[donor_id]
            dropped = self._dropped.get(donor_id, ())
            for index in range(len(deltas)):
                if index not in dropped:
                    yield (
                        float(deltas[index]),
                        int(areas[index]),
                        int(receivers[index]),
                        donor_id,
                    )

    def random_admissible(
        self, rng: Random
    ) -> tuple[float, int, int, int] | None:
        """A uniformly random valid move as ``(delta, area, donor,
        receiver)`` — the portfolio perturbation kick. Deterministic in
        the *rng* state."""
        self._refresh()
        candidates = [
            (area_id, donor_id, receiver_id)
            for donor_id, area_id, receiver_id in sorted(
                (donor_id, area_id, receiver_id)
                for _, area_id, receiver_id, donor_id in self.cached_moves()
            )
        ]
        while candidates:
            area_id, donor_id, receiver_id = candidates.pop(
                rng.randrange(len(candidates))
            )
            live = self._live_delta(area_id, donor_id, receiver_id)
            if live is not None:
                return (live, area_id, donor_id, receiver_id)
        return None

    def best_admissible(
        self,
        iteration: int,
        tabu_until: dict[_MoveKey, int],
        current_h: float,
        best_h: float,
    ) -> tuple[float, int, int, int] | None:
        """The lowest-key admissible move as
        ``(delta, area, donor, receiver)``, or ``None``.

        Candidates pop in ``(delta, area, receiver, donor)`` order. A
        tabu move is admissible only when it would beat ``best_h``
        (aspiration); skipped ones go back on the heap after the
        query. The first admissible candidate is re-validated against
        live state: an invalid one is dropped, a stale delta is
        corrected in place and the candidate re-queued under its live
        key, and the query continues — so the returned move is always
        executable with an exact delta.
        """
        self._refresh()
        heap = self._heap
        generation = self._generation
        head = self._head
        rows = self._rows
        deferred: list[tuple[float, int, int, int, int, int]] = []
        chosen: tuple[float, int, int, int] | None = None
        while heap:
            entry = heappop(heap)
            delta, area_id, receiver_id, donor_id, stamp, index = entry
            if stamp != generation[donor_id]:
                continue  # donor re-derived since this entry was pushed
            if index == head[donor_id]:
                # The donor's head left the heap: its next entry is now
                # the least one the heap does not hold.
                head[donor_id] = following = index + 1
                if following < len(rows[donor_id][0]):
                    self._push(donor_id, following)
            if tabu_until.get((area_id, receiver_id), 0) >= iteration and (
                current_h + delta >= best_h - 1e-9
            ):
                deferred.append(entry)  # tabu now, maybe not next time
                continue
            live = self._live_delta(area_id, donor_id, receiver_id)
            if live is None:
                self._dropped.setdefault(donor_id, set()).add(index)
                continue
            if abs(live - delta) > 1e-9:
                rows[donor_id][0][index] = live
                heappush(
                    heap, (live, area_id, receiver_id, donor_id, stamp, index)
                )
                continue
            deferred.append(entry)  # the chosen move stays in the table
            chosen = (live, area_id, donor_id, receiver_id)
            break
        for entry in deferred:
            heappush(heap, entry)
        return chosen
