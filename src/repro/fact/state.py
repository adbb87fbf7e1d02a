"""Mutable solution state shared by the FaCT phases.

A :class:`SolutionState` tracks, during construction and local search:

- the live :class:`~repro.core.region.Region` objects, keyed by id;
- the area → region assignment (``None`` = currently unassigned);
- the permanently excluded areas (``U_0`` from invalid-area filtering).

It provides the transactional primitives the phases are written in
terms of — create/dissolve regions, assign/unassign areas, merge two
regions — each of which keeps assignment and region bookkeeping
consistent, and a :meth:`to_partition` snapshot.

Hot-path indexes
----------------
The phases' inner loops ask, thousands of times per iteration, "which
unassigned areas border this region?", "which regions border this
region?" and "which of a donor's members touch this receiver?". Each
used to be answered by scanning every member's adjacency list —
O(|R| · degree) per query. The state now maintains two incremental
indexes, updated in O(degree) at every mutation primitive:

- ``_border``: per region, the *non-member* areas adjacent to it, each
  with the count of member neighbors backing it (counts make
  decremental updates exact);
- ``_region_adj``: per region, the adjacent regions with the number of
  shared boundary edges.

Every query sorts its result, so answers are deterministic.
:meth:`check_indexes` re-derives both indexes from scratch and asserts
equality; the property-test suite calls it after randomized mutation
sequences.

Every state also carries an :class:`~repro.core.arrays.ArrayState`,
the flat-array mirror of its assignment that the vectorized Tabu
scorer and batched growing read.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from ..core import arrays as arrays_mod
from ..core.area import AreaCollection
from ..core.constraints import ConstraintSet
from ..core.partition import Partition
from ..core.perf import PerfCounters
from ..core.region import Region
from ..exceptions import InvalidAreaError

__all__ = ["SolutionState"]


class SolutionState:
    """Live solver state over a collection and a constraint set.

    Parameters
    ----------
    collection:
        The full area collection.
    constraints:
        The query; its attributes determine which aggregates every
        region tracks.
    excluded:
        Areas removed by the feasibility phase — they are reported in
        ``U_0`` and never assigned.
    perf:
        Optional shared :class:`~repro.core.perf.PerfCounters`; one is
        created when omitted. Every region this state creates counts
        into it.
    """

    def __init__(
        self,
        collection: AreaCollection,
        constraints: ConstraintSet,
        excluded: Iterable[int] = (),
        perf: PerfCounters | None = None,
    ):
        self.collection = collection
        self.constraints = constraints
        self.tracked = tuple(sorted(constraints.attributes()))
        self.excluded: frozenset[int] = frozenset(excluded)
        for area_id in self.excluded:
            if area_id not in collection:
                raise InvalidAreaError(f"excluded unknown area {area_id}")
        self.regions: dict[int, Region] = {}
        self.assignment: dict[int, int | None] = {
            area_id: None
            for area_id in collection.ids
            if area_id not in self.excluded
        }
        self._unassigned: set[int] = set(self.assignment)
        self._next_region_id = 0
        self.perf = perf if perf is not None else PerfCounters()
        # Every region this state creates mirrors its mutations into
        # the flat-array state the vectorized Tabu scorer batch-reads.
        # The mirror is written from the same Region call sites that
        # update the scalar aggregates, so both views accumulate
        # bit-identically.
        self._array_state = arrays_mod.ArrayState(
            arrays_mod.collection_arrays(collection),
            self.tracked,
            excluded=self.excluded,
        )
        # region id -> {adjacent non-member area -> #member neighbors}
        self._border: dict[int, dict[int, int]] = {}
        # region id -> {adjacent region id -> #shared boundary edges}
        self._region_adj: dict[int, dict[int, int]] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def unassigned(self) -> frozenset[int]:
        """Snapshot of the currently unassigned (but valid) areas."""
        return frozenset(self._unassigned)

    @property
    def n_unassigned(self) -> int:
        """Count of currently unassigned valid areas."""
        return len(self._unassigned)

    @property
    def p(self) -> int:
        """Current number of regions."""
        return len(self.regions)

    @property
    def array_state(self) -> arrays_mod.ArrayState:
        """The flat-array mirror of the assignment."""
        return self._array_state

    def region_of(self, area_id: int) -> Region | None:
        """The region an area belongs to, or ``None``."""
        region_id = self.assignment.get(area_id)
        if region_id is None:
            return None
        return self.regions[region_id]

    def is_unassigned(self, area_id: int) -> bool:
        """True when the area is valid and not in any region."""
        return area_id in self._unassigned

    def iter_regions(self) -> Iterator[Region]:
        """Iterate over the live regions."""
        return iter(self.regions.values())

    def neighbor_regions(self, area_id: int) -> list[Region]:
        """Distinct regions spatially adjacent to one area, in region-id
        order."""
        region_ids = {
            region_id
            for neighbor in self.collection.neighbors(area_id)
            if (region_id := self.assignment.get(neighbor)) is not None
        }
        return [self.regions[region_id] for region_id in sorted(region_ids)]

    def adjacent_regions(self, region: Region) -> list[Region]:
        """Distinct regions sharing a boundary with *region*, in
        region-id order (served by the adjacency index)."""
        self.perf.adjacency_queries += 1
        region_ids = self._region_adj.get(region.region_id, {})
        return [self.regions[rid] for rid in sorted(region_ids)]

    def unassigned_neighbors(self, region: Region) -> list[int]:
        """Unassigned areas on *region*'s spatial frontier, in area-id
        order (served by the frontier index)."""
        self.perf.frontier_queries += 1
        border = self._border.get(region.region_id, {})
        return sorted(a for a in border if a in self._unassigned)

    def donor_boundary(self, donor: Region, receiver: Region) -> list[int]:
        """Members of *donor* spatially adjacent to *receiver*, in
        area-id order — the candidate pool of a Step-3 swap, read off
        the receiver's border index instead of rescanning every donor
        member."""
        self.perf.frontier_queries += 1
        donor_id = donor.region_id
        border = self._border.get(receiver.region_id, {})
        return sorted(a for a in border if self.assignment.get(a) == donor_id)

    # ------------------------------------------------------------------
    # index maintenance (all O(degree of the touched area))
    # ------------------------------------------------------------------
    def _index_new_region(self, region_id: int) -> None:
        self._border[region_id] = {}
        self._region_adj[region_id] = {}

    def _index_drop_region(self, region_id: int) -> None:
        self._border.pop(region_id, None)
        for other_id in self._region_adj.pop(region_id, {}):
            self._region_adj[other_id].pop(region_id, None)

    def _index_add_member(self, region_id: int, area_id: int) -> None:
        """Record that *area_id* just became a member of *region_id*.

        Must run after both the region's membership and
        ``assignment[area_id]`` are updated.
        """
        self.perf.index_updates += 1
        border = self._border[region_id]
        adjacency = self._region_adj[region_id]
        border.pop(area_id, None)  # now internal
        for neighbor in self.collection.neighbors(area_id):
            neighbor_region = self.assignment.get(neighbor)
            if neighbor_region == region_id:
                continue  # internal edge
            border[neighbor] = border.get(neighbor, 0) + 1
            if neighbor_region is not None:
                adjacency[neighbor_region] = (
                    adjacency.get(neighbor_region, 0) + 1
                )
                other = self._region_adj[neighbor_region]
                other[region_id] = other.get(region_id, 0) + 1

    def _index_remove_member(self, region_id: int, area_id: int) -> None:
        """Record that *area_id* just left *region_id*.

        Must run after the region's membership and
        ``assignment[area_id]`` are updated (the area's own assignment
        is never consulted, only its neighbors').
        """
        self.perf.index_updates += 1
        border = self._border[region_id]
        adjacency = self._region_adj[region_id]
        member_edges = 0
        for neighbor in self.collection.neighbors(area_id):
            neighbor_region = self.assignment.get(neighbor)
            if neighbor_region == region_id:
                member_edges += 1
                continue
            count = border.get(neighbor, 0) - 1
            if count > 0:
                border[neighbor] = count
            else:
                border.pop(neighbor, None)
            if neighbor_region is not None:
                self._decrement_adjacency(adjacency, neighbor_region)
                self._decrement_adjacency(
                    self._region_adj[neighbor_region], region_id
                )
        if member_edges:
            border[area_id] = member_edges

    @staticmethod
    def _decrement_adjacency(adjacency: dict[int, int], key: int) -> None:
        count = adjacency.get(key, 0) - 1
        if count > 0:
            adjacency[key] = count
        else:
            adjacency.pop(key, None)

    def check_indexes(self) -> None:
        """Assert the indexes and the array mirror match rederivations.

        O(n · degree) — a test/debug aid, never called on hot paths.
        Raises ``AssertionError`` on any divergence. This also validates
        the flat-array state (labels vector vs region membership,
        aggregate vectors vs recomputed sums), so mirror drift is caught
        at the first divergent mutation instead of at certification.
        """
        self._check_array_state()
        neighbors = self.collection.neighbors
        for region_id, region in self.regions.items():
            members = region.area_ids
            expected_border: dict[int, int] = {}
            expected_adjacency: dict[int, int] = {}
            for member in members:
                for neighbor in neighbors(member):
                    if neighbor in members:
                        continue
                    expected_border[neighbor] = (
                        expected_border.get(neighbor, 0) + 1
                    )
                    other = self.assignment.get(neighbor)
                    if other is not None:
                        expected_adjacency[other] = (
                            expected_adjacency.get(other, 0) + 1
                        )
            assert self._border.get(region_id) == expected_border, (
                f"border index diverged for region {region_id}: "
                f"{self._border.get(region_id)} != {expected_border}"
            )
            assert self._region_adj.get(region_id) == expected_adjacency, (
                f"adjacency index diverged for region {region_id}: "
                f"{self._region_adj.get(region_id)} != {expected_adjacency}"
            )
        assert set(self._border) == set(self.regions), (
            "border index tracks dead regions: "
            f"{set(self._border) ^ set(self.regions)}"
        )
        assert set(self._region_adj) == set(self.regions), (
            "adjacency index tracks dead regions: "
            f"{set(self._region_adj) ^ set(self.regions)}"
        )

    def _check_array_state(self) -> None:
        """Assert the array mirror matches the object graph exactly."""
        astate = self._array_state

        arrays = astate.arrays
        for area_id, position in arrays.index.items():
            label = int(astate.labels[position])
            if area_id in self.excluded:
                expected = arrays_mod.EXCLUDED
            else:
                assigned = self.assignment.get(area_id)
                expected = (
                    arrays_mod.UNASSIGNED if assigned is None else assigned
                )
            assert label == expected, (
                f"label vector diverged for area {area_id}: "
                f"{label} != {expected}"
            )
        live = set(self.regions)
        for region_id in range(len(astate.region_count)):
            if region_id in live:
                continue
            assert int(astate.region_count[region_id]) == 0, (
                f"count vector tracks dead region {region_id}: "
                f"{int(astate.region_count[region_id])}"
            )
            for name in astate.tracked:
                assert float(astate.region_sums[name][region_id]) == 0.0, (
                    f"sum vector {name!r} tracks dead region {region_id}"
                )
        for region_id, region in self.regions.items():
            count = int(astate.region_count[region_id])
            assert count == len(region), (
                f"count vector diverged for region {region_id}: "
                f"{count} != {len(region)}"
            )
            for name in astate.tracked:
                mirrored = float(astate.region_sums[name][region_id])
                maintained = region.aggregate("SUM", name)
                # Same call sites, same accumulation order: the mirror
                # must equal the scalar aggregate bit for bit.
                assert mirrored == maintained, (
                    f"sum vector {name!r} diverged for region "
                    f"{region_id}: {mirrored!r} != {maintained!r}"
                )
                recomputed = sum(
                    self.collection.attribute(area_id, name)
                    for area_id in sorted(region.area_ids)
                )
                assert math.isclose(
                    mirrored, recomputed, rel_tol=1e-9, abs_tol=1e-6
                ), (
                    f"sum vector {name!r} drifted from recomputed sum "
                    f"for region {region_id}: {mirrored!r} vs "
                    f"{recomputed!r}"
                )

    # ------------------------------------------------------------------
    # construction from snapshots
    # ------------------------------------------------------------------
    @classmethod
    def from_labels(
        cls,
        collection: AreaCollection,
        constraints: ConstraintSet,
        labels: dict[int, int],
        excluded: Iterable[int] = (),
        perf: PerfCounters | None = None,
    ) -> "SolutionState":
        """Rebuild a live state from an area → region-label snapshot.

        The rebuild is **canonical**: regions are renumbered
        ``0..p-1`` ordered by their smallest member area id, and each
        region's areas are inserted in ascending id order. Two
        snapshots describing the same partition under different label
        values therefore rebuild into bit-identical states — every
        incrementally accumulated float (aggregates, heterogeneity,
        objective sums) sees the same insertion sequence. This is what
        makes solver results invariant to *where* a partition was
        produced (serial pass, worker process, portfolio member):
        downstream tie-breaking on region ids sees the same ids
        everywhere.

        Labels that are ``None`` or negative mean "unassigned".
        """
        state = cls(collection, constraints, excluded=excluded, perf=perf)
        groups: dict[int, list[int]] = {}
        for area_id in sorted(labels):
            label = labels[area_id]
            if label is None or label < 0:
                continue
            groups.setdefault(label, []).append(area_id)
        for label in sorted(groups, key=lambda key: groups[key][0]):
            state.new_region(groups[label])
        return state

    # ------------------------------------------------------------------
    # mutation primitives
    # ------------------------------------------------------------------
    def new_region(self, areas: Iterable[int] = ()) -> Region:
        """Create a region from currently-unassigned areas."""
        region_id = self._next_region_id
        self._next_region_id += 1
        region = Region(
            region_id,
            self.collection,
            self.tracked,
            perf=self.perf,
            array_state=self._array_state,
        )
        self.regions[region_id] = region
        self._index_new_region(region_id)
        for area_id in areas:
            self.assign(area_id, region)
        return region

    def assign(self, area_id: int, region: Region) -> None:
        """Move an unassigned area into *region*."""
        if area_id not in self._unassigned:
            raise InvalidAreaError(
                f"area {area_id} is not unassigned (excluded or assigned)"
            )
        region.add_area(area_id)
        self.assignment[area_id] = region.region_id
        self._unassigned.discard(area_id)
        self._index_add_member(region.region_id, area_id)

    def unassign(self, area_id: int) -> None:
        """Remove an area from its region back to the unassigned pool."""
        region = self.region_of(area_id)
        if region is None:
            raise InvalidAreaError(f"area {area_id} is not assigned")
        region.remove_area(area_id)
        self.assignment[area_id] = None
        self._unassigned.add(area_id)
        self._index_remove_member(region.region_id, area_id)
        if len(region) == 0:
            del self.regions[region.region_id]
            self._index_drop_region(region.region_id)

    def move(self, area_id: int, target: Region) -> None:
        """Move an assigned area directly into another region."""
        source = self.region_of(area_id)
        if source is None:
            raise InvalidAreaError(f"area {area_id} is not assigned")
        if source.region_id == target.region_id:
            raise InvalidAreaError(
                f"area {area_id} is already in region {target.region_id}"
            )
        source.remove_area(area_id)
        target.add_area(area_id)
        self.assignment[area_id] = target.region_id
        self._index_remove_member(source.region_id, area_id)
        self._index_add_member(target.region_id, area_id)
        if len(source) == 0:
            del self.regions[source.region_id]
            self._index_drop_region(source.region_id)

    def merge_regions(self, keep: Region, absorb: Region) -> Region:
        """Merge *absorb* into *keep* and drop the empty region."""
        if keep.region_id == absorb.region_id:
            raise InvalidAreaError("cannot merge a region with itself")
        for area_id in list(absorb.area_ids):
            self.assignment[area_id] = keep.region_id
        keep.merge(absorb)
        del self.regions[absorb.region_id]
        self._index_merge_regions(keep.region_id, absorb.region_id)
        return keep

    def _index_merge_regions(self, keep_id: int, absorb_id: int) -> None:
        """Fold *absorb*'s index entries into *keep*'s in O(border +
        adjacent regions) — no per-area rederivation."""
        self.perf.index_updates += 1
        # Border: sum the member-neighbor counts, then drop entries
        # that became internal (absorb's members adjacent to keep and
        # vice versa — all now assigned to keep_id).
        merged: dict[int, int] = {}
        for source in (self._border[keep_id], self._border.pop(absorb_id)):
            for area_id, count in source.items():
                if self.assignment.get(area_id) == keep_id:
                    continue
                merged[area_id] = merged.get(area_id, 0) + count
        self._border[keep_id] = merged
        # Region adjacency: redirect absorb's edges onto keep.
        keep_adj = self._region_adj[keep_id]
        keep_adj.pop(absorb_id, None)
        for other_id, count in self._region_adj.pop(absorb_id).items():
            if other_id == keep_id:
                continue
            keep_adj[other_id] = keep_adj.get(other_id, 0) + count
            other = self._region_adj[other_id]
            other.pop(absorb_id, None)
            other[keep_id] = other.get(keep_id, 0) + count

    def dissolve_region(self, region: Region) -> None:
        """Return every area of *region* to the unassigned pool."""
        for area_id in list(region.area_ids):
            self.unassign(area_id)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def to_partition(self) -> Partition:
        """Freeze the current state into a :class:`Partition`.

        ``U_0`` holds both the feasibility-phase exclusions and the
        still-unassigned areas, per the problem definition.
        """
        return Partition.from_regions(
            list(self.regions.values()),
            unassigned=self._unassigned | self.excluded,
        )

    def total_heterogeneity(self) -> float:
        """``H(P)`` of the current regions."""
        return sum(region.heterogeneity for region in self.regions.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SolutionState(p={self.p}, unassigned={len(self._unassigned)}, "
            f"excluded={len(self.excluded)})"
        )
