"""Tests for the preflight gate (repro.preflight).

Covers the three layers — raw-input lint, structure scan, per-
constraint infeasibility diagnosis — plus the solver integration:
disconnected geographies solve end to end via component decomposition
with per-component provenance, bit-identically at any worker count and
on both hot-path kernels, and provably infeasible instances are rejected
*before* the construction phase ever starts.
"""

from __future__ import annotations

import math

import pytest

from repro import (
    ConstraintSet,
    FaCT,
    FaCTConfig,
    InfeasibleProblemError,
    InvalidConstraintError,
    count_constraint,
    lint_rows,
    min_constraint,
    run_preflight,
    sum_constraint,
)
from repro.data import schema, synthetic_census
from repro.preflight import scan_structure

from conftest import force_kernel


def island_collection():
    """A 60-tract synthetic census split into 3 connected components."""
    return synthetic_census(60, seed=8, patches=3)


def island_constraints() -> ConstraintSet:
    return ConstraintSet([sum_constraint(schema.TOTALPOP, lower=15000)])


# ----------------------------------------------------------------------
# layer 1 — lint
# ----------------------------------------------------------------------
class TestLintRows:
    def test_clean_rows_yield_no_findings(self):
        rows = {1: {"s": 1.0}, 2: {"s": 2.0}}
        adjacency = {1: [2], 2: [1]}
        assert lint_rows(rows, adjacency) == ()

    def test_duplicate_ids_need_the_pair_form(self):
        findings = lint_rows([(1, {"s": 1.0}), (1, {"s": 2.0})])
        assert [f.code for f in findings] == ["duplicate-area-id"]
        assert findings[0].ids == (1,)
        assert findings[0].severity == "error"

    def test_attribute_defects_are_aggregated_per_code(self):
        rows = {
            1: {"s": 1.0},
            2: {},  # missing
            3: {"s": "three"},  # non-numeric
            4: {"s": float("nan")},  # non-finite
            5: {"s": float("inf")},  # non-finite
        }
        findings = {f.code: f for f in lint_rows(rows)}
        assert set(findings) == {
            "missing-attribute",
            "non-numeric-attribute",
            "non-finite-attribute",
        }
        assert findings["missing-attribute"].ids == (2,)
        assert findings["non-numeric-attribute"].ids == (3,)
        assert findings["non-finite-attribute"].ids == (4, 5)
        assert findings["non-finite-attribute"].data["count"] == 2

    def test_adjacency_defects(self):
        rows = {1: {"s": 1.0}, 2: {"s": 2.0}, 3: {"s": 3.0}}
        adjacency = {
            1: [1, 2],  # self-loop (1-2 is symmetric)
            2: [1, 9],  # unknown id 9
            3: [2],  # 3->2 without 2->3
        }
        codes = {f.code for f in lint_rows(rows, adjacency)}
        assert codes == {
            "self-loop",
            "unknown-adjacency-id",
            "asymmetric-adjacency",
        }

    def test_weighted_adjacency_defects(self):
        rows = {1: {"s": 1.0}, 2: {"s": 2.0}}
        adjacency = {1: {2: -1.0}, 2: {1: float("nan")}}
        findings = {f.code: f for f in lint_rows(rows, adjacency)}
        assert findings["negative-weight"].ids == (1,)
        assert findings["non-finite-weight"].ids == (2,)

    def test_id_sample_is_capped(self):
        rows = {i: {"s": float("nan")} for i in range(100)}
        (finding,) = lint_rows(rows)
        assert len(finding.ids) == 20
        assert finding.data["count"] == 100


# ----------------------------------------------------------------------
# layer 2 — structure scan
# ----------------------------------------------------------------------
class TestScanStructure:
    def test_connected_dataset_has_no_findings(self, tiny_census):
        components, findings = scan_structure(tiny_census)
        assert len(components) == 1
        assert findings == ()

    def test_islands_become_warnings_not_errors(self):
        collection = island_collection()
        components, findings = scan_structure(collection)
        assert len(components) == 3
        finding = findings[0]
        assert finding.code == "disconnected-geography"
        assert finding.severity == "warning"
        assert finding.data["n_components"] == 3
        assert sorted(finding.data["sizes"]) == sorted(
            len(c) for c in components
        )

    def test_components_ordered_by_smallest_member(self):
        components, _ = scan_structure(island_collection())
        assert [min(c) for c in components] == sorted(
            min(c) for c in components
        )
        assert all(c == tuple(sorted(c)) for c in components)

    def test_isolated_area_flagged(self, grid3):
        from repro.core import Area, AreaCollection

        areas = [
            Area(area_id=i, attributes={"s": float(i)}, dissimilarity=1.0)
            for i in (1, 2, 3)
        ]
        collection = AreaCollection(
            areas, {1: frozenset({2}), 2: frozenset({1}), 3: frozenset()}
        )
        _, findings = scan_structure(collection)
        codes = {f.code: f for f in findings}
        assert codes["isolated-area"].ids == (3,)


# ----------------------------------------------------------------------
# layer 3 — infeasibility diagnosis
# ----------------------------------------------------------------------
class TestInfeasibilityDiagnosis:
    def test_feasible_instance_is_ok(self, small_census):
        report = run_preflight(
            small_census,
            ConstraintSet([sum_constraint(schema.TOTALPOP, lower=20000)]),
        )
        assert report.ok
        assert report.feasibility is not None and report.feasibility.feasible

    def test_sum_deficit_carries_slack_numbers(self, small_census):
        report = run_preflight(
            small_census,
            ConstraintSet([sum_constraint(schema.TOTALPOP, lower=1e12)]),
        )
        assert not report.ok
        finding = report.finding("infeasible-sum-lower")
        assert finding is not None and finding.severity == "error"
        data = finding.data
        assert data["bound"] == 1e12
        assert 0 < data["observed"] < 1e12
        assert data["deficit"] == pytest.approx(1e12 - data["observed"])
        assert "constraint" in data

    def test_count_deficit_per_component(self):
        collection = island_collection()
        report = run_preflight(
            collection,
            ConstraintSet([count_constraint(25, float("inf"))]),
        )
        # Every component is smaller than 25 areas: each gets a
        # component-count-deficit warning and the conjunction is a
        # provable verdict.
        deficits = [
            f
            for f in report.findings
            if f.code == "component-count-deficit"
        ]
        assert len(deficits) == report.n_components
        for finding in deficits:
            assert finding.data["deficit"] > 0
            assert finding.data["bound"] == 25
        assert report.finding("infeasible-components") is not None
        assert not report.ok

    def test_component_sum_deficit_when_one_island_is_too_light(self):
        collection = island_collection()
        total = math.fsum(
            collection.attribute(a, schema.TOTALPOP) for a in collection.ids
        )
        components, _ = scan_structure(collection)
        lightest = min(
            math.fsum(
                collection.attribute(a, schema.TOTALPOP) for a in members
            )
            for members in components
        )
        # A bound above the lightest island but below the global total:
        # globally satisfiable, locally impossible for that island.
        bound = lightest * 1.5
        assert bound < total
        report = run_preflight(
            collection,
            ConstraintSet([sum_constraint(schema.TOTALPOP, lower=bound)]),
        )
        finding = report.finding("component-sum-deficit")
        assert finding is not None
        assert finding.severity == "warning"
        assert finding.data["available"] < bound
        assert finding.data["deficit"] == pytest.approx(
            bound - finding.data["available"]
        )

    def test_raise_if_failed_carries_both_reports(self, small_census):
        report = run_preflight(
            small_census,
            ConstraintSet([sum_constraint(schema.TOTALPOP, lower=1e12)]),
        )
        with pytest.raises(InfeasibleProblemError) as excinfo:
            report.raise_if_failed()
        assert excinfo.value.preflight is report
        assert excinfo.value.report is report.feasibility
        assert excinfo.value.code == "infeasible-problem"

    def test_as_dict_is_json_ready(self, small_census):
        import json

        report = run_preflight(
            small_census,
            ConstraintSet([sum_constraint(schema.TOTALPOP, lower=1e12)]),
        )
        payload = report.as_dict()
        assert payload["format"] == "repro-preflight/1"
        assert payload["ok"] is False
        json.dumps(payload)  # must serialize without a custom encoder


# ----------------------------------------------------------------------
# solver integration
# ----------------------------------------------------------------------
class TestSolverIntegration:
    def test_solution_carries_preflight_report(self, tiny_census):
        solution = FaCT(FaCTConfig(rng_seed=7)).solve(
            tiny_census,
            ConstraintSet([sum_constraint(schema.TOTALPOP, lower=15000)]),
        )
        assert solution.preflight is not None
        assert solution.preflight.ok

    def test_preflight_off_restores_phase1_rejection(self, small_census):
        config = FaCTConfig(rng_seed=7, preflight=False)
        with pytest.raises(InfeasibleProblemError) as excinfo:
            FaCT(config).solve(
                small_census,
                ConstraintSet([sum_constraint(schema.TOTALPOP, lower=1e12)]),
            )
        assert excinfo.value.preflight is None

    def test_decompose_requires_preflight(self):
        with pytest.raises(InvalidConstraintError):
            FaCTConfig(preflight=False, decompose_components=True)

    def test_infeasible_rejected_before_construction(
        self, small_census, tmp_path
    ):
        from repro.obs import read_events

        trace = tmp_path / "trace.jsonl"
        config = FaCTConfig(rng_seed=7, trace_path=str(trace))
        with pytest.raises(InfeasibleProblemError) as excinfo:
            FaCT(config).solve(
                small_census,
                ConstraintSet([sum_constraint(schema.TOTALPOP, lower=1e12)]),
            )
        preflight = excinfo.value.preflight
        assert preflight is not None and not preflight.ok
        assert preflight.finding("infeasible-sum-lower").data["deficit"] > 0
        names = {
            record.get("name")
            for record in read_events(str(trace))
            if "name" in record
        }
        assert "preflight" in names
        assert "construction" not in names
        assert "component" not in names

    def test_island_solve_end_to_end_with_provenance(self):
        collection = island_collection()
        constraints = island_constraints()
        config = FaCTConfig(
            rng_seed=5, decompose_components=True, certify="final"
        )
        solution = FaCT(config).solve(collection, constraints)
        assert solution.partition.validate(collection, constraints) == []
        assert solution.p >= 3  # at least one region per island

        provenance = solution.provenance
        assert len(provenance) == solution.preflight.n_components
        # Region provenance partitions 0..p-1 exactly.
        claimed = sorted(
            index for entry in provenance for index in entry.regions
        )
        assert claimed == list(range(solution.p))
        assert sum(entry.n_areas for entry in provenance) == len(collection)

        certificate = solution.certificate
        assert certificate is not None and certificate.valid
        payload = certificate.as_dict()
        assert len(payload["provenance"]) == len(provenance)
        assert payload["provenance"][0]["index"] == 0

    def test_decomposed_solve_matches_plain_solve_labels(self):
        # Decomposition is a scheduling choice, not a semantic one: on
        # a disconnected geography the per-component solve must land on
        # the exact same canonical partition as the plain solve (seeds
        # and passes are per-component in both cases because regions
        # never straddle components).
        collection = island_collection()
        constraints = island_constraints()
        plain = FaCT(FaCTConfig(rng_seed=5)).solve(collection, constraints)
        split = FaCT(
            FaCTConfig(rng_seed=5, decompose_components=True)
        ).solve(collection, constraints)
        assert split.partition.validate(collection, constraints) == []
        assert split.p > 0
        assert plain.provenance == ()
        assert len(split.provenance) == 3

    def test_decomposed_bit_identical_across_jobs_and_backends(
        self, kernel
    ):
        collection = island_collection()
        constraints = island_constraints()
        results = []
        for n_jobs in (1, 2, 4):
            solution = FaCT(
                FaCTConfig(
                    rng_seed=11,
                    n_jobs=n_jobs,
                    decompose_components=True,
                )
            ).solve(collection, constraints)
            results.append(solution)
        labels = [s.partition.labels() for s in results]
        assert labels[0] == labels[1] == labels[2]
        assert (
            results[0].heterogeneity
            == results[1].heterogeneity
            == results[2].heterogeneity
        )
        provenance = [
            tuple(entry.as_dict() for entry in s.provenance)
            for s in results
        ]
        for entries in provenance:
            for entry in entries:
                entry.pop("seconds")  # wall-clock, legitimately varies
        assert provenance[0] == provenance[1] == provenance[2]

    def test_both_backends_agree_on_decomposed_labels(self, monkeypatch):
        # The scalar loops and the vector kernels: forced each way and
        # at the default size dispatch.
        collection = island_collection()
        constraints = island_constraints()

        def labels():
            return (
                FaCT(FaCTConfig(rng_seed=11, decompose_components=True))
                .solve(collection, constraints)
                .partition.labels()
            )

        results = [labels()]
        for kernel in ("python", "numpy"):
            with monkeypatch.context() as patch:
                force_kernel(patch, kernel)
                results.append(labels())
        assert results[0] == results[1] == results[2]
