"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.
The smoke runs start ``perfbench/run.py`` as a subprocess on shrunken
inputs and take about a minute.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import service, solve  # noqa: E402
from perfbench.stats import (  # noqa: E402
    partition_digest,
    quantile,
    self_times,
    tail_percentile,
)
from perfbench.trace import Tracer, installed, layer_table  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)
with open(os.path.join(ROOT, "perfbench", "predictions.json"), "r", encoding="utf-8") as _handle:
    PREDICTIONS = json.load(_handle)


# -- arithmetic ---------------------------------------------------------


def test_quantile_matches_statistics_inclusive():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    expected = statistics.quantiles(values, n=4, method="inclusive")
    assert [quantile(values, q) for q in (0.25, 0.5, 0.75)] == pytest.approx(expected)
    assert quantile([2.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(25))  # 0..24
    percentile, value, n = tail_percentile(values)
    assert (value, n) == (14, 25)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * 14 / 24)
    # Too few samples for a tail: the maximum, at percentile 100.
    assert tail_percentile([5.0, 1.0, 3.0]) == (100.0, 5.0, 3)
    assert tail_percentile(list(range(11))) == (0.0, 0, 11)


def test_self_time_subtracts_covered_child_time():
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 3.0, 6.0),  # overlaps a: 1..6 covered once
        (3, 1, "c", 2.0, 3.0),
        (4, 0, "d", 9.0, 12.0),  # runs past the root: clipped at 10
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_layer_table_self_times_sum_to_the_root():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda n: sum(range(n)))
    outer = tracer.wrap("outer", lambda: [inner(1000) for _ in range(3)])
    with tracer.span("root", trace_id="t") as root:
        outer()
        inner(10)
    table = layer_table(tracer.spans, root)
    assert table["inner"]["calls"] == 4
    assert table["outer"]["calls"] == 1
    duration = next(s[4] - s[3] for s in tracer.spans if s[0] == root)
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(duration)
    assert tracer.trace_ids[root] == "t"


def test_installed_wrappers_are_removed_and_missing_names_reported():
    module = types.ModuleType("perfbench_fake_module")
    module.work = lambda: 42
    sys.modules[module.__name__] = module
    original = module.work
    tracer = Tracer()
    try:
        with installed(
            tracer,
            (("work", module.__name__, "work"), ("gone", module.__name__, "absent")),
        ) as unmeasured:
            assert module.work is not original
            assert module.work() == 42
        assert unmeasured == ["gone"]
        assert module.work is original
        assert [s[2] for s in tracer.spans] == ["work"]
    finally:
        del sys.modules[module.__name__]


def test_digest_changes_with_any_part_of_the_answer():
    labels = {1: 0, 2: 0, 3: -1}
    base = partition_digest(labels, 1, 1, 10.5)
    assert base == partition_digest(dict(reversed(labels.items())), 1, 1, 10.5)
    assert base != partition_digest({1: 0, 2: -1, 3: -1}, 1, 2, 10.5)
    assert base != partition_digest(labels, 1, 1, 10.500000000000002)


# -- correctness checks count failures -------------------------------------


def _small_instance():
    from repro.data.datasets import load_dataset
    from repro.data.schema import default_constraints
    from repro.core.constraints import ConstraintSet

    collection = load_dataset("2k", scale=0.05)
    return collection, ConstraintSet(default_constraints())


def _broken(partition):
    """Move one area of the first region into U_0: coverage still
    holds, but the claimed H and the region no longer match."""
    from repro.core.partition import Partition

    first = sorted(partition.regions[0])
    regions = (frozenset(first[1:]),) + partition.regions[1:]
    return Partition(regions, partition.unassigned | {first[0]})


def test_a_broken_partition_counts_as_a_failure(monkeypatch):
    from repro.fact.config import FaCTConfig
    from repro.fact.solver import FaCT

    collection, constraints = _small_instance()
    config = FaCTConfig(rng_seed=3, certify="off")
    real_solve = FaCT.solve

    good, _solution, _root = solve.solve_once(collection, constraints, config)
    assert good["ok"], good

    def broken_solve(self, *args, **kwargs):
        solution = real_solve(self, *args, **kwargs)
        return types.SimpleNamespace(
            partition=_broken(solution.partition),
            status=solution.status,
            heterogeneity=solution.heterogeneity,
            p=solution.p,
            n_unassigned=solution.n_unassigned + 1,
        )

    monkeypatch.setattr(FaCT, "solve", broken_solve)
    bad, _solution, _root = solve.solve_once(collection, constraints, config)
    assert not bad["ok"] and bad["violations"] > 0
    metrics = solve.end_to_end([good, bad], setup_s=1.0)
    assert metrics["fail_ratio"] == 0.5


def test_a_changed_digest_counts_as_a_failure():
    ops = [
        {"ok": True, "digest": "a"},
        {"ok": True, "digest": "a"},
        {"ok": True, "digest": "b"},
    ]
    solve.check_digests(ops)
    assert [op["ok"] for op in ops] == [True, True, False]


def test_service_client_certifies_returned_labels():
    from repro.fact.config import FaCTConfig
    from repro.fact.solver import FaCT

    collection, constraints = _small_instance()
    solution = FaCT(FaCTConfig(rng_seed=5, certify="off")).solve(collection, constraints)
    load = service.Load.__new__(service.Load)
    load.collection, load.constraints, load.certify_s = collection, constraints, []

    def result_for(partition):
        return {
            "summary": {
                "heterogeneity_after": round(solution.heterogeneity, 3),
                "perf": {"timings": {"tabu": 0.5}},
            },
            "labels": {str(a): r for a, r in partition.labels().items()},
        }

    job = {"ok": False}
    load.check(job, result_for(solution.partition))
    assert job["ok"] and job["violations"] == 0
    job = {"ok": False}
    load.check(job, result_for(_broken(solution.partition)))
    assert not job["ok"] and job["violations"] > 0


# -- the declared benchmark ----------------------------------------------


def test_every_per_layer_metric_has_a_prediction():
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    workloads = {w["name"] for w in DECLARED["workloads"]}
    predicted = set()
    for row in PREDICTIONS["predictions"]:
        predicted.update(row["metrics"])
        assert set(row["moves"]) <= end_to_end | {"fail_ratio"}, row
        assert set(row["on"]) <= workloads, row
    assert {m["name"] for m in DECLARED["per_layer"]} <= predicted
    assert set(PREDICTIONS["workloads"]) == workloads


def _run(tmp_path, workload, trace, seconds, scale=1.0):
    out = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload, "--seed", "5", "--seconds", str(seconds),
            "--trace", str(trace), "--scale", str(scale), "--out", str(tmp_path),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, scale",
    [("enriched-2k", 0.5), ("mas-10k", 0.03), ("service-open", 1.0)],
)
def test_smoke_run_prints_every_declared_metric(tmp_path, workload, scale):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(tmp_path, workload, trace, seconds=1, scale=scale)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        if trace:
            assert result["metrics"]["fail_ratio"]["value"] == 0.0


def test_without_the_package_source_the_run_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith((".py", ".json")):
            with open(os.path.join(ROOT, "perfbench", name), "rb") as handle:
                (bench / name).write_bytes(handle.read())
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as handle:
        (tmp_path / "BENCHMARK.json").write_bytes(handle.read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mas-10k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
