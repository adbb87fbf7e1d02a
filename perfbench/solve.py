"""The in-process solve workloads: one FaCT instance solved back to
back by one caller, each partition certified from outside.

``enriched-2k`` (large regions: vectorized move derivation dominates)
and ``mas-10k`` (small regions: scalar derivation, per-move upkeep and
construction weigh more) stress different tabu layers, so a change to
one of them should move one workload and leave the other alone.

Both workloads solve one fixed instance: the registry dataset with
``rng_seed`` 7, the instance of the checked-in scaling row. The tabu
trajectory is chaotic in both the dataset seed and the rng seed (on
enriched-2k on a 2-vCPU Xeon virtual machine, rng seeds 1-4 gave
11.6-28.3 s, p 8-10 and H within +-12 %), so a seeded instance would spread the timings and p far wider
than any usable regression bound. The workload seed seeds the service
workload's load; here it is recorded and selects nothing.
"""

from __future__ import annotations

import dataclasses
import resource
import time

from .stats import median, partition_digest, tail_percentile
from .trace import Tracer, inclusive_under, installed, layer_table

REFERENCE_RNG_SEED = 7
SOLVE_DEADLINE_S = 75.0
"""Per-solve budget, over twice the slowest solve seen, and small enough
that a traced run (two solves) ends inside the 180 s run limit. A solve
that hits it is a failure, never a time."""
SETUP_REPEATS = 3


def _instance(workload: str):
    from repro.bench.workloads import combo_constraints, enriched_constraints

    if workload == "enriched-2k":
        return "2k", enriched_constraints()
    if workload == "mas-10k":
        return "10k", combo_constraints("MAS")
    raise ValueError(f"unknown solve workload {workload!r}")


def generate(dataset: str, scale: float = 1.0):
    """Generate the dataset afresh (bypassing the loader's cache) and
    return ``(collection, seconds)``."""
    from repro.data.datasets import DATASETS
    from repro.data.synthetic import synthetic_census

    spec = DATASETS[dataset]
    started = time.perf_counter()
    collection = synthetic_census(
        spec.scaled_size(scale), seed=spec.seed, patches=spec.patches
    )
    return collection, time.perf_counter() - started


def solver_config(n_areas: int):
    from repro.bench.runner import bench_config

    config = bench_config(
        n_areas,
        rng_seed=REFERENCE_RNG_SEED,
        deadline_seconds=SOLVE_DEADLINE_S,
    )
    # The benchmark certifies from outside; keep in-solve certification
    # off whatever the environment says, so it is not timed twice.
    return dataclasses.replace(config, certify="off")


def certify(collection, constraints, solution):
    """Outside certification of *solution*'s partition with its claimed
    H; returns ``(violations, seconds)``."""
    from repro.certify import certify_partition

    started = time.perf_counter()
    certificate = certify_partition(
        solution.partition,
        collection,
        constraints,
        claimed_heterogeneity=solution.heterogeneity,
    )
    return len(certificate.violations), time.perf_counter() - started


def solve_once(collection, constraints, config, tracer: Tracer | None = None, trace_id=None):
    """One solve plus its outside certification, as an op record."""
    from repro.fact.solver import FaCT
    from repro.runtime import RunStatus

    op: dict = {"ok": False}
    root = None
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        if tracer is None:
            solution = FaCT(config).solve(collection, constraints)
        else:
            with tracer.span("solve", trace_id=trace_id) as root:
                solution = FaCT(config).solve(collection, constraints)
    except Exception as error:  # noqa: BLE001 - a failed op is a result
        op["error"] = f"{type(error).__name__}: {error}"
        return op, None, root
    op["solve_s"] = time.perf_counter() - wall_start
    op["solve_cpu_s"] = time.process_time() - cpu_start
    op["status"] = solution.status.value
    if solution.status is not RunStatus.COMPLETE:
        # A deadline or interrupt censors the time: never report it.
        op["error"] = f"solve ended {solution.status.value}"
        return op, solution, root
    if tracer is None:
        violations, certify_s = certify(collection, constraints, solution)
    else:
        with tracer.span("certify", trace_id=f"{trace_id}-certify"):
            violations, certify_s = certify(collection, constraints, solution)
    op["certify_s"] = certify_s
    op["violations"] = violations
    op["latency_s"] = op["solve_s"] + certify_s
    op["p"] = solution.p
    op["unassigned"] = solution.n_unassigned
    op["heterogeneity"] = solution.heterogeneity
    op["digest"] = partition_digest(
        solution.partition.labels(),
        solution.p,
        solution.n_unassigned,
        solution.heterogeneity,
    )
    if violations:
        op["error"] = f"certification found {violations} violation(s)"
        return op, solution, root
    op["ok"] = True
    return op, solution, root


def check_digests(ops: list[dict]) -> None:
    """Mark every op whose digest differs from the first op's as
    failed: the same inputs must give the same partition."""
    reference = next((op["digest"] for op in ops if "digest" in op), None)
    for op in ops:
        if op.get("digest") not in (None, reference) and op["ok"]:
            op["ok"] = False
            op["error"] = "partition digest differs from the run's first solve"


def _perf_value(perf, name):
    value = getattr(perf, name, None)
    return None if value is None else float(value)


def run(
    workload: str,
    seconds: float,
    trace: bool,
    import_s: float,
    out_dir: str,
    seed: int,
    scale: float = 1.0,
) -> dict:
    """Run one solve workload; returns the run record."""
    dataset, constraints = _instance(workload)
    record: dict = {"dataset": dataset, "rng_seed": REFERENCE_RNG_SEED}
    collection, first_gen = generate(dataset, scale)
    record["n_areas"] = len(collection)
    config = solver_config(len(collection))
    ops: list[dict] = []

    if not trace:
        generations = [first_gen]
        for _ in range(SETUP_REPEATS - 1):
            generations.append(generate(dataset, scale)[1])
        # Solve back to back inside the window, never starting a solve
        # that would likely end past it; at least one solve.
        started = time.perf_counter()
        while True:
            op, _solution, _root = solve_once(collection, constraints, config)
            ops.append(op)
            elapsed = time.perf_counter() - started
            if not op["ok"] or elapsed + elapsed / len(ops) > seconds:
                break
        check_digests(ops)
        record["ops"] = ops
        record["generate_s"] = generations
        record["metrics"] = end_to_end(ops, import_s + median(generations))
        latencies = [op["latency_s"] for op in ops if op["ok"]]
        if latencies:
            tail_q, _tail, n = tail_percentile(latencies)
            record["latency_tail"] = {"percentile": tail_q, "samples": n}
        return record

    # Traced run: one untraced solve, then the same solve traced.
    plain, _solution, _root = solve_once(collection, constraints, config)
    tracer = Tracer()
    with installed(tracer) as unmeasured:
        traced, solution, root = solve_once(
            collection, constraints, config, tracer, trace_id=f"{workload}-{seed}"
        )
    ops = [plain, traced]
    check_digests(ops)
    record["ops"] = ops
    record["unmeasured"] = unmeasured
    # One spans file per workload (tens of MB), replaced by each traced run.
    tracer.write(f"{out_dir}/spans-{workload}.jsonl")
    record["metrics"], record["layers"] = per_layer(
        ops, solution, tracer, root, first_gen, unmeasured
    )
    return record


def end_to_end(ops: list[dict], setup_s: float) -> dict:
    good = [op for op in ops if op["ok"]]
    metrics = {"setup_s": setup_s, "fail_ratio": 1 - len(good) / len(ops)}
    if not good:
        return metrics
    latencies = [op["latency_s"] for op in good]
    _tail_q, tail, _n = tail_percentile(latencies)
    metrics.update(
        solve_s=median([op["solve_s"] for op in good]),
        solve_cpu_s=median([op["solve_cpu_s"] for op in good]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        p=median([op["p"] for op in good]),
        heterogeneity=median([op["heterogeneity"] for op in good]),
        latency_p50_s=median(latencies),
        latency_tail_s=tail,
        burst_jobs_per_s=len(good) / sum(latencies),
    )
    return metrics


# Per-layer metrics timed through wrapped names (see trace.TARGETS): a
# metric is unmeasured when any span it sums could not be wrapped.
_SPANS_OF = {
    "preflight.busy_s": ("preflight",),
    "fact.feasibility.busy_s": ("fact.feasibility",),
    "fact.construction.busy_s": ("fact.construction",),
    "fact.seeding.busy_s": ("fact.seeding",),
    "fact.growing.busy_s": ("fact.growing",),
    "fact.adjustment.busy_s": ("fact.adjustment",),
    "fact.tabu.busy_s": ("fact.tabu",),
    "fact.tabu.derive_s": ("fact.tabu.derive",),
    "fact.tabu.derive_calls": ("fact.tabu.derive",),
    "fact.tabu.moves_derived": ("fact.tabu.derive",),
    "fact.tabu.select_s": ("fact.tabu.select", "fact.tabu.derive"),
    "fact.tabu.apply_s": (
        "fact.state.move",
        "fact.objectives.apply_move",
        "fact.tabu.after_move",
    ),
    "contiguity.oracle_s": ("contiguity.oracle",),
}


def per_layer(ops, solution, tracer, root, generate_s, unmeasured):
    plain, traced = ops
    metrics: dict = {
        "data.generate_s": generate_s,
        "fail_ratio": 1 - sum(op["ok"] for op in ops) / len(ops),
    }
    layers: dict = {}
    if solution is None or root is None or not traced.get("ok"):
        return metrics, layers
    spans = tracer.spans
    layers = layer_table(spans, root)

    def inclusive(name):
        return layers.get(name, {}).get("inclusive_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    perf = solution.perf
    tabu = solution.tabu
    moves = tabu.moves_applied if tabu is not None else 0
    evaluations = _perf_value(perf, "candidate_evaluations")
    apply_s = sum(
        inclusive_under(spans, root, name, "fact.tabu")
        for name in (
            "fact.state.move",
            "fact.objectives.apply_move",
            "fact.tabu.after_move",
        )
    )
    metrics.update(
        {
            "preflight.busy_s": inclusive("preflight"),
            "fact.feasibility.busy_s": inclusive("fact.feasibility"),
            "fact.feasibility.n_invalid": solution.feasibility.n_invalid,
            "fact.construction.busy_s": inclusive("fact.construction"),
            "fact.seeding.busy_s": inclusive("fact.seeding"),
            "fact.growing.busy_s": inclusive("fact.growing"),
            "fact.adjustment.busy_s": inclusive("fact.adjustment"),
            "fact.construction.p": solution.construction.p,
            "fact.construction.unassigned": solution.n_unassigned,
            "fact.tabu.busy_s": inclusive("fact.tabu"),
            "fact.tabu.iterations": tabu.iterations if tabu else 0,
            "fact.tabu.moves_applied": moves,
            "fact.tabu.derive_s": inclusive("fact.tabu.derive"),
            "fact.tabu.derive_calls": calls("fact.tabu.derive"),
            "fact.tabu.moves_derived": tracer.counters.get("moves_derived", 0),
            "fact.tabu.candidate_evaluations": evaluations,
            "fact.tabu.vector_derives": _perf_value(perf, "vector_derives"),
            "fact.tabu.donor_cache_hits": _perf_value(perf, "donor_cache_hits"),
            "fact.tabu.evals_per_move": (
                evaluations / moves if evaluations is not None and moves else 0.0
            ),
            "fact.tabu.select_s": layers.get("fact.tabu.select", {}).get("self_s", 0.0),
            "fact.tabu.apply_s": apply_s,
            "contiguity.oracle_s": inclusive("contiguity.oracle"),
            "contiguity.oracle_rebuilds": _perf_value(perf, "oracle_rebuilds"),
            "contiguity.oracle_fallbacks": _perf_value(perf, "oracle_fallbacks"),
            "contiguity.oracle_incremental_rate": _perf_value(
                perf, "oracle_incremental_rate"
            ),
            "fact.objectives.delta_fastpath_rate": _perf_value(
                perf, "delta_fastpath_rate"
            ),
            "fact.objectives.delta_recompute": _perf_value(perf, "delta_recompute"),
            "certify.busy_s": traced["certify_s"],
            "certify.violations": traced["violations"],
            "trace.overhead_ratio": (
                traced["solve_s"] / plain["solve_s"] - 1 if plain.get("ok") else None
            ),
        }
    )
    for metric, spans_of in _SPANS_OF.items():
        if set(spans_of) & set(unmeasured):
            metrics[metric] = None
    return metrics, layers
