"""Scaling sweep and perf-regression gate.

    python -m repro.bench scaling --output BENCH_scaling.json

Solves the registry datasets (2k/10k/25k/50k by default) once each
under the enriched workload and reports per-phase wall-clock and the
oracle/derive counters — the full-scale run produces the checked-in
``BENCH_scaling.json``, which :func:`repro.obs.progress.
calibrate_weights` also reads. With ``--perf-baseline`` the run's
oracle-rebuild and candidate-evaluation rates are graded WIN /
NEUTRAL / REGRESSION against a checked-in record (exit 3 on
REGRESSION).

End-to-end and per-layer timings live in ``perfbench/`` (``python3
perfbench/run.py --workload … --trace 1``); profiles of any span come
from ``REPRO_PROFILE=cprofile`` (:mod:`repro.obs.profiling`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from ..core import arrays as arrays_mod
from ..data.datasets import load_dataset
from ..fact.solver import FaCT
from ..obs.telemetry import SolveTelemetry
from ..runtime.atomic import atomic_write_text
from .runner import BENCH_SCHEMA_VERSION, bench_config
from .workloads import enriched_constraints

__all__ = [
    "compare_perf_to_baseline",
    "read_bench_record",
    "run_scaling",
    "main",
]

# The sweep's one workload and solver seed.
_WORKLOAD = "enriched"
_SEED = 7

# Perf-gate verdict thresholds. Both gated metrics are lower-is-better
# *rates* (scale-invariant by construction, unlike the raw counters),
# but a smoke-scale run still shifts them — tiny regions mean tinier
# denominators — so a verdict needs BOTH a relative factor and an
# absolute gap before it leaves NEUTRAL. The gate is a tripwire for
# structural breakage (e.g. the incremental oracle silently falling
# back to full rebuilds pushes ``oracle_rebuild_share`` from ~0 to
# ~1), not a percent-level performance assertion.
_PERF_GATE_REL = 2.0
_PERF_GATE_ABS = {
    "oracle_rebuild_share": 0.05,
    "candidate_evals_per_derive": 50.0,
}
# A comparison needs this many denominator events in the *current* run
# before its rate means anything — a sub-minimum run (e.g. the 0.08
# smoke, whose tabu phase barely moves) reports the comparison as
# NEUTRAL with ``insufficient_volume`` set instead of flapping. The CI
# perf-gate step runs at scale 0.3, which clears the minimums while
# keeping region granularity (and therefore the rates) comparable to
# the full-scale baseline.
_PERF_MIN_VOLUME = {
    "oracle_rebuild_share": 200,
    "candidate_evals_per_derive": 50,
}


def read_bench_record(path: str) -> dict | None:
    """Load a ``BENCH_*.json`` record; ``None`` when the file is
    missing, unparseable or not a JSON object."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload


def _telemetry_block(telemetry: SolveTelemetry) -> dict:
    """Span count + per-phase wall-clock summary for a JSON payload."""
    summary = telemetry.summary()
    return {
        "total_spans": summary["total_spans"],
        "total_events": summary["total_events"],
        "phase_seconds": {
            phase: round(seconds, 4)
            for phase, seconds in sorted(summary["phase_seconds"].items())
        },
        "progress_events": summary.get("progress_events", 0),
        "eta_error": summary.get("eta_error"),
    }


def run_scaling(
    datasets: Sequence[str] = ("2k", "10k", "25k", "50k"),
    scale: float = 1.0,
) -> dict:
    """The scaling benchmark: one solve per dataset size.

    The workload is the enriched set
    (:func:`repro.bench.workloads.enriched_constraints`) — the paper's
    headline setting, and the regime the vector kernels target: large
    regions (the SUM threshold) and a constraint count where
    per-candidate feasibility checking dominates the Tabu phase.

    Per dataset the record carries the partition shape, the
    construction/tabu/total wall-clock, the oracle and derive counters
    and the run status (so an interrupted cell is visible in the
    checked-in artifact rather than silently truncated), plus the
    solve's span and phase summary under ``telemetry``. The timing
    row sits under ``backends["numpy"]`` — the shape of the checked-in
    ``BENCH_scaling.json``, which the perf gate and
    :func:`repro.obs.progress.calibrate_weights` read.
    """
    dataset_blocks: dict[str, dict] = {}
    all_complete = True
    constraints = enriched_constraints()
    for name in datasets:
        collection = load_dataset(name, scale=scale)
        config = bench_config(
            len(collection), rng_seed=_SEED, enable_tabu=True
        )
        telemetry = SolveTelemetry()
        started = time.perf_counter()
        solution = FaCT(config).solve(
            collection, constraints, telemetry=telemetry
        )
        wall = time.perf_counter() - started
        status = solution.status.value
        all_complete = all_complete and status == "complete"
        perf = solution.perf.as_dict() if solution.perf is not None else {}
        dataset_blocks[name] = {
            "n_areas": len(collection),
            "p": solution.p,
            "n_unassigned": solution.n_unassigned,
            "heterogeneity": solution.heterogeneity,
            "backends": {
                "numpy": {
                    "wall_seconds": round(wall, 4),
                    "construction_seconds": round(
                        solution.construction_seconds, 4
                    ),
                    "tabu_seconds": round(
                        perf.get("timings", {}).get("tabu", 0.0), 4
                    ),
                    "status": status,
                    "candidate_evaluations": perf.get(
                        "candidate_evaluations", 0
                    ),
                    "vector_derives": perf.get("vector_derives", 0),
                    "oracle_rebuilds": perf.get("oracle_rebuilds", 0),
                    "oracle_incremental": perf.get("oracle_incremental", 0),
                    "oracle_fallbacks": perf.get("oracle_fallbacks", 0),
                    "oracle_incremental_rate": perf.get(
                        "oracle_incremental_rate", 0.0
                    ),
                }
            },
            "telemetry": _telemetry_block(telemetry),
        }
    return {
        "benchmark": "scaling",
        "schema_version": BENCH_SCHEMA_VERSION,
        "backends": ["numpy"],
        "numpy_version": arrays_mod.numpy_version(),
        "scale": scale,
        "workload": _WORKLOAD,
        "constraints": [str(c) for c in constraints],
        "rng_seed": _SEED,
        "all_complete": all_complete,
        "datasets": dataset_blocks,
    }


def _perf_rates(backend_row: dict) -> dict:
    """The gated scale-invariant rates of one scaling backend row, as
    ``{metric: (rate, denominator_volume)}``.

    ``oracle_rebuild_share`` — full Hopcroft–Tarjan rebuilds as a share
    of all oracle refreshes (lower is better; the incremental
    block-cut oracle drives it toward 0, and structural breakage
    drives it back toward 1). ``candidate_evals_per_derive`` — mean
    (candidate, receiver) pairs priced per vector derive (a boundary-
    size proxy; a blowup means move derivation lost its dedup or
    feasibility pruning). The rate is ``None`` when the row predates
    the counter or the denominator is empty (a run whose donors all
    stayed below the vector cutoff has no vector derives).
    """
    rebuilds = backend_row.get("oracle_rebuilds")
    incremental = backend_row.get("oracle_incremental")
    refreshes = (rebuilds or 0) + (incremental or 0)
    evals = backend_row.get("candidate_evaluations")
    derives = backend_row.get("vector_derives")
    return {
        "oracle_rebuild_share": (
            (rebuilds / refreshes, refreshes)
            if rebuilds is not None and incremental is not None and refreshes
            else (None, refreshes)
        ),
        "candidate_evals_per_derive": (
            (evals / derives, derives)
            if evals is not None and derives
            else (None, derives or 0)
        ),
    }


def _perf_verdict(metric: str, current: float, baseline: float) -> str:
    """WIN / NEUTRAL / REGRESSION for one lower-is-better rate.

    Leaving NEUTRAL requires both the relative factor
    (``_PERF_GATE_REL``) and the metric's absolute gap
    (``_PERF_GATE_ABS``) — smoke-scale runs legitimately shift the
    rates by small absolute amounts, and near-zero baselines make any
    relative factor trivially exceedable.
    """
    gap = current - baseline
    abs_slack = _PERF_GATE_ABS[metric]
    if current > baseline * _PERF_GATE_REL and gap > abs_slack:
        return "REGRESSION"
    if baseline > current * _PERF_GATE_REL and -gap > abs_slack:
        return "WIN"
    return "NEUTRAL"


def compare_perf_to_baseline(result: dict, baseline: dict | None) -> dict:
    """Grade a scaling run's perf counters against a checked-in
    ``BENCH_scaling.json``.

    One comparison per (dataset, backend, metric) present in both
    records; the ``overall`` verdict is REGRESSION if any comparison
    regressed, else WIN if any won, else NEUTRAL. A missing baseline
    (or one predating the gated counters) yields zero comparisons and
    an overall NEUTRAL — the gate only bites once a post-oracle
    baseline is checked in.
    """
    comparisons: list[dict] = []
    base_datasets = (baseline or {}).get("datasets", {})
    for name, block in result.get("datasets", {}).items():
        base_block = base_datasets.get(name, {})
        for backend, row in block.get("backends", {}).items():
            base_row = base_block.get("backends", {}).get(backend)
            if not isinstance(base_row, dict):
                continue
            current_rates = _perf_rates(row)
            base_rates = _perf_rates(base_row)
            for metric, (current, volume) in current_rates.items():
                base_value, _ = base_rates[metric]
                if current is None or base_value is None:
                    continue
                entry = {
                    "dataset": name,
                    "backend": backend,
                    "metric": metric,
                    "current": round(current, 6),
                    "baseline": round(base_value, 6),
                    "volume": volume,
                }
                if volume < _PERF_MIN_VOLUME[metric]:
                    entry["verdict"] = "NEUTRAL"
                    entry["insufficient_volume"] = True
                else:
                    entry["verdict"] = _perf_verdict(
                        metric, current, base_value
                    )
                comparisons.append(entry)
    verdicts = {entry["verdict"] for entry in comparisons}
    if "REGRESSION" in verdicts:
        overall = "REGRESSION"
    elif "WIN" in verdicts:
        overall = "WIN"
    else:
        overall = "NEUTRAL"
    return {
        "overall": overall,
        "comparisons": comparisons,
        "baseline_found": bool(base_datasets),
    }



def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench scaling",
        description=(
            "Solve each dataset once under the enriched workload and "
            "report per-phase wall-clock and the oracle/derive "
            "counters; --perf-baseline adds the perf-regression gate."
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="dataset scale factor"
    )
    parser.add_argument(
        "--datasets",
        default="2k,10k,25k,50k",
        help="comma-separated registry dataset names to sweep (default "
        "2k,10k,25k,50k). Full-scale runtime grows steeply with size; "
        "lower --scale (CI uses 0.08) or trim --datasets for short runs",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the JSON result here (default: stdout only)",
    )
    parser.add_argument(
        "--perf-baseline",
        default=None,
        help="checked-in BENCH_scaling.json to grade this run's perf "
        "counters against (oracle rebuild share, candidate evaluations "
        "per derive). Each (dataset, backend, metric) pair present in "
        "both records gets a WIN / NEUTRAL / REGRESSION verdict; any "
        "REGRESSION fails the run (exit 3). Thresholds are deliberately "
        "coarse so a reduced-scale run can be graded against a "
        "full-scale baseline",
    )
    args = parser.parse_args(argv)

    result = run_scaling(
        datasets=tuple(
            part.strip() for part in args.datasets.split(",") if part.strip()
        ),
        scale=args.scale,
    )
    if args.perf_baseline:
        result["perf_gate"] = compare_perf_to_baseline(
            result, read_bench_record(args.perf_baseline)
        )

    payload = json.dumps(result, indent=2, sort_keys=True)
    if args.output:
        # Atomic: a watchdog kill mid-write must not truncate a
        # checked-in BENCH_*.json.
        atomic_write_text(args.output, payload + "\n")
    print(payload)

    for name, block in result["datasets"].items():
        row = block["backends"]["numpy"]
        print(
            f"{name}: p={block['p']} wall {row['wall_seconds']}s "
            f"(tabu {row['tabu_seconds']}s, {row['status']})",
            file=sys.stderr,
        )
    gate = result.get("perf_gate")
    if gate is None:
        return 0
    for entry in gate["comparisons"]:
        print(
            f"perf-gate {entry['verdict']}: "
            f"{entry['dataset']}/{entry['backend']} "
            f"{entry['metric']} {entry['current']} "
            f"(baseline {entry['baseline']})",
            file=sys.stderr,
        )
    if not gate["baseline_found"]:
        print(
            f"perf-gate NEUTRAL: no usable baseline at {args.perf_baseline}",
            file=sys.stderr,
        )
    if gate["overall"] == "REGRESSION":
        print(
            f"FAIL: perf gate regressed against {args.perf_baseline}",
            file=sys.stderr,
        )
        return 3
    print(f"perf-gate overall: {gate['overall']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
