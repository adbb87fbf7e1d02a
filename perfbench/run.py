"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload enriched-2k --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off; ``--trace 1`` makes the separate traced run and
prints the per-layer metrics. Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run also
writes its full record (host fingerprint, seed, dataset sizes, every
operation, the layer table) under ``.perfbench-out/``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above times the imports
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("enriched-2k", "mas-10k", "service-open")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the solve workloads' dataset (smoke tests only)",
    )
    parser.add_argument(
        "--out", default=OUT_DIR, help="directory for records and spans",
    )
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    return declared["per_layer" if trace else "end_to_end"]


def result_line(record: dict, trace: bool) -> tuple[dict, list[str]]:
    """The final JSON object and the declared metrics the run could
    not measure (printed as 0)."""
    measured = record["metrics"]
    unmeasured = list(record.get("unmeasured", ()))
    metrics = {}
    for entry in declared_metrics(trace):
        value = measured.get(entry["name"])
        if value is None:
            unmeasured.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    ops = record.get("ops") or record.get("jobs")
    failed = sum(not op["ok"] for op in ops)
    return (
        {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": metrics,
        },
        sorted(set(unmeasured)),
    )


def write_record(record: dict, out_dir: str) -> None:
    """Write the run record, noting how many earlier records of the same
    workload share its host fingerprint and scale (only those compare)."""
    from perfbench.stats import comparable

    earlier = []
    for path in glob.glob(os.path.join(out_dir, f"record-{record['workload']}-*.json")):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                earlier.append(json.load(handle))
        except (OSError, ValueError):
            continue
    same = [r for r in earlier if comparable(record, r)]
    record["earlier_records"] = {"comparable": len(same), "not_comparable": len(earlier) - len(same)}
    name = f"record-{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)


def report(record: dict, result: dict, unmeasured: list[str]) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} trace={int(record['trace'])}")
    print(f"host {record['fingerprint_id']} {json.dumps(record['fingerprint'], sort_keys=True)}")
    print(f"commit {record['commit']}  dataset {record.get('dataset')} n_areas={record.get('n_areas')}")
    earlier = record["earlier_records"]
    print(
        f"earlier records of this workload: {earlier['comparable']} comparable,"
        f" {earlier['not_comparable']} from another host or scale (not comparable)"
    )
    for op in record.get("ops") or record.get("jobs"):
        if not op["ok"]:
            print(f"FAILED {op.get('error')}")
    tail = record.get("latency_tail")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if tail and not record["trace"]:
        print(f"  latency_tail_s is p{tail['percentile']:.1f} of {tail['samples']} samples")
    if unmeasured:
        print(f"unmeasured (printed as 0): {', '.join(unmeasured)}")
    layers = record.get("layers")
    if layers:
        solve_s = next(op["solve_s"] for op in record["ops"] if "solve_s" in op)
        print(f"layer self time (share of untraced solve_s = {solve_s:.4f} s)")
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(
                f"  {name:32s} self {row['self_s']:10.4f} s  calls {row['calls']:9d}"
                f"  share {row['self_s'] / solve_s:7.2%}"
            )
        total = sum(row["self_s"] for row in layers.values())
        print(f"  {'(sum of self times)':32s}      {total:10.4f} s  share {total / solve_s:7.2%}")


def _terminate(signum, frame):
    # Unwind through the finally blocks that stop the service processes.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import repro.bench.workloads  # noqa: F401 - timed as set-up
    import repro.certify  # noqa: F401
    import repro.fact.solver  # noqa: F401
    from perfbench import service, solve
    from perfbench.stats import fingerprint_id, git_commit, host_fingerprint

    import_s = time.perf_counter() - STARTED
    os.makedirs(args.out, exist_ok=True)
    fingerprint = host_fingerprint()
    trace = bool(args.trace)
    if args.workload == "service-open":
        scratch = os.path.join(args.out, f"service-{os.getpid()}")
        os.makedirs(scratch, exist_ok=True)
        try:
            record = service.run(args.seconds, args.seed, ROOT, scratch, import_s)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    else:
        record = solve.run(
            args.workload, args.seconds, trace, import_s, args.out, args.seed, args.scale
        )
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        scale=args.scale,
        trace=trace,
        fingerprint=fingerprint,
        fingerprint_id=fingerprint_id(fingerprint),
        commit=git_commit(ROOT),
        import_s=import_s,
    )
    result, unmeasured = result_line(record, trace)
    record["result"] = result
    write_record(record, args.out)
    report(record, result, unmeasured)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
