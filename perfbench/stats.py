"""Arithmetic and record helpers of the benchmark: percentiles, the
tail percentile, partition digests and the host fingerprint.

Nothing here imports the solver, so the unit tests of this module run
without the package under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess

TAIL_MIN_BEYOND = 10
"""A tail percentile is reported only where at least this many samples
lie above it, so one slow sample cannot set it alone."""


def quantile(values, q: float) -> float:
    """The *q*-quantile (0 <= q <= 1) of *values*, interpolating
    linearly between order statistics (the ``inclusive`` method of
    :func:`statistics.quantiles`)."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    position = q * (len(data) - 1)
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


def tail_percentile(values, min_beyond: int = TAIL_MIN_BEYOND):
    """The highest percentile of *values* with at least *min_beyond*
    samples strictly above its rank, as ``(percentile, value, n)``.

    With ``n`` sorted samples, the sample of rank ``k`` (0-based) has
    ``n - 1 - k`` samples above it, so the answer is rank
    ``n - 1 - min_beyond`` at percentile ``100 k / (n - 1)``. A sample
    too small to hold such a rank has no tail: the maximum is returned
    at percentile 100, and the caller reports it as such.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("tail of an empty sample")
    rank = n - 1 - min_beyond
    if rank < 0 or n == 1:
        return 100.0, data[-1], n
    return 100.0 * rank / (n - 1), data[rank], n


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of it that
    its child spans cover.

    *spans* are ``(span_id, parent_id, name, start, end)`` tuples.
    Children are clipped to their parent and overlapping children are
    counted once, so the result never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, parent_id, _name, start, end in spans:
        if parent_id is not None:
            children.setdefault(parent_id, []).append((start, end))
    result: dict[int, float] = {}
    for span_id, _parent_id, _name, start, end in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


def partition_digest(labels, p: int, n_unassigned: int, heterogeneity: float) -> str:
    """SHA-256 over the area labels (sorted by area id), p, the
    unassigned count and ``repr(H)``: two solves agree on it exactly
    when they return the same partition with the same objective."""
    payload = json.dumps(
        {
            "labels": sorted((int(a), int(r)) for a, r in labels.items()),
            "p": int(p),
            "unassigned": int(n_unassigned),
            "H": repr(float(heterogeneity)),
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def host_fingerprint() -> dict:
    """What makes timings from two runs comparable: CPU model, core
    count and the interpreter and numeric library versions."""
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def fingerprint_id(fingerprint: dict) -> str:
    text = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def git_commit(root: str) -> str | None:
    """The checked-out commit, or ``None`` when *root* is not the top of
    a git work tree (an exported checkout may sit inside another one)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def comparable(record: dict, other: dict) -> bool:
    """Timings of two records may be compared only when both ran the
    same workload at the same scale on the same host fingerprint."""
    return (
        record.get("workload") == other.get("workload")
        and record.get("scale") == other.get("scale")
        and record.get("fingerprint_id") == other.get("fingerprint_id")
    )
