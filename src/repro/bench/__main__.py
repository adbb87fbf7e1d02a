"""``python -m repro.bench`` — benchmark subcommand dispatch.

Subcommands:

- ``scaling`` — scaling sweep and perf-regression gate
  (:mod:`repro.bench.scaling`): one solve per dataset size, per-phase
  wall-clock and the oracle/derive counters; ``--perf-baseline``
  grades them WIN / NEUTRAL / REGRESSION against a checked-in
  ``BENCH_scaling.json``.
- ``report`` — full paper-table/figure report run
  (:mod:`repro.bench.report`, also runnable directly as
  ``python -m repro.bench.report``).
"""

from __future__ import annotations

import sys

from . import report, scaling

_USAGE = """usage: python -m repro.bench <command> [options]

commands:
  scaling  scaling sweep (one solve per dataset size);
           --perf-baseline for the perf-regression gate
  report   generate EXPERIMENTS.md tables and figures

run `python -m repro.bench <command> --help` for command options."""


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "scaling":
        return scaling.main(rest)
    if command == "report":
        return report.main(rest)
    print(f"unknown command: {command!r}\n\n{_USAGE}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
