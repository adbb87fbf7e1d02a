"""Resumable on-disk journal for benchmark runs.

A full report run (``python -m repro.bench.report``) is hours of
solver time at scale 1.0; a crash near the end used to throw all of it
away. The journal makes runs resumable: every measured
:class:`~repro.bench.runner.ExperimentRow` is appended to a JSONL file
as soon as it exists, and a later run with the same journal replays
completed cells instead of re-solving them.

Only clean (``status == "ok"``) rows are replayed — error rows and
interrupted cells are retried, so a resume naturally re-attempts
exactly the cells that went wrong.

The journal is *ambient*: :func:`repro.bench.runner.use_journal`
installs one for the duration of a report run, and ``run_emp`` /
``run_maxp`` consult it transparently. Threading a journal argument
through every table/figure generator would touch a dozen call sites
for what is purely an operational concern.

The file format is deliberately dumb — one JSON object per line, the
cell key embedded in the row. Each record atomically rewrites the
whole file (:func:`repro.runtime.atomic.atomic_write_text`: sibling
temp file + ``os.replace``), so a SIGALRM watchdog, a per-cell
deadline kill or plain OOM death mid-record can never truncate the
journal a later ``--journal`` resume depends on — a reader always
sees a complete previous or complete new snapshot. Torn lines from
journals written by older (append-mode) versions are still detected
and dropped on load.

Records carry a ``schema_version``
(:data:`repro.bench.runner.BENCH_SCHEMA_VERSION`, currently 2 — the
version that added the ``telemetry`` summary block). A record without
one is never replayed: its cell is solved again.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

from ..runtime.atomic import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import ExperimentRow

__all__ = ["RunJournal", "journal_key"]

# The fields that uniquely identify one experiment cell. A row is only
# replayed for a run that matches all of them. ``enable_tabu`` is part
# of the key because the tables measure p without Tabu while the
# timing figures re-run the same combo/setting cells with it enabled.
_KEY_FIELDS = (
    "solver",
    "combo",
    "dataset",
    "setting",
    "n_areas",
    "rng_seed",
    "enable_tabu",
)


def journal_key(
    solver: str,
    combo: str,
    dataset: str,
    setting: str,
    n_areas: int,
    rng_seed: int,
    enable_tabu: bool,
) -> tuple:
    """The identity of one experiment cell."""
    return (
        solver,
        combo,
        dataset,
        setting,
        int(n_areas),
        int(rng_seed),
        bool(enable_tabu),
    )


class RunJournal:
    """Append-only JSONL journal of completed benchmark cells.

    Parameters
    ----------
    path:
        The journal file. Created on first :meth:`record`; an existing
        file is loaded so completed cells replay.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._rows: dict[tuple, dict] = {}
        self.replayed = 0
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn final line from a crashed run
                if not isinstance(entry, dict):
                    continue
                try:
                    key = journal_key(*(entry[f] for f in _KEY_FIELDS))
                except (KeyError, TypeError, ValueError):
                    continue
                self._rows[key] = entry

    def __len__(self) -> int:
        return len(self._rows)

    def lookup(self, key: tuple) -> "ExperimentRow | None":
        """The replayable row for *key*, or ``None``.

        Only ``status == "ok"`` rows that carry a ``schema_version``
        replay; error/interrupted cells and unversioned rows are left
        for the caller to re-solve.
        """
        entry = self._rows.get(key)
        if (
            entry is None
            or entry.get("status") != "ok"
            or "schema_version" not in entry
        ):
            return None
        from .runner import ExperimentRow

        fields = {
            name: entry[name]
            for name in ExperimentRow.__dataclass_fields__
            if name in entry
        }
        try:
            row = ExperimentRow(**fields)
        except TypeError:
            return None  # journal written by an incompatible version
        self.replayed += 1
        return row

    def record(self, row: "ExperimentRow") -> None:
        """Record one measured row, atomically rewriting the journal
        so a kill at any instant leaves a complete, parseable file."""
        entry = row.as_dict()
        self._rows[journal_key(*(entry[f] for f in _KEY_FIELDS))] = entry
        lines = [
            json.dumps(stored, sort_keys=True)
            for stored in self._rows.values()
        ]
        atomic_write_text(self.path, "\n".join(lines) + "\n")

    def close(self) -> None:
        """Kept for API compatibility — atomic rewrites hold no open
        handle, so there is nothing to close."""

    def delete(self) -> None:
        """Remove the journal file — called after a fully successful
        run, when there is nothing left to resume."""
        if os.path.exists(self.path):
            os.remove(self.path)

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
