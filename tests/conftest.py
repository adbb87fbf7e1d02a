"""Shared fixtures for the test-suite.

Provides small deterministic worlds the tests reason about exactly:

- ``grid3`` — the paper's running example world: a 3×3 rook grid whose
  areas carry attribute ``s`` with value ``a_i = i`` (the values that
  make every worked example in Section V come out: MIN [2,4] seeds
  {2,3,4}, MAX [6,7] seeds {6,7}, filtration drops {1,8,9}, and the
  AVG [4,5] pairings 2+6 and 3+7 average to 4 and 5).
- ``line5`` — a 5-area path graph (articulation-point scenarios).
- ``tiny_census`` / ``small_census`` — synthetic census datasets of 30
  and 200 tracts for integration tests.
- ``kernel`` — runs a test once per hot-path kernel (see
  :func:`force_kernel`).
"""

from __future__ import annotations

import signal

import pytest

from repro.core import Area, AreaCollection
from repro.data import synthetic_census
from repro.fact import growing, tabu

# Chaos tests interrupt the solver mid-flight; a bug in the
# interruption machinery shows up as a hang, not a failure. With no
# pytest-timeout available in this offline environment, a SIGALRM
# watchdog provides the equivalent: any chaos-marked test still
# running after this many seconds fails instead of stalling CI.
CHAOS_WATCHDOG_SECONDS = 60


@pytest.fixture(autouse=True)
def _chaos_watchdog(request):
    """Fail chaos-marked tests that hang instead of letting CI stall."""
    if request.node.get_closest_marker("chaos") is None:
        yield
        return
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"chaos test exceeded the {CHAOS_WATCHDOG_SECONDS}s watchdog"
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(CHAOS_WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# A cutoff past any input size: every size-dispatched hot path takes
# its scalar loop.
SCALAR_ONLY = 1 << 62


def force_kernel(monkeypatch, kernel: str) -> None:
    """Pin the size-dispatched hot paths to one kernel.

    The Tabu move derive (``repro.fact.tabu._VECTOR_MIN_DONOR``) and
    the batched construction paths
    (``repro.fact.growing._VECTOR_MIN_BATCH``) pick the pure-Python
    scalar loop or the numpy vector kernel by input size. ``"python"``
    raises both cutoffs past any input, ``"numpy"`` drops them to 0.
    Both kernels must decide bit-identically; worker processes forked
    after the patch inherit it.
    """
    cutoff = {"python": SCALAR_ONLY, "numpy": 0}[kernel]
    monkeypatch.setattr(tabu, "_VECTOR_MIN_DONOR", cutoff)
    monkeypatch.setattr(growing, "_VECTOR_MIN_BATCH", cutoff)


@pytest.fixture(params=["python", "numpy"])
def kernel(request, monkeypatch):
    """Run the test once with every hot path forced onto each kernel."""
    force_kernel(monkeypatch, request.param)
    return request.param


def make_grid_collection(
    rows: int,
    cols: int,
    values: dict[int, float] | None = None,
    attribute: str = "s",
) -> AreaCollection:
    """A rows×cols rook-grid collection with one attribute.

    Area ids are 1-based in row-major order (matching the paper's
    a_1 … a_9 numbering); by default area ``i`` has value ``i``.
    """
    areas = []
    adjacency: dict[int, set[int]] = {}
    for r in range(rows):
        for c in range(cols):
            area_id = r * cols + c + 1
            value = float(values[area_id]) if values else float(area_id)
            areas.append(
                Area(
                    area_id=area_id,
                    attributes={attribute: value},
                    dissimilarity=value,
                )
            )
            neighbors = set()
            if r > 0:
                neighbors.add(area_id - cols)
            if r < rows - 1:
                neighbors.add(area_id + cols)
            if c > 0:
                neighbors.add(area_id - 1)
            if c < cols - 1:
                neighbors.add(area_id + 1)
            adjacency[area_id] = neighbors
    return AreaCollection(areas, adjacency)


def make_line_collection(
    values: list[float], attribute: str = "s"
) -> AreaCollection:
    """A path-graph collection: area ``i+1`` holds ``values[i]``."""
    n = len(values)
    areas = [
        Area(i + 1, {attribute: float(values[i])}, dissimilarity=float(values[i]))
        for i in range(n)
    ]
    adjacency = {
        i + 1: {j for j in (i, i + 2) if 1 <= j <= n} for i in range(n)
    }
    return AreaCollection(areas, adjacency)


@pytest.fixture
def grid3() -> AreaCollection:
    """The 3×3 running-example world (area i has s = i)."""
    return make_grid_collection(3, 3)


@pytest.fixture
def line5() -> AreaCollection:
    """A 5-area path graph with s = 1..5."""
    return make_line_collection([1, 2, 3, 4, 5])


@pytest.fixture(scope="session")
def tiny_census() -> AreaCollection:
    """30 synthetic census tracts (session-scoped: read-only)."""
    return synthetic_census(30, seed=11)


@pytest.fixture(scope="session")
def small_census() -> AreaCollection:
    """200 synthetic census tracts (session-scoped: read-only)."""
    return synthetic_census(200, seed=12)
