"""Golden stream fingerprints: every registered engine's output, pinned
against history.

The parity suites prove engines agree with each other; this file proves
they agree with what they produced when ``streams.json`` was written.
One row per ProcessSpec × declared metric × {vectorized, serial} × a
small graph, generated from the registry so a newly registered process
cannot skip it.  Each row is the sha256 of the float64 values of a tiny
fixed-seed :func:`repro.sim.run_batch`, or the exception class name when
that combination raises (the serial path on an implicit oracle, the
vectorized path for a metric without a batched engine).  Two more rows
per graph pin the fixed-horizon engines outside the registry,
:func:`~repro.sim.batch.batched_cobra_active_sizes` and
:func:`~repro.sim.batch.batched_walt_positions_at`.

The vectorized rows are also re-run with every visited mask forced onto
the bit-packed backend (which also turns off cobra's neighbor table, so
the oracles' per-step ``neighbor_at`` path runs), and the cobra rows
with the dedup mask always scatter-reset, so code paths that only large
cells reach are pinned by the same fingerprints.

A refactor that reorders one RNG draw fails here with a diff naming the
engine.  A deliberate stream change regenerates the file, printing each
row it changes::

    PYTHONPATH=src python tests/golden/test_streams.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

import repro.sim.batch as batch_mod
import repro.sim.bitmask as bitmask_mod
from repro.graphs import cycle_graph, hypercube_oracle, path_graph
from repro.sim import (
    all_processes,
    batched_cobra_active_sizes,
    batched_walt_positions_at,
    run_batch,
)

GOLDEN = Path(__file__).with_name("streams.json")

TRIALS = 8
SEED = 2016
#: explicit budgets: without one a serial coalescing run on a bipartite
#: graph never stops, and the legacy defaults run to thousands of steps
MAX_STEPS = {"min": 12}
DEFAULT_MAX_STEPS = 64
STRATEGIES = ("vectorized", "serial")
#: the fixed-horizon engines' rows, keyed ``process/quantity``
HORIZON_ENGINES = {
    "cobra/active_sizes": batched_cobra_active_sizes,
    "walt/positions_at": batched_walt_positions_at,
}
HORIZON_STEPS = 12


def _graphs(metric: str) -> dict:
    """The graphs a metric is fingerprinted on: a non-bipartite CSR
    graph and an implicit oracle, or the ℤ-line for ``min``."""
    if metric == "min":
        return {"path33": path_graph(33)}
    return {"cycle7": cycle_graph(7), "hypercube_oracle4": hypercube_oracle(4)}


def _fingerprint(values) -> str:
    data = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    return hashlib.sha256(data.tobytes()).hexdigest()


def _run_batch_row(graph, process: str, metric: str, strategy: str) -> np.ndarray:
    return run_batch(
        graph,
        process,
        trials=TRIALS,
        metric=metric,
        target=graph.n - 1,
        seed=SEED,
        max_steps=MAX_STEPS.get(metric, DEFAULT_MAX_STEPS),
        strategy=strategy,
    ).values


def _cases() -> Iterator[tuple[str, Callable[[], np.ndarray]]]:
    """``(key, run)`` per row, where ``run()`` returns the row's values."""
    for spec in all_processes():
        for metric in sorted(spec.capabilities - {"multi_source"}):
            for label, graph in _graphs(metric).items():
                for strategy in STRATEGIES:
                    yield (
                        f"{spec.name}/{metric}/{strategy}/{label}",
                        lambda g=graph, p=spec.name, m=metric, s=strategy: (
                            _run_batch_row(g, p, m, s)
                        ),
                    )
    for name, engine in HORIZON_ENGINES.items():
        for label, graph in _graphs("cover").items():
            yield (
                f"{name}/vectorized/{label}",
                lambda g=graph, e=engine: e(
                    g, trials=TRIALS, steps=HORIZON_STEPS, seed=SEED
                ),
            )


def compute_rows(select: Callable[[str], bool] = lambda key: True) -> dict[str, str]:
    """``{"process/metric/strategy/graph": fingerprint}`` for every row
    whose key passes *select*, in sorted key order."""
    rows: dict[str, str] = {}
    for key, run in _cases():
        if not select(key):
            continue
        try:
            values = run()
        except Exception as exc:  # the class name is the row
            rows[key] = type(exc).__name__
        else:
            rows[key] = _fingerprint(values)
    return dict(sorted(rows.items()))


def _render(rows: dict[str, str]) -> str:
    return json.dumps(rows, indent=2) + "\n"


def _diff(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One line per key whose row differs, ``key: old -> new``."""
    return [
        f"  {key}: {expected.get(key, '<missing>')} -> {actual.get(key, '<missing>')}"
        for key in sorted(set(expected) | set(actual))
        if expected.get(key) != actual.get(key)
    ]


def _assert_matches_golden(actual: dict[str, str], *, whole: bool = False) -> None:
    """*actual* equals its golden rows (all of ``streams.json`` if *whole*)."""
    golden = json.loads(GOLDEN.read_text())
    if not whole:
        golden = {key: row for key, row in golden.items() if key in actual}
    diff = _diff(golden, actual)
    assert not diff, (
        "engine output streams changed (golden -> now; regenerate "
        "streams.json only for a deliberate stream change):\n" + "\n".join(diff)
    )


def test_streams_match_golden():
    actual = compute_rows()
    _assert_matches_golden(actual, whole=True)
    # byte-level comparisons across commits need the one canonical form
    assert GOLDEN.read_text() == _render(actual), "streams.json is not in --write form"


def test_packed_masks_match_golden(monkeypatch):
    """Every vectorized row again, with each visited mask bit-packed and
    cobra drawing through ``neighbor_at`` (both caps read ``DENSE_LIMIT``
    at call time)."""
    monkeypatch.setattr(bitmask_mod, "DENSE_LIMIT", 0)
    _assert_matches_golden(compute_rows(lambda key: "/vectorized/" in key))


def test_scatter_reset_matches_golden(monkeypatch):
    """The cobra rows again, with the dedup mask always scatter-reset."""
    monkeypatch.setattr(batch_mod, "_SCATTER_RESET_CELLS", 0)
    _assert_matches_golden(
        compute_rows(lambda key: key.startswith("cobra/") and "/vectorized/" in key)
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_streams.py --write")
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = compute_rows()
    for line in _diff(old, new):
        print(line)
    GOLDEN.write_text(_render(new))
