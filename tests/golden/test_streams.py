"""Golden stream fingerprints: every registered engine's output, pinned
against history.

The parity suites prove engines agree with each other; this file proves
they agree with what they produced when ``streams.json`` was written.
One row per ProcessSpec × declared metric × {vectorized, serial} × a
small graph, generated from the registry so a newly registered process
cannot skip it.  Each row is the sha256 of the float64 values of a tiny
fixed-seed :func:`repro.sim.run_batch`, or the exception class name when
that combination raises (the serial path on an implicit oracle, the
vectorized path for a metric without a batched engine).

A refactor that reorders one RNG draw fails here with a diff naming the
engine.  A deliberate stream change regenerates the file::

    PYTHONPATH=src python tests/golden/test_streams.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.graphs import cycle_graph, hypercube_oracle, path_graph
from repro.sim import all_processes, run_batch

GOLDEN = Path(__file__).with_name("streams.json")

TRIALS = 8
SEED = 2016
#: explicit budgets: without one a serial coalescing run on a bipartite
#: graph never stops, and the legacy defaults run to thousands of steps
MAX_STEPS = {"min": 12}
DEFAULT_MAX_STEPS = 64
STRATEGIES = ("vectorized", "serial")


def _graphs(metric: str) -> dict:
    """The graphs a metric is fingerprinted on: a non-bipartite CSR
    graph and an implicit oracle, or the ℤ-line for ``min``."""
    if metric == "min":
        return {"path33": path_graph(33)}
    return {"cycle7": cycle_graph(7), "hypercube_oracle4": hypercube_oracle(4)}


def _fingerprint(values) -> str:
    data = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    return hashlib.sha256(data.tobytes()).hexdigest()


def compute_rows() -> dict[str, str]:
    """``{"process/metric/strategy/graph": fingerprint}`` for the whole
    registry, in sorted key order."""
    rows: dict[str, str] = {}
    for spec in all_processes():
        for metric in sorted(spec.capabilities - {"multi_source"}):
            for label, graph in _graphs(metric).items():
                for strategy in STRATEGIES:
                    key = f"{spec.name}/{metric}/{strategy}/{label}"
                    try:
                        summary = run_batch(
                            graph,
                            spec.name,
                            trials=TRIALS,
                            metric=metric,
                            target=graph.n - 1,
                            seed=SEED,
                            max_steps=MAX_STEPS.get(metric, DEFAULT_MAX_STEPS),
                            processes=1,
                            strategy=strategy,
                        )
                    except Exception as exc:  # the class name is the row
                        rows[key] = type(exc).__name__
                    else:
                        rows[key] = _fingerprint(summary.values)
    return dict(sorted(rows.items()))


def _render(rows: dict[str, str]) -> str:
    return json.dumps(rows, indent=2) + "\n"


def test_streams_match_golden():
    text = GOLDEN.read_text()
    expected = json.loads(text)
    actual = compute_rows()
    diff = [
        f"  {key}: golden={expected.get(key, '<missing>')} now={actual.get(key, '<missing>')}"
        for key in sorted(set(expected) | set(actual))
        if expected.get(key) != actual.get(key)
    ]
    assert not diff, (
        "engine output streams changed (regenerate streams.json only for "
        "a deliberate stream change):\n" + "\n".join(diff)
    )
    # byte-level comparisons across commits need the one canonical form
    assert text == _render(actual), "streams.json is not in --write form"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_streams.py --write")
    GOLDEN.write_text(_render(compute_rows()))
