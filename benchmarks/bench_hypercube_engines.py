"""Benchmark: the vectorized engines on a 10^5-vertex implicit oracle.

Times ``run_batch`` at 64 trials on ``hypercube_oracle(17)`` (131072
vertices, never materialised) for four engines.  Step budgets bound
each cell so every run times a fixed amount of work; budget
exhaustion (NaN trial values) is fine — the same seeds exhaust the
same budget every time.

The emitted ``BENCH_hypercube_engines.json`` carries one ``numpy_ms``
per engine, which ``ci/check_bench_regression.py`` gates against the
committed baseline.

Run directly::

    PYTHONPATH=src python benchmarks/bench_hypercube_engines.py
"""

from __future__ import annotations

import time

from repro.graphs import hypercube_oracle
from repro.sim import run_batch

SEED = 2016
TRIALS = 64
ROUNDS = 3
DIM = 17  # 2^17 = 131072 vertices

#: (engine, per-call kwargs) — step budgets (and walt's walker
#: density) keep every cell bounded and the whole run under a minute
CASES: list[tuple[str, dict]] = [
    ("cobra", {"max_steps": 10}),
    ("parallel", {"walkers": 4, "max_steps": 192}),
    ("walt", {"delta": 0.02, "max_steps": 48}),
    ("simple", {"metric": "hit", "target": (1 << DIM) - 1, "max_steps": 4096}),
]


def _cpu_seconds(g, engine: str, kwargs: dict) -> float:
    """CPU time of one vectorized ``run_batch`` call."""
    t0 = time.process_time()
    run_batch(g, engine, trials=TRIALS, seed=SEED, strategy="vectorized", **kwargs)
    return time.process_time() - t0


def measure() -> list[dict]:
    """Per-engine timings, best-of-ROUNDS after one warm-up call."""
    g = hypercube_oracle(DIM)
    out = []
    for engine, kwargs in CASES:
        _cpu_seconds(g, engine, kwargs)  # warm-up: allocator pools, ufunc caches
        best = min(_cpu_seconds(g, engine, kwargs) for _ in range(ROUNDS))
        out.append(
            {"engine": engine, "params": dict(kwargs), "numpy_ms": round(best * 1e3, 3)}
        )
    return out


def main() -> int:
    cases = measure()
    for c in cases:
        print(f"{c['engine']:<10} {c['numpy_ms']:9.1f} ms")
    from _emit import emit_bench_json

    emit_bench_json(
        "hypercube_engines",
        {
            "graph": f"hypercube_oracle({DIM})",
            "n": 1 << DIM,
            "trials": TRIALS,
            "rounds": ROUNDS,
            "cases": cases,
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
