"""Benchmark: vectorized ``run_batch`` vs serial per-trial cobra runs.

The acceptance bar for the unified process API: batched ``run_batch``
for cobra cover on ``grid(32, 2)`` with 32 trials must be at least
3x faster than 32 serial ``simulate(g, "cobra", metric="cover", seed=s)``
calls.

Both sides are timed with ``time.process_time`` (CPU time — immune to
scheduler noise on shared machines) and best-of-``ROUNDS`` so the
comparison is fair in both directions.

Run directly::

    PYTHONPATH=src python benchmarks/bench_facade_batch.py

or through pytest::

    PYTHONPATH=src pytest benchmarks/bench_facade_batch.py -s
"""

from __future__ import annotations

import time

from repro import grid, run_batch, simulate
from repro.sim.rng import spawn_seeds

SEED = 2016
TRIALS = 32
ROUNDS = 9


def measure_speedup() -> tuple[float, float, float]:
    """Return (serial_seconds, batched_seconds, speedup).

    Rounds are interleaved (serial, batched, serial, …) and each side
    takes its best, so a machine-load shift mid-benchmark biases both
    sides equally instead of whichever ran second.
    """
    g = grid(32, 2)

    def serial():
        for s in spawn_seeds(SEED, TRIALS):
            simulate(g, "cobra", metric="cover", seed=s)

    def batched():
        run_batch(g, "cobra", trials=TRIALS, seed=SEED, strategy="vectorized")

    serial()  # warm-up: imports, allocator pools, ufunc dispatch caches
    batched()
    serial_t = batched_t = float("inf")
    for _ in range(ROUNDS):
        t0 = time.process_time()
        serial()
        serial_t = min(serial_t, time.process_time() - t0)
        t0 = time.process_time()
        batched()
        batched_t = min(batched_t, time.process_time() - t0)
    return serial_t, batched_t, serial_t / batched_t


def test_batched_cobra_speedup():
    serial_t, batched_t, speedup = measure_speedup()
    print(
        f"\n32 serial simulate calls: {serial_t * 1e3:.1f} ms | "
        f"run_batch vectorized: {batched_t * 1e3:.1f} ms | "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= 3.0, (
        f"vectorized run_batch only {speedup:.2f}x faster than serial "
        f"({serial_t * 1e3:.1f} ms vs {batched_t * 1e3:.1f} ms)"
    )


if __name__ == "__main__":
    serial_t, batched_t, speedup = measure_speedup()
    print(f"32 serial simulate calls         : {serial_t * 1e3:7.1f} ms")
    print(f"run_batch (vectorized, 32 trials): {batched_t * 1e3:7.1f} ms")
    print(f"speedup                          : {speedup:7.2f}x (bar: >= 3)")
    from _emit import emit_bench_json

    emit_bench_json(
        "facade_batch",
        {
            "graph": "grid(32, 2)",
            "trials": TRIALS,
            "rounds": ROUNDS,
            "serial_ms": round(serial_t * 1e3, 3),
            "batched_ms": round(batched_t * 1e3, 3),
            "speedup": round(speedup, 3),
            "bar": 3.0,
        },
    )
    raise SystemExit(0 if speedup >= 3.0 else 1)
