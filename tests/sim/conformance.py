"""The engine conformance table (not itself a test file).

:data:`SERIAL_PARITY_CASES` is the engines' distributional contract:
each vectorized engine matches ``strategy="serial"`` at fixed seeds
(means within a pooled CI, :func:`assert_means_close`).
``tests/sim/test_batch_engines.py`` parametrizes over it.  Bit-level
pinning of every engine's stream lives in ``tests/golden``.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def assert_means_close(vec: Any, ser: Any) -> None:
    """Serial-parity contract: means within a pooled 95% CI (3 sigma of
    the combined SEM, plus a small absolute slack for tiny cover
    times)."""
    assert vec.failures == 0 and ser.failures == 0
    sem = float(np.hypot(vec.std / np.sqrt(vec.n), ser.std / np.sqrt(ser.n)))
    assert abs(vec.mean - ser.mean) <= 3.0 * sem + 2.0, (
        f"vectorized mean {vec.mean:.2f} vs serial {ser.mean:.2f} "
        f"(pooled sem {sem:.2f})"
    )


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
#: vectorized-vs-serial distributional parity (48 trials, seed 29, the
#: 8x2 grid): one row per engine configuration, formerly inline in
#: test_batch_engines.py.  (engine, params, metric, target)
SERIAL_PARITY_CASES: list[tuple[str, dict[str, Any], str | None, int | None]] = [
    ("push", {}, None, None),
    ("pull", {}, None, None),
    ("push_pull", {}, None, None),
    ("push", {}, "hit", 63),
    ("pull", {}, "hit", 63),
    ("push_pull", {}, "hit", 63),
    ("parallel", {"walkers": 4}, None, None),
    ("walt", {}, None, None),
    ("walt", {"delta": 0.25, "lazy": False}, None, None),
    ("cobra", {}, "hit", 63),
    ("simple", {}, "hit", 63),
    ("walt", {}, "hit", 63),
    ("lazy", {}, None, None),
    ("lazy", {}, "hit", 63),
    ("branching", {}, None, None),
    ("branching", {"k": 3, "population_cap": 64}, None, None),
    ("coalescing", {"walkers": 8}, "cover", None),
]
