"""Summary statistics and bootstrap confidence intervals.

The summary type is :class:`repro.sim.montecarlo.TrialSummary` — one
schema for Monte-Carlo harness output, facade batches, and analysis
tables; :func:`summarize` delegates to
:func:`repro.sim.montecarlo.summarize_trials`.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..sim.montecarlo import TrialSummary, summarize_trials
from ..sim.rng import SeedLike, resolve_rng

__all__ = ["summarize", "bootstrap_ci"]


def summarize(values) -> TrialSummary:
    """Summarise a 1-D sample (NaNs dropped, counted as failures)."""
    return summarize_trials(values)


def bootstrap_ci(
    values,
    stat: Callable[[np.ndarray], float] = np.mean,
    *,
    iters: int = 2000,
    level: float = 0.95,
    seed: SeedLike = None,
) -> tuple[float, float]:
    """Percentile bootstrap interval for ``stat`` of the sample."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        raise ValueError("empty sample")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    rng = resolve_rng(seed)
    idx = rng.integers(0, arr.size, size=(iters, arr.size))
    stats = np.array([stat(arr[row]) for row in idx])
    alpha = (1.0 - level) / 2.0
    return float(np.quantile(stats, alpha)), float(np.quantile(stats, 1.0 - alpha))
