"""Monte-Carlo estimators for worst-case cobra hitting times.

Per-trial RNG streams are spawned from a single seed, so results are
reproducible regardless of execution order.  Cover- and hitting-time
trial arrays come from :func:`repro.sim.facade.run_batch`.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..graphs.base import Graph
from ..sim.rng import SeedLike, resolve_rng, spawn_seeds

__all__ = [
    "max_hitting_time_estimate",
]


def max_hitting_time_estimate(
    graph: Graph,
    *,
    k: int = 2,
    trials: int = 5,
    pairs: int | None = None,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> float:
    """Estimate ``h_max = max_{u,v} H(u, v)`` for the cobra walk.

    Evaluates mean hitting time over sampled ``(u, v)`` pairs (all
    ordered pairs when ``pairs`` is ``None`` and ``n ≤ 40``) and
    returns the maximum.  This is the quantity Matthews' bound
    (Theorem 1) consumes.  Per-pair trials run on the vectorized
    batched hitting engine via :func:`repro.sim.facade.run_batch`.

    Budget-exhausted trials are **not** dropped: a trial that never hit
    within the budget has a hitting time of *at least* the budget, so
    it enters its pair's mean clamped to the budget (making each pair
    mean a proper lower bound on the true mean), and a single
    :class:`RuntimeWarning` reports how many pairs were censored (they
    are exactly the pairs where hitting is hardest — silently skipping
    them used to underestimate ``h_max`` where it matters most).
    """
    from ..sim.facade import run_batch

    n = graph.n
    seeds = spawn_seeds(seed, 2)
    rng = resolve_rng(seeds[0])
    if pairs is None and n <= 40:
        pair_list = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        count = pairs if pairs is not None else 4 * n
        us = rng.integers(0, n, size=count)
        vs = rng.integers(0, n, size=count)
        keep = us != vs
        pair_list = list(zip(us[keep].tolist(), vs[keep].tolist()))
        if not pair_list:
            pair_list = [(0, n - 1)]
    if max_steps is None:
        from .cobra import _default_budget

        budget = _default_budget(n)
    else:
        budget = int(max_steps)
    hmax = 0.0
    censored_pairs = 0
    trial_seeds = spawn_seeds(seeds[1], len(pair_list))
    for (u, v), s in zip(pair_list, trial_seeds):
        times = run_batch(
            graph,
            "cobra",
            metric="hit",
            trials=trials,
            start=u,
            target=v,
            seed=s,
            max_steps=budget,
            k=k,
        ).values
        failed = np.isnan(times)
        if failed.any():
            # a trial that ran out of budget hit no earlier than the
            # budget: clamp it there instead of dropping it, so the
            # pair mean stays a lower bound on the true mean
            censored_pairs += 1
            times = np.where(failed, float(budget), times)
        mean = float(times.mean())
        if mean > hmax:
            hmax = mean
    if censored_pairs:
        warnings.warn(
            f"max_hitting_time_estimate: {censored_pairs}/{len(pair_list)} "
            f"pair(s) had trials that exhausted the {budget}-step budget; "
            "those trials were clamped to the budget, so h_max is a lower "
            "bound — raise max_steps for a sharper estimate",
            RuntimeWarning,
            stacklevel=2,
        )
    return hmax
