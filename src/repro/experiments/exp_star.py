"""``STAR_lb`` — conclusion remark: the star graph shows cobra cover can
be ``Ω(n log n)``.

On the star, every active leaf sends both its draws back to the hub;
only the hub's two draws can discover leaves, so coverage is a
two-coupons-every-other-round coupon collector: ``Θ(n log n)``.  We
sweep ``n`` and check ``cover / (n ln n)`` flattens to a constant, and
that push gossip sits in the same ``Θ(n log n)`` class (its hub also
pushes one message per round) — i.e. the conjectured universal
``O(n log n)`` matches the star's lower bound.

The Monte-Carlo surface is the registered ``STAR_lb`` sweep
(:mod:`repro.store.sweeps`): this runner drives its two campaigns
(cobra cover, push spread) through an ephemeral store and tabulates
``Campaign.frame()`` — point ``sweep run STAR_lb --store DIR`` (or any
number of ``sweep work`` dispatch workers) at a directory to make the
same cells durable.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table, fit_power_law
from .registry import ExperimentResult, register, run_campaigns


@register("STAR_lb", "Conclusion: star graph cobra cover is Ω(n log n)")
def run(*, scale: str = "quick", seed: int = 0) -> ExperimentResult:
    campaigns = run_campaigns("STAR_lb", scale=scale, seed=seed)

    cobra = campaigns["STAR_lb/cobra"].frame().sort_by("g_n")
    push_by_n = {
        row["g_n"]: row["mean"] for row in campaigns["STAR_lb/push"].frame()
    }
    table = Table(
        ["n", "cobra cover", "cover/(n·ln n)", "push rounds", "push/(n·ln n)"],
        title="STAR coupon-collector lower bound",
    )
    ns, covers = [], []
    for row in cobra:
        n, mean = row["g_n"], row["mean"]
        push = push_by_n[n]
        ns.append(n)
        covers.append(mean)
        nl = n * np.log(n)
        table.add_row([n, mean, mean / nl, push, push / nl])
    fit = fit_power_law(ns, covers)
    norm = np.array(covers) / (np.array(ns) * np.log(ns))
    table.add_row(["fit", f"n^{fit.exponent:.3f}", "", "", ""])
    return ExperimentResult(
        experiment_id="STAR_lb",
        tables=[table],
        findings={
            "cover_exponent": fit.exponent,
            "nlogn_ratio_spread": float(norm.max() / norm.min()),
        },
        notes=(
            "Lower-bound witness: exponent ≈ 1 with a log factor "
            "(n·log n class), matching the Ω(n log n) remark and the "
            "conjectured O(n log n) universal upper bound."
        ),
    )
