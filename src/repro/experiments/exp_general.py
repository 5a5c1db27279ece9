"""``T20_general`` — Theorem 20: cobra cover on *any* graph is
``O(n^{11/4} log n)`` — beating the random walk's ``Θ(n³)`` worst case.

The witness is the lollipop graph (clique 2n/3 + path n/3), which
drives the simple walk to ``(4/27 + o(1)) n³``.  We sweep ``n``,
measure cobra cover (simulated) and random-walk cover (simulated for
small n, exact farthest-pair hitting time via linear solve as a
certified Ω(n³)-growth proxy throughout), fit both exponents, and
check: cobra exponent < 2.75 < 3 ≈ RW exponent.  Barbell rows give a
second trap-style witness.

The Monte-Carlo surface is the registered ``T20_general`` sweep
(:mod:`repro.store.sweeps`): per witness, one cobra campaign over the
ladder plus one single-cell simple-walk campaign per small size (the
cubic 60·n³ budget is per-n, so each size is its own spec).  The
deterministic certificate — the exact random-walk hitting time by
linear solve — is computed here, next to the stored means.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table, fit_power_law
from ..core import thm20_general_cover
from ..store.sweeps import T20_WITNESSES
from ..walks import rw_exact_hitting_times
from .registry import ExperimentResult, register, run_campaigns


@register("T20_general", "Thm 20: general-graph cobra cover O(n^{11/4} log n) beats RW Θ(n^3)")
def run(*, scale: str = "quick", seed: int = 0) -> ExperimentResult:
    campaigns = run_campaigns("T20_general", scale=scale, seed=seed)

    tables: list[Table] = []
    findings: dict[str, float] = {}
    # the per-n rw specs share one name: read every arm off the shared store
    frame = next(iter(campaigns.values())).store.frame()
    for witness in T20_WITNESSES:
        cobra_rows = frame.filter(sweep=f"T20_general/{witness}/cobra")
        rw_sim = {
            row["g_n"]: row["mean"]
            for row in frame.filter(sweep=f"T20_general/{witness}/rw")
        }
        table = Table(
            [
                "n",
                "cobra cover",
                "thm20 bound",
                "rw hmax exact",
                "rw cover sim",
            ],
            title=f"T20 {witness} (RW worst-case witness)",
        )
        ns, cobra, rw_hmax = [], [], []
        # witness graphs are small: rebuild each for the exact-hitting
        # certificate (a deterministic linear solve, not Monte Carlo)
        import repro.graphs as graphs_mod

        make = getattr(graphs_mod, witness)
        for row in cobra_rows.sort_by("g_n"):
            n = row["g_n"]
            g = make(n)
            h = float(rw_exact_hitting_times(g, g.n - 1).max())
            ns.append(n)
            cobra.append(row["mean"])
            rw_hmax.append(h)
            table.add_row(
                [n, row["mean"], thm20_general_cover(n), h, rw_sim.get(n, np.nan)]
            )
        cobra_fit = fit_power_law(ns, cobra)
        rw_fit = fit_power_law(ns, rw_hmax)
        findings[f"{witness}_cobra_exponent"] = cobra_fit.exponent
        findings[f"{witness}_rw_exponent"] = rw_fit.exponent
        table.add_row(
            ["fit", f"n^{cobra_fit.exponent:.3f}", "n^2.75·log", f"n^{rw_fit.exponent:.3f}", ""]
        )
        tables.append(table)
    return ExperimentResult(
        experiment_id="T20_general",
        tables=tables,
        findings=findings,
        notes=(
            "Who-wins shape: the RW exponent is ~3 (its hmax on the lollipop "
            "is the classical cubic witness) while the cobra exponent stays "
            "far below the 2.75 the paper guarantees — on these witnesses "
            "the frontier keeps the clique saturated, so coverage is "
            "essentially linear and the n^{11/4} bound is very loose."
        ),
    )
