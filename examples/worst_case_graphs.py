"""Theorem 20's battleground: worst-case graphs for random walks.

The lollipop graph (clique + tail) drives the simple random walk's
cover time to Θ(n³) — the worst possible.  Theorem 20 guarantees the
2-cobra walk never needs more than O(n^{11/4} log n) on *any* graph;
on the lollipop it is in fact near-linear, because the clique stays
saturated with active vertices and keeps re-seeding the tail.

This example measures both processes on lollipops and barbells, prints
the exact random-walk hitting time (certifying the cubic growth), and
shows where each process spends its time (clique vs tail).

Usage::

    python examples/worst_case_graphs.py
"""

from __future__ import annotations

from repro.analysis import Table, fit_power_law
from repro.core import thm20_general_cover
from repro.graphs import barbell, lollipop
from repro.sim import coverage_curve, simulate
from repro.walks import rw_exact_hitting_times


def main() -> None:
    print("=== lollipop: the Θ(n³) random-walk witness ===\n")
    ns = [24, 48, 96, 192]
    table = Table(
        ["n", "cobra cover", "rw hmax (exact)", "rw cover (sim)", "thm20 bound"],
        title="lollipop graphs",
    )
    cobra_list, rw_list = [], []
    for n in ns:
        g = lollipop(n)
        res = simulate(g, "cobra", seed=n)
        h = rw_exact_hitting_times(g, g.n - 1).max()
        rw_sim = (
            simulate(g, "simple", seed=n, max_steps=40 * n**3).cover_time
            if n <= 48
            else None
        )
        cobra_list.append(res.cover_time)
        rw_list.append(float(h))
        table.add_row([n, res.cover_time, float(h), rw_sim, thm20_general_cover(n)])
    cf = fit_power_law(ns, cobra_list)
    rf = fit_power_law(ns, rw_list)
    table.add_row(["fit", f"n^{cf.exponent:.2f}", f"n^{rf.exponent:.2f}", "", "n^2.75·log n"])
    print(table.render())

    print("\nWhere the time goes (lollipop n=96):")
    g = lollipop(96)
    res = simulate(g, "cobra", seed=96)
    c = g.meta["clique"]
    clique_done = int(res.first_activation[:c].max())
    tail_done = int(res.first_activation[c:].max())
    print(f"  clique ({c} vertices) fully covered by step {clique_done}")
    print(f"  tail   ({g.n - c} vertices) fully covered by step {tail_done}")
    curve = coverage_curve(res.first_activation)
    print(f"  90% of the graph covered by step {curve.time_to_fraction(0.9)}")
    print(
        "  — the clique saturates in O(log n) steps and then acts as a\n"
        "    constant-rate pump into the tail; the random walk instead\n"
        "    keeps falling back into the clique (expected n/2 re-entries\n"
        "    per tail step, n^2 steps to cross: the cubic mechanism)."
    )

    print("\n=== barbell: two traps, same story ===\n")
    t2 = Table(["n", "cobra cover", "rw hmax (exact)"], title="barbell graphs")
    for n in (24, 48, 96):
        g = barbell(n)
        res = simulate(g, "cobra", seed=n)
        h = rw_exact_hitting_times(g, g.n - 1).max()
        t2.add_row([n, res.cover_time, float(h)])
    print(t2.render())
    print(
        "\nTakeaway: the paper's Theorem 20 bound O(n^{11/4} log n) is the\n"
        "first sub-n³ worst-case guarantee for any branching walk — and on\n"
        "the classical witnesses the true cobra behaviour is near-linear."
    )


if __name__ == "__main__":
    main()
