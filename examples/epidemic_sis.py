"""Epidemic scenario: cobra walks as an idealized SIS process.

The paper (§1) frames the k-cobra walk as an idealized
Susceptible-Infected-Susceptible epidemic: each round, every infected
agent infects k uniformly random contacts and recovers (it can be
re-infected immediately).  The active set is the set of currently
infected agents; the cover time is the moment every agent has been
exposed at least once.

This example builds two plausible contact networks — a power-law
social graph and a geometric proximity graph — and reports, per
branching factor k (the per-round contact count):

* the time until everyone has been exposed (cover time),
* the endemic prevalence (the active set's equilibrium fraction),
* the exposure curve (fraction ever exposed vs round).

Usage::

    python examples/epidemic_sis.py
"""

from __future__ import annotations

from repro.analysis import Table
from repro.core import CobraWalk
from repro.graphs import chung_lu_powerlaw, largest_component, random_geometric
from repro.sim import coverage_curve


def epidemic_report(graph, k: int, seed: int, max_rounds: int = 200_000):
    """Run one SIS outbreak from patient zero (vertex 0).

    Returns the walk (its ``first_activation`` is each agent's first
    exposure), the round everyone had been exposed by (``None`` if
    *max_rounds* ran out first), and the endemic prevalence.
    """
    walk = CobraWalk(graph, k=k, start=0, seed=seed, record_history=True)
    while not walk.all_covered and walk.t < max_rounds:
        walk.step()
    cover_time = int(walk.first_activation.max()) if walk.all_covered else None
    # endemic prevalence: average infected fraction over the last
    # quarter of the outbreak (after the growth phase)
    history = walk.history
    tail = history[-max(1, history.size // 4):]
    prevalence = float(tail.mean()) / graph.n
    return walk, cover_time, prevalence


def exposure_milestones(walk, n: int) -> dict[float, int | None]:
    curve = coverage_curve(walk.first_activation, n)
    return {f: curve.time_to_fraction(f) for f in (0.5, 0.9, 0.99, 1.0)}


def main() -> None:
    networks = {
        "power-law contacts (Chung-Lu β=2.5)": largest_component(
            chung_lu_powerlaw(3000, 2.5, avg_degree=8.0, seed=11)
        ),
        "proximity contacts (geometric r=0.035)": largest_component(
            random_geometric(3000, 0.035, seed=12)
        ),
    }
    for name, g in networks.items():
        print(f"\n=== {name}: n={g.n}, m={g.m}, "
              f"max degree {g.max_degree} ===")
        table = Table(
            ["k (contacts/round)", "all exposed by", "50% exposed", "90% exposed",
             "endemic prevalence"],
        )
        for k in (1, 2, 3, 4):
            walk, cover_time, prevalence = epidemic_report(g, k, seed=100 + k)
            ms = exposure_milestones(walk, g.n)
            table.add_row(
                [k, cover_time, ms[0.5], ms[0.9], f"{prevalence:.1%}"]
            )
        print(table.render())
        print(
            "k=1 is a random-walk infection (slow, no outbreak); k>=2 is the\n"
            "cobra regime — exposure completes orders of magnitude sooner and\n"
            "an endemic active set persists, exactly the SIS picture the\n"
            "paper's cover-time bounds quantify."
        )


if __name__ == "__main__":
    main()
