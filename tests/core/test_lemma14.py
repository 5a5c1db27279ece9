"""Lemma 14: cobra hitting time is dominated by the inverse-degree-
biased walk's hitting time.

The lemma's coupling gives, for every start u and target v,
``H_cobra(u, v) <= H*(u, v)`` where ``H*`` is the best
inverse-degree-biased walk.  We compute ``H*`` exactly (linear solve
with the toward-target controller — an upper bound on the optimum,
which is the conservative direction) and compare against Monte-Carlo
cobra hitting times.
"""

import numpy as np
import pytest

from repro.core import exact_hitting_times, inverse_degree_biased_transition
from repro.graphs import bfs_distances, cycle_graph, grid, kary_tree, lollipop
from repro.sim import run_batch


@pytest.mark.parametrize(
    "graph,target",
    [
        (cycle_graph(24), 12),
        (grid(5, 2), 35),
        (kary_tree(2, 4), 30),
        (lollipop(20), 19),
    ],
)
def test_cobra_hitting_below_biased_walk(graph, target):
    p = inverse_degree_biased_transition(graph, target)
    h_star = exact_hitting_times(p, target)
    # farthest start = the lemma's hardest instance
    start = int(np.argmax(bfs_distances(graph, target)))
    times = run_batch(
        graph, "cobra", metric="hit", target=target, start=start, trials=40,
        seed=7, strategy="serial",
    ).values
    mean = float(np.nanmean(times))
    # Monte-Carlo slack: the inequality is in expectation
    assert mean <= h_star[start] * 1.15 + 2.0


def test_transition_probability_inequality():
    # the pointwise fact the coupling rests on:
    # P[cobra activates y | x active] = 1-(1-1/d)^2 >= P_biased(x -> y)
    g = lollipop(16)
    target = g.n - 1
    p = inverse_degree_biased_transition(g, target)
    for x in range(g.n):
        d = g.degree(x)
        cobra_marginal = 1.0 - (1.0 - 1.0 / d) ** 2
        if x == target:
            continue
        for y in g.neighbors(x):
            assert cobra_marginal >= p[x, y] - 1e-12


def test_biased_walk_is_valid_distribution():
    g = grid(4, 2)
    p = inverse_degree_biased_transition(g, 0)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert (p >= 0).all()
