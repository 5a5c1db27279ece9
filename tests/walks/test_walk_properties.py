"""Property-based tests for the baseline processes."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs import cycle_graph, grid, random_regular
from repro.graphs.base import sample_uniform_neighbors
from repro.sim import resolve_rng
from repro.walks import BranchingWalk, CoalescingWalks, RandomWalk


@st.composite
def walk_graphs(draw):
    kind = draw(st.sampled_from(["cycle", "grid", "regular"]))
    if kind == "cycle":
        return cycle_graph(draw(st.integers(min_value=3, max_value=30)))
    if kind == "grid":
        return grid(draw(st.integers(min_value=2, max_value=5)), 2)
    return random_regular(
        draw(st.sampled_from([10, 16, 24])), 3, seed=draw(st.integers(0, 50))
    )


@given(walk_graphs(), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_walk_trajectory_valid(g, seed):
    w = RandomWalk(g, seed=seed)
    visited = {0}
    prev = w.position
    for _ in range(40):
        cur = w.step()
        assert g.has_edge(prev, cur)
        visited.add(cur)
        prev = cur
    # first_activation bookkeeping matches the trajectory
    assert w.num_covered == len(visited)
    fv = w.first_activation
    assert set(np.flatnonzero(fv >= 0).tolist()) == visited


@given(walk_graphs(), st.integers(2, 12), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_coalescing_walker_set_shrinks_to_valid_vertices(g, k, seed):
    rng = resolve_rng(seed)
    starts = rng.choice(g.n, size=min(k, g.n), replace=False)
    proc = CoalescingWalks(g, starts, seed=rng)
    prev_count = proc.num_walkers
    for _ in range(30):
        pos = proc.step()
        assert pos.size <= prev_count
        assert np.array_equal(pos, np.unique(pos))
        assert pos.min() >= 0 and pos.max() < g.n
        prev_count = pos.size
        if prev_count == 1:
            break


@given(walk_graphs(), st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_branching_population_exact_growth(g, k, seed):
    walk = BranchingWalk(g, k=k, seed=seed, population_cap=10**9)
    for t in range(1, 7):
        walk.step()
        assert walk.population == k**t


@given(walk_graphs(), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_gossip_informed_set_monotone(g, seed):
    # re-implement one push round at a time to observe monotonicity
    rng = resolve_rng(seed)
    informed = np.zeros(g.n, dtype=bool)
    informed[0] = True
    for _ in range(30):
        before = int(informed.sum())
        senders = np.flatnonzero(informed)
        targets = sample_uniform_neighbors(g, senders, rng)
        informed[targets] = True
        assert int(informed.sum()) >= before
        if informed.all():
            break
