"""Property-based tests of the graph substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    bfs_distances,
    circulant,
    connected_components,
    cycle_graph,
    from_edge_list,
    grid_coords,
    grid_vertex,
    is_connected,
    kary_tree,
    sample_uniform_neighbors,
)


@st.composite
def edge_lists(draw, max_n=30, max_m=80):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] != e[1]),
            min_size=0,
            max_size=m,
        )
    )
    return n, edges


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_from_edge_list_invariants(case):
    n, edges = case
    g = from_edge_list(n, edges)
    # CSR structural invariants
    assert g.indptr[0] == 0 and g.indptr[-1] == g.indices.size
    assert (np.diff(g.indptr) >= 0).all()
    assert g.degrees.sum() == 2 * g.m
    # symmetry and simplicity
    for u in range(n):
        row = g.neighbors(u)
        assert (np.diff(row) > 0).all() if row.size > 1 else True
        assert u not in row
        for v in row:
            assert u in g.neighbors(int(v))
    # the edge set matches the deduplicated input
    want = {(min(u, v), max(u, v)) for u, v in edges}
    got = {(int(a), int(b)) for a, b in g.edges()}
    assert got == want


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_edges_roundtrip_property(case):
    n, edges = case
    g = from_edge_list(n, edges)
    assert from_edge_list(n, g.edges()) == g


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_bfs_triangle_inequality(case):
    n, edges = case
    g = from_edge_list(n, edges)
    dist = bfs_distances(g, 0)
    # every edge's endpoints differ by at most 1 in BFS level when both reached
    for u, v in g.edges():
        if dist[u] >= 0 and dist[v] >= 0:
            assert abs(dist[u] - dist[v]) <= 1


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_components_partition(case):
    n, edges = case
    g = from_edge_list(n, edges)
    labels = connected_components(g)
    assert labels.min() >= 0
    # vertices joined by an edge share a component
    for u, v in g.edges():
        assert labels[u] == labels[v]
    # connectivity agrees with single-component condition
    assert is_connected(g) == (len(np.unique(labels)) <= 1)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_grid_coordinate_bijection(n, d):
    if (n + 1) ** d > 2000:
        return
    ids = np.arange((n + 1) ** d)
    coords = grid_coords(ids, n, d)
    assert coords.min() >= 0 and coords.max() <= n
    assert np.array_equal(grid_vertex(coords, n, d), ids)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_kary_tree_is_tree(k, depth):
    if k**(depth + 1) > 2000:
        return
    g = kary_tree(k, depth)
    assert g.m == g.n - 1
    assert is_connected(g)


@given(
    st.integers(min_value=5, max_value=40),
    st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=30, deadline=None)
def test_circulant_vertex_transitive_degrees(n, offsets):
    offsets = [s for s in offsets if s % n != 0]
    if not offsets:
        return
    g = circulant(n, offsets)
    assert g.is_regular()


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_sampling_stays_in_neighborhood(data):
    n = data.draw(st.integers(min_value=3, max_value=25))
    g = cycle_graph(n)
    k = data.draw(st.integers(min_value=1, max_value=50))
    starts = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k)
    )
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=1000)))
    picks = sample_uniform_neighbors(g, np.array(starts, dtype=np.int64), rng)
    for s, p in zip(starts, picks):
        assert g.has_edge(int(s), int(p))
