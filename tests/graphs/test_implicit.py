"""Conformance suite for the implicit-topology oracle layer.

Every topology in ``IMPLICIT_TOPOLOGIES`` is checked three ways:

* **protocol conformance** — degrees, slot enumeration, and ragged
  neighbor lists agree with the materialised CSR graph (``to_csr``
  validates sortedness/symmetry/no-self-loops independently);
* **sampling parity** — ``sample_one`` on the arithmetic oracle is
  seed-for-seed identical to ``sample_uniform_neighbors`` on the CSR
  graph (and the CSR adapter delegates, so it is bit-for-bit);
* **engine parity** — every flat-frontier batch engine produces
  identical trial arrays on the oracle and on its CSR twin.

The Kronecker oracle additionally gets a dense ``np.kron`` ground
truth, since its CSR twin is itself derived from the oracle.
"""

import numpy as np
import pytest

import repro.graphs as graphs_mod
from repro.graphs import (
    IMPLICIT_TOPOLOGIES,
    CirculantOracle,
    CSRNeighborOracle,
    HypercubeOracle,
    KroneckerOracle,
    NeighborOracle,
    TorusOracle,
    as_oracle,
    cycle_graph,
    kronecker,
    sample_uniform_neighbors,
    to_csr,
    torus,
)
from repro.sim import (
    batched_branching_cover_trials,
    batched_coalescing_cover_trials,
    batched_cobra_trials,
    batched_gossip_trials,
    batched_lazy_trials,
    batched_parallel_walks_cover_trials,
    batched_walt_trials,
)
from repro.sim.rng import resolve_rng

TOPOLOGIES = sorted(IMPLICIT_TOPOLOGIES)


def build_registered(name):
    builder_name, params = IMPLICIT_TOPOLOGIES[name]
    return getattr(graphs_mod, builder_name)(**params)


@pytest.fixture(params=TOPOLOGIES)
def oracle_and_csr(request):
    oracle = build_registered(request.param)
    return oracle, to_csr(oracle)


class TestRegistry:
    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_builds_an_oracle_of_matching_kind(self, name):
        oracle = build_registered(name)
        assert isinstance(oracle, NeighborOracle)
        assert oracle.kind == name
        assert len(oracle) == oracle.n
        assert 1 <= oracle.min_degree <= oracle.max_degree < oracle.n

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_builder_is_exported_from_repro_graphs(self, name):
        builder_name, _ = IMPLICIT_TOPOLOGIES[name]
        assert callable(getattr(graphs_mod, builder_name))


class TestProtocolConformance:
    """degree/neighbor_at/all_neighbors vs the validated CSR twin."""

    def test_degrees_match_csr(self, oracle_and_csr):
        oracle, csr = oracle_and_csr
        verts = np.arange(oracle.n, dtype=np.int64)
        deg = oracle.degree(verts)
        assert deg.dtype == np.int64
        assert np.array_equal(deg, csr.degrees)
        assert deg.min() == oracle.min_degree
        assert deg.max() == oracle.max_degree

    def test_neighbor_at_enumerates_sorted_csr_rows(self, oracle_and_csr):
        oracle, csr = oracle_and_csr
        for v in range(oracle.n):
            d = int(csr.degree(v))
            slots = np.arange(d, dtype=np.int64)
            row = oracle.neighbor_at(np.full(d, v, dtype=np.int64), slots)
            assert np.array_equal(row, csr.neighbors(v))
            assert np.all(np.diff(row) > 0), "slots must enumerate ascending"

    def test_all_neighbors_is_the_concatenated_csr(self, oracle_and_csr):
        oracle, csr = oracle_and_csr
        verts = np.arange(oracle.n, dtype=np.int64)
        flat, deg = oracle.all_neighbors(verts)
        assert np.array_equal(deg, csr.degrees)
        assert np.array_equal(flat, csr.indices)

    def test_neighbor_at_broadcasts(self, oracle_and_csr):
        oracle, csr = oracle_and_csr
        # scalar-slot broadcast over a frontier: slot 0 of every vertex
        verts = np.arange(oracle.n, dtype=np.int64)
        first = oracle.neighbor_at(verts, np.zeros(1, dtype=np.int64))
        expected = csr.indices[csr.indptr[:-1]]
        assert np.array_equal(first, expected)

    def test_to_csr_round_trips_name_and_meta(self, oracle_and_csr):
        oracle, csr = oracle_and_csr
        assert csr.name == oracle.name
        assert csr.meta == oracle.meta
        assert csr.n == oracle.n


class TestSamplingParity:
    """The acceptance criterion: seed-for-seed identical draws."""

    def test_sample_one_matches_csr_sampler(self, oracle_and_csr):
        oracle, csr = oracle_and_csr
        verts = np.tile(np.arange(oracle.n, dtype=np.int64), 3)
        got = oracle.sample_one(verts, resolve_rng(123))
        want = sample_uniform_neighbors(csr, verts, resolve_rng(123))
        assert np.array_equal(got, want)

    def test_adapter_delegates_bit_for_bit(self, oracle_and_csr):
        _, csr = oracle_and_csr
        adapter = CSRNeighborOracle(csr)
        verts = np.arange(csr.n, dtype=np.int64)
        got = adapter.sample_one(verts, resolve_rng(5))
        want = sample_uniform_neighbors(csr, verts, resolve_rng(5))
        assert np.array_equal(got, want)

    def test_sample_one_out_buffer(self, oracle_and_csr):
        oracle, _ = oracle_and_csr
        verts = np.arange(oracle.n, dtype=np.int64)
        out = np.empty(oracle.n, dtype=np.int64)
        res = oracle.sample_one(verts, resolve_rng(9), out=out)
        assert np.shares_memory(res, out)
        assert np.array_equal(out, oracle.sample_one(verts, resolve_rng(9)))

    def test_sample_neighbors_shape_and_membership(self, oracle_and_csr):
        oracle, csr = oracle_and_csr
        verts = np.arange(oracle.n, dtype=np.int64)
        draws = oracle.sample_neighbors(verts, 4, resolve_rng(77))
        assert draws.shape == (4, oracle.n)
        for k in range(4):
            for v in range(oracle.n):
                assert csr.has_edge(v, int(draws[k, v]))


# Each case runs one batch engine identically on the oracle and on its
# materialised CSR twin; trial arrays must match exactly (NaN == NaN).
ENGINE_CASES = [
    ("cobra_cover", lambda g, csr, t: batched_cobra_trials(
        g, trials=3, seed=11, max_steps=3000)),
    ("cobra_hit", lambda g, csr, t: batched_cobra_trials(
        g, t, trials=3, seed=11, max_steps=3000)),
    ("walt_cover", lambda g, csr, t: batched_walt_trials(
        g, trials=3, seed=11, max_steps=3000)),
    ("walt_hit", lambda g, csr, t: batched_walt_trials(
        g, t, trials=3, seed=11, max_steps=3000)),
    ("gossip", lambda g, csr, t: batched_gossip_trials(
        g, trials=3, seed=11, max_steps=3000)),
    ("parallel", lambda g, csr, t: batched_parallel_walks_cover_trials(
        g, trials=3, walkers=3, seed=11, max_steps=3000)),
    ("lazy_cover", lambda g, csr, t: batched_lazy_trials(
        g, trials=3, seed=11, max_steps=3000)),
    ("lazy_hit", lambda g, csr, t: batched_lazy_trials(
        g, t, trials=3, seed=11, max_steps=3000)),
    ("branching", lambda g, csr, t: batched_branching_cover_trials(
        g, trials=3, seed=11, max_steps=3000)),
    ("coalescing", lambda g, csr, t: batched_coalescing_cover_trials(
        g, trials=3, seed=11, max_steps=3000)),
]


class TestEnginePerTopologyParity:
    @pytest.mark.parametrize("name", TOPOLOGIES)
    @pytest.mark.parametrize("label,run", ENGINE_CASES, ids=[c[0] for c in ENGINE_CASES])
    def test_oracle_matches_csr_twin(self, name, label, run):
        oracle = build_registered(name)
        csr = to_csr(oracle)
        target = oracle.n - 1
        got = run(oracle, csr, target)
        want = run(csr, csr, target)
        assert np.array_equal(got, want, equal_nan=True), (
            f"{label} diverged on {name}: {got} vs {want}"
        )


class TestTorusOracle:
    def test_matches_the_csr_torus_builder(self):
        # same extent convention: TorusOracle(4, d=2) is torus(4, 2),
        # both a 5x5 periodic lattice
        oracle = TorusOracle(4, d=2)
        csr = torus(4, 2)
        ours = to_csr(oracle)
        assert ours.n == csr.n
        assert np.array_equal(ours.indptr, csr.indptr)
        assert np.array_equal(ours.indices, csr.indices)

    def test_one_dimensional_is_a_cycle(self):
        oracle = TorusOracle(6, d=1)
        csr, cyc = to_csr(oracle), cycle_graph(7)
        assert np.array_equal(csr.indices, cyc.indices)

    def test_rejects_tiny_side(self):
        with pytest.raises(ValueError, match="side length >= 3"):
            TorusOracle(1)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            TorusOracle(4, d=0)


class TestHypercubeOracle:
    def test_neighbors_are_bit_flips(self):
        oracle = HypercubeOracle(5)
        v = 0b10110
        nbrs = oracle.neighbor_at(
            np.full(5, v, dtype=np.int64), np.arange(5, dtype=np.int64)
        )
        assert sorted(int(x) for x in nbrs) == sorted(v ^ (1 << b) for b in range(5))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            HypercubeOracle(0)


class TestCirculantOracle:
    def test_rejects_zero_offset(self):
        with pytest.raises(ValueError, match="self-loops"):
            CirculantOracle(9, (3, 9))

    def test_rejects_involution_offset(self):
        with pytest.raises(ValueError, match="involution"):
            CirculantOracle(10, (1, 5))

    def test_rejects_colliding_offsets(self):
        with pytest.raises(ValueError, match="collide"):
            CirculantOracle(11, (3, 8))  # 8 == -3 mod 11

    def test_rejects_tiny_ring_and_empty_offsets(self):
        with pytest.raises(ValueError, match="n >= 3"):
            CirculantOracle(2, (1,))
        with pytest.raises(ValueError, match="at least one offset"):
            CirculantOracle(9, ())


BASE_3x3 = (0, 1, 1, 1, 0, 1, 1, 1, 0)


class TestKroneckerOracle:
    def test_dense_kron_power_is_the_ground_truth(self):
        # independent of the oracle's own arithmetic: the adjacency of
        # kron[b^p] is the p-fold np.kron power with the diagonal
        # (self-loops) removed
        base = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=np.int64)
        oracle = KroneckerOracle(tuple(base.ravel()), 2)
        dense = np.kron(base, base)
        np.fill_diagonal(dense, 0)
        csr = to_csr(oracle)
        got = np.zeros((oracle.n, oracle.n), dtype=np.int64)
        for v in range(oracle.n):
            got[v, csr.neighbors(v)] = 1
        assert np.array_equal(got, dense)

    def test_degree_bounds_are_exact(self):
        oracle = KroneckerOracle(BASE_3x3, 3)
        deg = oracle.degree(np.arange(oracle.n, dtype=np.int64))
        assert deg.min() == oracle.min_degree
        assert deg.max() == oracle.max_degree

    def test_kronecker_helper_materialises(self):
        g = kronecker(BASE_3x3, 2)
        assert g.n == 9 and g.name == "kron[3^2]"

    def test_rejects_non_square_base(self):
        with pytest.raises(ValueError, match="square matrix"):
            KroneckerOracle((0, 1, 1, 0, 1, 0), 2)

    def test_rejects_asymmetric_base(self):
        with pytest.raises(ValueError, match="symmetric"):
            KroneckerOracle((0, 1, 0, 0), 2)

    def test_rejects_isolating_base(self):
        # row 0 is only its own loop: every power isolates vertex 0...0
        with pytest.raises(ValueError, match="isolated vertices"):
            KroneckerOracle((1, 0, 0, 0, 0, 1, 0, 1, 0), 2)

    def test_loopy_base_degree_bounds(self):
        # loops everywhere: the all-max vertex loses its self pair
        oracle = KroneckerOracle((1, 1, 1, 1), 2)
        deg = oracle.degree(np.arange(oracle.n, dtype=np.int64))
        assert oracle.min_degree == deg.min() == 3
        assert oracle.max_degree == deg.max() == 3

    def test_rejects_bad_power_and_entries(self):
        with pytest.raises(ValueError, match="power must be >= 1"):
            KroneckerOracle(BASE_3x3, 0)
        with pytest.raises(ValueError, match="entries must be 0/1"):
            KroneckerOracle((0, 2, 2, 0), 2)


class TestAsOracleAndToCsr:
    def test_oracle_passes_through(self):
        oracle = HypercubeOracle(3)
        assert as_oracle(oracle) is oracle

    def test_graph_wraps_in_the_adapter(self):
        g = cycle_graph(8)
        wrapped = as_oracle(g)
        assert isinstance(wrapped, CSRNeighborOracle)
        assert wrapped.graph is g and wrapped.kind == "csr"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="expected a Graph or NeighborOracle"):
            as_oracle([[0, 1], [1, 0]])

    def test_to_csr_unwraps_the_adapter(self):
        g = cycle_graph(8)
        assert to_csr(CSRNeighborOracle(g)) is g

    def test_to_csr_refuses_huge_oracles(self):
        big = CirculantOracle(6_000_001, (1,))
        with pytest.raises(ValueError, match="refusing to materialise"):
            to_csr(big)
