"""Property-based tests (hypothesis) for the batched engines' two
substrates.

The batched engines lean on two data-structure contracts, plus the
sorted-set helper that feeds the first:

* :class:`repro.sim.bitmask.BitMask` — the five mask operations must
  agree with a dense ``bool`` array bit-for-bit, including duplicate
  scatters, shared-byte ids and empty frontiers;
* implicit-oracle ``neighbor_at`` — slot ``s`` of vertex ``v`` must be
  ``indices[indptr[v] + s]`` of the materialised CSR twin, so an
  oracle and its CSR graph make the same neighbour draw;
* :func:`repro.sim.bitmask.sorted_unique` — equal to ``np.unique`` in
  values, dtypes, first indices and counts.

Random shapes, degrees and id patterns come from hypothesis; every
case is checked against the obvious dense reference implementation.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    circulant_oracle,
    hypercube_oracle,
    kronecker_oracle,
    torus_oracle,
)
from repro.graphs.implicit import to_csr
from repro.sim.bitmask import BitMask, DenseMask, sorted_unique


@st.composite
def mask_shapes(draw, max_rows=6, max_n=70):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    n = draw(st.integers(min_value=1, max_value=max_n))
    return rows, n


@st.composite
def flat_ids(draw, rows, n, *, unique=False, max_size=200):
    """Flat ids ``r * n + v``, sorted ascending (the engines' frontier
    contract), optionally unique, possibly empty."""
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=rows * n - 1),
            min_size=0,
            max_size=max_size,
            unique=unique,
        )
    )
    return np.sort(np.asarray(ids, dtype=np.int64))


class TestBitMaskAgainstDenseReference:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_test_and_set_sorted_matches_dense_bool(self, data):
        rows, n = data.draw(mask_shapes())
        mask = BitMask(rows, n)
        ref = np.zeros(rows * n, dtype=bool)
        # several rounds against the same state: freshness depends on
        # everything set before, which is where fused test+set can rot
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            flat = data.draw(flat_ids(rows, n, unique=True))
            fresh = mask.test_and_set_sorted(flat)
            expect = ~ref[flat]
            ref[flat] = True
            assert fresh.dtype == bool and fresh.shape == flat.shape
            assert np.array_equal(fresh, expect)
            assert np.array_equal(mask.test_flat(np.arange(rows * n)), ref)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_set_sorted_flat_handles_duplicate_scatters(self, data):
        rows, n = data.draw(mask_shapes())
        mask = BitMask(rows, n)
        ref = np.zeros(rows * n, dtype=bool)
        flat = data.draw(flat_ids(rows, n, unique=False))
        mask.set_sorted_flat(flat)
        ref[flat] = True
        assert np.array_equal(mask.test_flat(np.arange(rows * n)), ref)
        assert int(mask.counts().sum()) == int(ref.sum())

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_and_keep_rows_match_dense(self, data):
        rows, n = data.draw(mask_shapes())
        mask = BitMask(rows, n)
        dense = DenseMask(rows, n)
        flat = data.draw(flat_ids(rows, n, unique=False))
        mask.set_sorted_flat(flat)
        dense.set_sorted_flat(flat)
        assert np.array_equal(mask.counts(), dense.counts())
        keep = np.asarray(
            data.draw(
                st.lists(st.booleans(), min_size=rows, max_size=rows)
            ),
            dtype=bool,
        )
        mask.keep_rows(keep)
        dense.keep_rows(keep)
        assert mask.rows == dense.rows == int(keep.sum())
        if mask.rows:
            alive = np.arange(mask.rows * n)
            assert np.array_equal(mask.test_flat(alive), dense.test_flat(alive))

    def test_empty_frontier_is_a_no_op(self):
        mask = BitMask(3, 17)
        empty = np.empty(0, dtype=np.int64)
        mask.set_sorted_flat(empty)
        mask.set_unique_rows(empty)
        assert mask.test_and_set_sorted(empty).shape == (0,)
        assert mask.test_flat(empty).shape == (0,)
        assert int(mask.counts().sum()) == 0


@st.composite
def oracles(draw):
    """A random implicit oracle spanning all four arithmetic families
    (constant-degree tables and the ragged Kronecker one)."""
    kind = draw(st.sampled_from(["torus", "hypercube", "circulant", "kronecker"]))
    if kind == "torus":
        return torus_oracle(
            draw(st.integers(min_value=3, max_value=9)),
            draw(st.integers(min_value=1, max_value=3)),
        )
    if kind == "hypercube":
        return hypercube_oracle(draw(st.integers(min_value=1, max_value=7)))
    if kind == "circulant":
        n = draw(st.integers(min_value=5, max_value=40))
        offsets = draw(
            st.lists(
                st.integers(min_value=1, max_value=(n - 1) // 2),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        return circulant_oracle(n, sorted(offsets))
    # symmetric 2x2 seeds without isolated digit patterns
    base = draw(st.sampled_from([[1, 1, 1, 1], [0, 1, 1, 1], [1, 1, 1, 0]]))
    return kronecker_oracle(base, draw(st.integers(min_value=1, max_value=4)))


class TestOracleAgainstCSRTwin:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_neighbor_at_matches_materialised_csr(self, data):
        oracle = data.draw(oracles())
        csr = to_csr(oracle)
        verts = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=oracle.n - 1),
                    min_size=0,
                    max_size=64,
                )
            ),
            dtype=np.int64,
        )
        deg = oracle.degree(verts)
        assert np.array_equal(deg, csr.indptr[verts + 1] - csr.indptr[verts])
        nonzero = verts[deg > 0]
        if nonzero.size:
            d = oracle.degree(nonzero)
            # random valid slot per vertex, duplicates across verts fine
            u = np.asarray(
                data.draw(
                    st.lists(
                        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                        min_size=nonzero.size,
                        max_size=nonzero.size,
                    )
                )
            )
            slots = (u * d).astype(np.int64)
            got = oracle.neighbor_at(nonzero, slots)
            want = csr.indices[csr.indptr[nonzero] + slots]
            assert np.array_equal(got, want)
        # empty frontier round-trips with empty results
        empty = np.empty(0, dtype=np.int64)
        assert oracle.neighbor_at(empty, empty).shape == (0,)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_slot_of_every_vertex_agrees(self, data):
        """Exhaustive slot sweep on a small oracle: the CSR twin is the
        definition of the slot order, not merely a sample of it."""
        oracle = data.draw(oracles())
        if oracle.n > 40:
            return
        csr = to_csr(oracle)
        deg = oracle.degree(np.arange(oracle.n, dtype=np.int64))
        verts = np.repeat(np.arange(oracle.n, dtype=np.int64), deg)
        slots = np.concatenate(
            [np.arange(d, dtype=np.int64) for d in deg]
        ) if verts.size else np.empty(0, dtype=np.int64)
        assert np.array_equal(oracle.neighbor_at(verts, slots), csr.indices)


class TestSortedUnique:
    @given(
        keys=st.lists(st.integers(min_value=-50, max_value=50), max_size=300),
        return_index=st.booleans(),
        return_counts=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_np_unique(self, keys, return_index, return_counts):
        arr = np.asarray(keys, dtype=np.int64)
        flags = {"return_index": return_index, "return_counts": return_counts}
        got, want = sorted_unique(arr, **flags), np.unique(arr, **flags)
        if not isinstance(want, tuple):
            got, want = (got,), (want,)
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
