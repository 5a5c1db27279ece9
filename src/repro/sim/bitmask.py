"""Bit-packed per-(trial, vertex) visited masks for the cover engines.

The dense state the batched cover engines used to carry — one boolean
per (trial, vertex) — costs ``trials · n`` bytes, which at ``n = 10^6``
and 32 trials is 32 MB of pure bookkeeping.  A :class:`BitMask` packs
the same state to ``n / 8`` bytes per trial and keeps the hot
operations vectorized:

* membership tests gather single bytes (``data[pos] & bit``);
* scatter-sets over **sorted** flat ids group same-byte writes with
  one ``np.bitwise_or.reduceat`` (no slow ``ufunc.at``) — sorted flat
  ids make byte positions nondecreasing, which is exactly what the
  engines' frontier arrays already guarantee;
* per-trial cover counts stream through a 256-entry popcount table —
  but the engines never call it per step: they count freshly set bits
  incrementally (the streaming cover-counter) and use :meth:`counts`
  only for initialisation and audits.

Flat ids follow the engines' convention: trial ``r``'s copy of vertex
``v`` lives at ``r * n + v``.

Bit-packing pays an address computation (``flat -> byte, bit``) on
every access; below ~1 MB of state a plain boolean array is both
small and measurably faster (no divisions, direct fancy indexing).
:func:`visited_mask` picks the backend — :class:`DenseMask` under
:data:`DENSE_LIMIT` positions, :class:`BitMask` above — and the two
expose the same five operations, so the engines never branch on it.
:func:`sorted_unique` builds the sorted id sets they take.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["DENSE_LIMIT", "BitMask", "DenseMask", "popcount", "sorted_unique", "visited_mask"]

#: rows * n at or below this uses the dense boolean backend (1 MB of
#: state); the 10^6-vertex cells stay bit-packed
DENSE_LIMIT = 1 << 20

#: bit value of ``v & 7`` — LUT keeps the result uint8 without casts
_BIT = (np.uint8(1) << np.arange(8, dtype=np.uint8)).astype(np.uint8)

#: popcount of a byte
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def popcount(data: np.ndarray) -> int:
    """Total number of set bits in a ``uint8`` array."""
    return int(_POPCOUNT[data].sum())


class BitMask:
    """``rows`` independent bit-packed masks over ``n`` positions each.

    Attributes
    ----------
    rows : int
        Number of masks (one per live trial).
    n : int
        Positions per mask (the vertex count).
    nbytes_row : int
        Bytes per mask, ``ceil(n / 8)``.
    data : numpy.ndarray
        The flat ``uint8[rows * nbytes_row]`` backing store.
    """

    __slots__ = ("rows", "n", "nbytes_row", "data")

    def __init__(self, rows: int, n: int) -> None:
        if rows < 0 or n < 1:
            raise ValueError("BitMask needs rows >= 0 and n >= 1")
        self.rows = rows
        self.n = n
        self.nbytes_row = (n + 7) >> 3
        self.data = np.zeros(rows * self.nbytes_row, dtype=np.uint8)

    def _pos_bit(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Byte position and bit value of each flat id ``r * n + v``."""
        row = flat // self.n
        v = flat - row * self.n
        return row * self.nbytes_row + (v >> 3), _BIT[v & 7]

    def test_flat(self, flat: np.ndarray) -> np.ndarray:
        """Boolean membership per flat id (any order, repeats fine)."""
        pos, bit = self._pos_bit(flat)
        return (self.data[pos] & bit) != 0

    def set_sorted_flat(self, flat: np.ndarray) -> None:
        """Set bits for **sorted ascending** flat ids (repeats fine).

        Sorted flat ids make byte positions nondecreasing, so equal
        positions are contiguous runs: one ``reduceat`` OR per run
        replaces a read-modify-write race or a slow ``np.bitwise_or.at``.
        """
        if flat.size == 0:
            return
        pos, bit = self._pos_bit(flat)
        starts = np.concatenate(([0], np.flatnonzero(pos[1:] != pos[:-1]) + 1))
        self.data[pos[starts]] |= np.bitwise_or.reduceat(bit, starts)

    def set_unique_rows(self, flat: np.ndarray) -> None:
        """Set bits when every flat id lives in a **distinct row** (at
        most one id per trial — the single-walker engines): byte
        positions are then unique and a plain fancy-index OR is safe."""
        if flat.size == 0:
            return
        pos, bit = self._pos_bit(flat)
        self.data[pos] |= bit

    def test_and_set_sorted(self, flat: np.ndarray) -> np.ndarray:
        """Set bits for sorted **unique** flat ids, returning which
        were freshly clear — the cover engines' fused per-step
        operation (one address computation instead of a test pass
        followed by a set pass).  Unique ids make the pre-write byte
        gather correct per id even when ids share a byte."""
        if flat.size == 0:
            return np.empty(0, dtype=bool)
        pos, bit = self._pos_bit(flat)
        fresh = (self.data[pos] & bit) == 0
        starts = np.concatenate(([0], np.flatnonzero(pos[1:] != pos[:-1]) + 1))
        self.data[pos[starts]] |= np.bitwise_or.reduceat(bit, starts)
        return fresh

    def counts(self) -> np.ndarray:
        """Set-bit count per row (``int64[rows]``) via the popcount
        table — initialisation/audit use, not the per-step path."""
        return (
            _POPCOUNT[self.data].reshape(self.rows, self.nbytes_row).sum(axis=1)
        )

    def keep_rows(self, keep: np.ndarray) -> None:
        """Compact to the rows selected by boolean mask *keep* (the
        engines' finished-trial remap), preserving order."""
        kept = self.data.reshape(self.rows, self.nbytes_row)[keep]
        self.rows = kept.shape[0]
        self.data = np.ascontiguousarray(kept).reshape(-1)


class DenseMask:
    """The small-state backend: one plain ``bool`` per position.

    Same five operations as :class:`BitMask` over the same flat-id
    convention, backed by ``bool[rows * n]`` — 8x the memory, zero
    address arithmetic.  :func:`visited_mask` selects it whenever the
    whole mask fits in :data:`DENSE_LIMIT` bytes anyway, where the
    packing overhead is all cost and no benefit.
    """

    __slots__ = ("rows", "n", "data")

    def __init__(self, rows: int, n: int) -> None:
        if rows < 0 or n < 1:
            raise ValueError("DenseMask needs rows >= 0 and n >= 1")
        self.rows = rows
        self.n = n
        self.data = np.zeros(rows * n, dtype=bool)

    def test_flat(self, flat: np.ndarray) -> np.ndarray:
        """Boolean membership per flat id (any order, repeats fine)."""
        return self.data[flat]

    def set_sorted_flat(self, flat: np.ndarray) -> None:
        """Set positions (sortedness not required here, but the
        callers' contract stays the sorted one BitMask needs)."""
        self.data[flat] = True

    def set_unique_rows(self, flat: np.ndarray) -> None:
        """Set positions, one id per row (same write either way)."""
        self.data[flat] = True

    def test_and_set_sorted(self, flat: np.ndarray) -> np.ndarray:
        """Set sorted unique flat ids, returning which were fresh."""
        fresh = ~self.data[flat]
        self.data[flat] = True
        return fresh

    def counts(self) -> np.ndarray:
        """Set-position count per row (``int64[rows]``)."""
        return self.data.reshape(self.rows, self.n).sum(axis=1, dtype=np.int64)

    def keep_rows(self, keep: np.ndarray) -> None:
        """Compact to the rows selected by boolean mask *keep*."""
        kept = self.data.reshape(self.rows, self.n)[keep]
        self.rows = kept.shape[0]
        self.data = np.ascontiguousarray(kept).reshape(-1)


def visited_mask(rows: int, n: int) -> BitMask | DenseMask:
    """The engines' visited-state factory: dense below the limit.

    Backend choice never touches the RNG stream, so engine values are
    identical either way; only footprint and speed differ.

    Parameters
    ----------
    rows : int
        Number of per-trial masks.
    n : int
        Positions per mask (the vertex count).

    Returns
    -------
    BitMask or DenseMask
        :class:`DenseMask` when ``rows * n <= DENSE_LIMIT``,
        :class:`BitMask` (n/8 bytes per row) above.
    """
    if rows * n <= DENSE_LIMIT:
        return DenseMask(rows, n)
    return BitMask(rows, n)


def sorted_unique(
    keys: np.ndarray, *, return_index: bool = False, return_counts: bool = False
) -> Any:
    """``np.unique`` of a 1-D array, same outputs, by one sort and one
    neighbor compare (first indices from a stable sort): numpy 2's
    hash-based unique took 1.45 ms against 86 µs at 10^4 int64 keys and
    12 against 7 µs at 100 (2-CPU VM, numpy 2.4)."""
    if return_index:
        order = keys.argsort(kind="stable")
        ordered = keys[order]
    else:
        ordered = np.sort(keys)
    head = np.empty(ordered.size, dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    out = [ordered[head]]
    if return_index:
        out.append(order[head])
    if return_counts:
        ends = np.concatenate((np.flatnonzero(head), [ordered.size]))
        out.append(ends[1:] - ends[:-1])
    return out[0] if len(out) == 1 else tuple(out)
