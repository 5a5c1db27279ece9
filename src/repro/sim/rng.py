"""Deterministic random-number-stream management.

Every stochastic entry point in :mod:`repro` accepts a ``seed`` argument
that may be ``None`` (fresh OS entropy), an integer, a
:class:`numpy.random.SeedSequence`, or an existing
:class:`numpy.random.Generator`.  :func:`resolve_rng` normalises all of
these to a ``Generator``.

For parallel Monte-Carlo work we never share a ``Generator`` between
trials; instead :func:`spawn_seeds` derives statistically independent
child :class:`~numpy.random.SeedSequence` objects, which are cheap to
pickle across process boundaries (the mpi4py-style idiom: ship small
descriptors, not live state).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Union

import numpy as np

__all__ = [
    "SeedLike",
    "resolve_rng",
    "resolve_seed_sequence",
    "spawn_seeds",
    "spawn_rngs",
]

#: Anything accepted by the ``seed=`` parameter of repro's stochastic APIs.
SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence, np.random.Generator]


def resolve_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Passing an existing ``Generator`` returns it unchanged (no copy), so
    sequential calls sharing one generator consume a single stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def resolve_seed_sequence(seed: SeedLike = None) -> np.random.SeedSequence:
    """Return a :class:`~numpy.random.SeedSequence` for *seed*.

    Raises :class:`TypeError` for live ``Generator`` inputs: a generator
    cannot be turned back into a reproducible seed.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "cannot derive a SeedSequence from a live Generator; "
            "pass an int or SeedSequence instead"
        )
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def spawn_seeds(seed: SeedLike, n: int) -> list[np.random.SeedSequence]:
    """Derive *n* independent child seed sequences from *seed*.

    The children are suitable for distributing to worker processes; each
    yields a stream independent of its siblings and of the parent.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return resolve_seed_sequence(seed).spawn(n)


def spawn_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive *n* independent generators from *seed* (see :func:`spawn_seeds`)."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, n)]
