"""Built-in :class:`~repro.sim.processes.ProcessSpec` registrations.

One entry per process family the paper discusses.  Imported lazily by
the registry (never at ``repro.sim`` import time) because the
factories live in :mod:`repro.core` and :mod:`repro.walks`, which
themselves import :mod:`repro.sim`.

Every factory builds the process class exactly as its own runners do,
so ``simulate(graph, process=p, seed=s)`` reproduces
``CobraWalk(...).run_until_cover`` / ``walt_cover_time`` / … seed for
seed — the parity suite in ``tests/sim/test_facade.py`` pins this.
"""

from __future__ import annotations

import numpy as np

from ..core import biased as _biased_mod
from ..core import cobra as _cobra_mod
from ..core import walt as _walt_mod
from ..walks import branching as _branching_mod
from ..walks import coalescing as _coalescing_mod
from ..walks import gossip as _gossip_mod
from ..walks import minima as _minima_mod
from ..walks import parallel as _parallel_mod
from ..walks import simple as _simple_mod
from .batch import (
    batched_biased_cover_trials,
    batched_branching_cover_trials,
    batched_coalescing_cover_trials,
    batched_cobra_cover_trials,
    batched_cobra_hit_trials,
    batched_gossip_hit_trials,
    batched_gossip_spread_trials,
    batched_lazy_cover_trials,
    batched_lazy_hit_trials,
    batched_parallel_walks_cover_trials,
    batched_walt_cover_trials,
    batched_walt_hit_trials,
)
from .processes import ProcessSpec, register_process
from .rng import resolve_rng

__all__: list[str] = []


def _scalar_start(start) -> int:
    """Collapse facade-style ``start`` to the single vertex single-pebble
    processes require."""
    arr = np.atleast_1d(np.asarray(start, dtype=np.int64))
    if arr.size != 1:
        raise ValueError("this process takes a single start vertex")
    return int(arr[0])


# ----------------------------------------------------------------------
# factories (signature: graph, *, start, seed, target, **params)
# ----------------------------------------------------------------------
def _make_cobra(graph, *, start=0, seed=None, target=None, k=2, record_history=False):
    return _cobra_mod.CobraWalk(
        graph, k=k, start=start, seed=seed, record_history=record_history
    )


def _make_simple(graph, *, start=0, seed=None, target=None):
    return _simple_mod.RandomWalk(graph, start=_scalar_start(start), lazy=False, seed=seed)


def _make_lazy(graph, *, start=0, seed=None, target=None):
    return _simple_mod.RandomWalk(graph, start=_scalar_start(start), lazy=True, seed=seed)


def _make_walt(graph, *, start=0, seed=None, target=None, delta=0.5, lazy=True):
    rng = resolve_rng(seed)
    positions = _walt_mod.walt_start_positions(graph, delta, start, rng)
    return _walt_mod.WaltProcess(graph, positions, lazy=lazy, seed=rng)


def _make_parallel(graph, *, start=0, seed=None, target=None, walkers=2):
    return _parallel_mod.ParallelWalks(graph, walkers=walkers, start=start, seed=seed)


def _make_branching(
    graph, *, start=0, seed=None, target=None, k=2, population_cap=1_000_000
):
    return _branching_mod.BranchingWalk(
        graph,
        k=k,
        start=_scalar_start(start),
        seed=seed,
        population_cap=population_cap,
    )


def _make_coalescing(graph, *, start=None, seed=None, target=None, walkers=None):
    """Walkers spread per the classical setting; an *array* ``start``
    places them explicitly.  A scalar start would silently mean a
    single trivially-coalesced walker, so only the facade's default
    ``0`` is tolerated (and ignored: the default walker placement);
    any other scalar raises."""
    rng = resolve_rng(seed)
    if start is not None and np.ndim(start) > 0:
        positions = np.asarray(start, dtype=np.int64)
    else:
        if start not in (None, 0):
            raise ValueError(
                "the coalescing process takes an array of walker positions "
                "as start (or the walkers= count); a scalar start has no "
                "meaning for a multi-walker coalescing system"
            )
        positions = _coalescing_mod.coalescing_start_positions(graph, walkers, rng)
    return _coalescing_mod.CoalescingWalks(graph, positions, seed=rng)


def _make_push(graph, *, start=0, seed=None, target=None):
    return _gossip_mod.GossipSpread(
        graph, start=_scalar_start(start), push=True, pull=False, seed=seed
    )


def _make_pull(graph, *, start=0, seed=None, target=None):
    return _gossip_mod.GossipSpread(
        graph, start=_scalar_start(start), push=False, pull=True, seed=seed
    )


def _make_push_pull(graph, *, start=0, seed=None, target=None):
    return _gossip_mod.GossipSpread(
        graph, start=_scalar_start(start), push=True, pull=True, seed=seed
    )


def _make_branching_minima(
    graph, *, start=None, seed=None, target=None, k=2, generations=32,
    count_cap=10**12,
):
    """``generations`` is consumed by the facade as the step budget
    (``default_budget``); the walk itself is horizon-free.  The
    facade's default ``start=0`` (the reflecting left end of the line
    — never what a minima sweep wants) maps to the line's midpoint,
    mirroring how the coalescing factory treats the facade default;
    any other scalar is an explicit line coordinate."""
    if start is not None and np.ndim(start) > 0:
        raise ValueError("branching_minima takes a single start coordinate")
    if start in (None, 0):
        start = graph.n // 2
    return _minima_mod.BranchingMinimaWalk(
        graph, k=k, start=int(start), seed=seed, count_cap=count_cap
    )


def _make_biased(graph, *, start=0, seed=None, target=None, eps=None, controller=None):
    if target is None:
        raise ValueError("the biased walk needs a target (its controller steers toward it)")
    return _biased_mod.BiasedWalk(
        graph,
        target,
        start=_scalar_start(start),
        eps=eps,
        controller=controller,
        seed=seed,
    )


def _simple_batch_cover(graph, *, trials, start=0, seed=None, max_steps=None):
    """Vectorized simple-walk cover engine (one row of state per trial)."""
    return _simple_mod.rw_cover_trials(
        graph, start=_scalar_start(start), trials=trials, seed=seed, max_steps=max_steps
    )


def _simple_batch_hit(graph, *, trials, target, start=0, seed=None, max_steps=None):
    """Vectorized simple-walk hitting engine (``rw_hitting_trials``)."""
    return _simple_mod.rw_hitting_trials(
        graph,
        target,
        start=_scalar_start(start),
        trials=trials,
        seed=seed,
        max_steps=max_steps,
    )


def _cobra_batch_hit(graph, *, trials, target, start=0, seed=None, max_steps=None, k=2):
    return batched_cobra_hit_trials(
        graph, target, trials=trials, k=k, start=start, seed=seed, max_steps=max_steps
    )


def _walt_batch_cover(
    graph, *, trials, start=0, seed=None, max_steps=None, delta=0.5, lazy=True
):
    return batched_walt_cover_trials(
        graph,
        trials=trials,
        delta=delta,
        lazy=lazy,
        start=start,
        seed=seed,
        max_steps=max_steps,
    )


def _walt_batch_hit(
    graph, *, trials, target, start=0, seed=None, max_steps=None, delta=0.5, lazy=True
):
    return batched_walt_hit_trials(
        graph,
        target,
        trials=trials,
        delta=delta,
        lazy=lazy,
        start=start,
        seed=seed,
        max_steps=max_steps,
    )


def _parallel_batch_cover(graph, *, trials, start=0, seed=None, max_steps=None, walkers=2):
    return batched_parallel_walks_cover_trials(
        graph,
        trials=trials,
        walkers=walkers,
        start=start,
        seed=seed,
        max_steps=max_steps,
    )


def _lazy_batch_cover(graph, *, trials, start=0, seed=None, max_steps=None):
    return batched_lazy_cover_trials(
        graph, trials=trials, start=_scalar_start(start), seed=seed, max_steps=max_steps
    )


def _lazy_batch_hit(graph, *, trials, target, start=0, seed=None, max_steps=None):
    return batched_lazy_hit_trials(
        graph,
        target,
        trials=trials,
        start=_scalar_start(start),
        seed=seed,
        max_steps=max_steps,
    )


def _biased_batch_cover(
    graph, *, trials, start=0, seed=None, max_steps=None, target=None,
    eps=None, controller=None,
):
    """``target`` arrives via the facade's target-forwarding (the
    signature-declared keyword); the biased walk is undefined without
    one, matching the factory's error."""
    if target is None:
        raise ValueError("the biased walk needs a target (its controller steers toward it)")
    return batched_biased_cover_trials(
        graph,
        target,
        trials=trials,
        start=_scalar_start(start),
        seed=seed,
        max_steps=max_steps,
        eps=eps,
        controller=controller,
    )


def _branching_batch_cover(
    graph, *, trials, start=0, seed=None, max_steps=None, k=2,
    population_cap=1_000_000,
):
    return batched_branching_cover_trials(
        graph,
        trials=trials,
        k=k,
        start=_scalar_start(start),
        seed=seed,
        max_steps=max_steps,
        population_cap=population_cap,
    )


def _coalescing_batch_cover(
    graph, *, trials, start=None, seed=None, max_steps=None, walkers=None
):
    return batched_coalescing_cover_trials(
        graph,
        trials=trials,
        walkers=walkers,
        start=start,
        seed=seed,
        max_steps=max_steps,
    )


def _gossip_batch_cover(push: bool, pull: bool):
    def engine(graph, *, trials, start=0, seed=None, max_steps=None):
        return batched_gossip_spread_trials(
            graph,
            trials=trials,
            start=_scalar_start(start),
            seed=seed,
            max_steps=max_steps,
            push=push,
            pull=pull,
        )

    return engine


def _gossip_batch_hit(push: bool, pull: bool):
    def engine(graph, *, trials, target, start=0, seed=None, max_steps=None):
        return batched_gossip_hit_trials(
            graph,
            target,
            trials=trials,
            start=_scalar_start(start),
            seed=seed,
            max_steps=max_steps,
            push=push,
            pull=pull,
        )

    return engine


# ----------------------------------------------------------------------
# registrations
# ----------------------------------------------------------------------
register_process(
    ProcessSpec(
        name="cobra",
        factory=_make_cobra,
        capabilities=frozenset({"cover", "hit", "multi_source"}),
        default_metric="cover",
        default_params={"k": 2},
        default_budget=lambda g, p: _cobra_mod._default_budget(g.n),
        batch_cover=batched_cobra_cover_trials,
        batch_hit=_cobra_batch_hit,
        description="k-cobra walk (§2): branch to k uniform neighbors, coalesce on meeting",
    )
)

register_process(
    ProcessSpec(
        name="simple",
        factory=_make_simple,
        capabilities=frozenset({"cover", "hit"}),
        default_metric="cover",
        default_budget=lambda g, p: _simple_mod._cover_budget(g.n),
        batch_cover=_simple_batch_cover,
        batch_hit=_simple_batch_hit,
        description="simple random walk (Feige's classical cover-time baseline)",
    )
)

register_process(
    ProcessSpec(
        name="lazy",
        factory=_make_lazy,
        capabilities=frozenset({"cover", "hit"}),
        default_metric="cover",
        default_budget=lambda g, p: _simple_mod._cover_budget(g.n),
        batch_cover=_lazy_batch_cover,
        batch_hit=_lazy_batch_hit,
        description="lazy random walk (holds with probability 1/2)",
    )
)

register_process(
    ProcessSpec(
        name="walt",
        factory=_make_walt,
        capabilities=frozenset({"cover", "hit", "multi_source"}),
        default_metric="cover",
        default_params={"delta": 0.5, "lazy": True},
        default_budget=lambda g, p: max(20_000, 1000 * g.n),
        batch_cover=_walt_batch_cover,
        batch_hit=_walt_batch_hit,
        description="Walt (§4): δn ordered pebbles, the cobra walk's analysis proxy",
    )
)

register_process(
    ProcessSpec(
        name="parallel",
        factory=_make_parallel,
        capabilities=frozenset({"cover", "hit", "multi_source"}),
        default_metric="cover",
        default_params={"walkers": 2},
        default_budget=lambda g, p: _parallel_mod._default_budget(
            g.n, int(p.get("walkers", 2))
        ),
        batch_cover=_parallel_batch_cover,
        description="k independent parallel random walks (Alon et al.)",
    )
)

register_process(
    ProcessSpec(
        name="branching",
        factory=_make_branching,
        capabilities=frozenset({"cover", "hit"}),
        default_metric="cover",
        default_params={"k": 2, "population_cap": 1_000_000},
        default_budget=lambda g, p: max(10_000, 50 * g.n),
        batch_cover=_branching_batch_cover,
        description="pure branching walk (no coalescence): population explodes",
    )
)

register_process(
    ProcessSpec(
        name="coalescing",
        factory=_make_coalescing,
        capabilities=frozenset({"coalesce", "cover", "multi_source"}),
        default_metric="coalesce",
        default_params={"walkers": None},
        default_budget=lambda g, p: max(100_000, 20 * g.n**2),
        batch_cover=_coalescing_batch_cover,
        description="coalescing random walks (voter-model dual): walkers merge on meeting",
    )
)

register_process(
    ProcessSpec(
        name="push",
        factory=_make_push,
        capabilities=frozenset({"spread", "hit"}),
        default_metric="spread",
        default_budget=lambda g, p: _gossip_mod._budget(g.n),
        batch_cover=_gossip_batch_cover(push=True, pull=False),
        batch_hit=_gossip_batch_hit(push=True, pull=False),
        description="push gossip: every informed vertex tells one uniform neighbor",
    )
)

register_process(
    ProcessSpec(
        name="pull",
        factory=_make_pull,
        capabilities=frozenset({"spread", "hit"}),
        default_metric="spread",
        default_budget=lambda g, p: _gossip_mod._budget(g.n),
        batch_cover=_gossip_batch_cover(push=False, pull=True),
        batch_hit=_gossip_batch_hit(push=False, pull=True),
        description="pull gossip: every uninformed vertex polls one uniform neighbor",
    )
)

register_process(
    ProcessSpec(
        name="push_pull",
        factory=_make_push_pull,
        capabilities=frozenset({"spread", "hit"}),
        default_metric="spread",
        default_budget=lambda g, p: _gossip_mod._budget(g.n),
        batch_cover=_gossip_batch_cover(push=True, pull=True),
        batch_hit=_gossip_batch_hit(push=True, pull=True),
        description="combined push-pull gossip",
    )
)

register_process(
    ProcessSpec(
        name="biased",
        factory=_make_biased,
        capabilities=frozenset({"hit", "cover"}),
        default_metric="hit",
        default_params={"eps": None},
        default_budget=lambda g, p: 10_000_000,
        batch_cover=_biased_batch_cover,
        description="ε-/inverse-degree-biased walk (§5.1, Azar et al.)",
    )
)

register_process(
    ProcessSpec(
        name="branching_minima",
        factory=_make_branching_minima,
        capabilities=frozenset({"min"}),
        default_metric="min",
        default_params={"k": 2, "generations": 32, "count_cap": 10**12},
        default_budget=lambda g, p: int(p.get("generations", 32)),
        description="branching walk on the ℤ-line: n'th-generation minimum position",
    )
)
