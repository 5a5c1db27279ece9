"""Built-in :class:`~repro.sim.processes.ProcessSpec` registrations.

One entry per process family the paper discusses.  Imported lazily by
the registry (never at ``repro.sim`` import time) because the
factories live in :mod:`repro.core` and :mod:`repro.walks`, which
themselves import :mod:`repro.sim`.

Each factory only builds a process class; the classes define
``step()`` and no run loop of their own.  :func:`repro.sim.simulate`
is the one serial loop that steps them to a stop, and the serial rows
of ``tests/golden/streams.json`` pin what it returns seed for seed.

Each ``batch`` hook is a public engine of :mod:`repro.sim.batch` or
:mod:`repro.walks.simple` itself (the gossip one with ``push``/``pull``
bound by :func:`functools.partial`); an engine that takes ``target``
runs both the cover/spread and the hit rule.  Each engine takes
``start`` the way ``run_batch`` passes it and checks it itself, the
single-start ones with ``_scalar_start``, the helper their factories
here call too.  Each ``default_budget`` calls the
private budget function of the process's own module, the one its
engine and its serial helpers fall back to when given no
``max_steps``.
"""

from __future__ import annotations

from functools import partial

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
    _scalar_start,
    batched_branching_cover_trials,
    batched_coalescing_cover_trials,
    batched_cobra_trials,
    batched_gossip_trials,
    batched_lazy_trials,
    batched_parallel_walks_cover_trials,
    batched_walt_trials,
)
from .processes import ProcessSpec, register_process
from .rng import resolve_rng

__all__: list[str] = []


# ----------------------------------------------------------------------
# factories (signature: graph, *, start, seed, target, **params)
# ----------------------------------------------------------------------
def _make_cobra(graph, *, start=0, seed=None, target=None, k=2, record_history=False):
    return _cobra_mod.CobraWalk(
        graph, k=k, start=start, seed=seed, record_history=record_history
    )


def _make_random_walk(graph, *, lazy, start=0, seed=None, target=None):
    return _simple_mod.RandomWalk(graph, start=_scalar_start(graph, start), lazy=lazy, seed=seed)


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
        start=_scalar_start(graph, start),
        seed=seed,
        population_cap=population_cap,
    )


def _make_coalescing(graph, *, start=None, seed=None, target=None, walkers=None):
    """Walkers spread per the classical setting; an *array* ``start``
    places them explicitly (see ``_walker_positions``)."""
    rng = resolve_rng(seed)
    positions = _coalescing_mod._walker_positions(start)
    if positions is None:
        positions = _coalescing_mod.coalescing_start_positions(graph, walkers, rng)
    return _coalescing_mod.CoalescingWalks(graph, positions, seed=rng)


def _make_gossip(graph, *, push, pull, start=0, seed=None, target=None):
    return _gossip_mod.GossipSpread(
        graph, start=_scalar_start(graph, start), push=push, pull=pull, seed=seed
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
        start=_scalar_start(graph, start),
        eps=eps,
        controller=controller,
        seed=seed,
    )


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
        batch=batched_cobra_trials,
        description="k-cobra walk (§2): branch to k uniform neighbors, coalesce on meeting",
    )
)

register_process(
    ProcessSpec(
        name="simple",
        factory=partial(_make_random_walk, lazy=False),
        capabilities=frozenset({"cover", "hit"}),
        default_metric="cover",
        default_budget=lambda g, p: _simple_mod._cover_budget(g.n),
        batch=_simple_mod.rw_trials,
        description="simple random walk (Feige's classical cover-time baseline)",
    )
)

register_process(
    ProcessSpec(
        name="lazy",
        factory=partial(_make_random_walk, lazy=True),
        capabilities=frozenset({"cover", "hit"}),
        default_metric="cover",
        default_budget=lambda g, p: _simple_mod._cover_budget(g.n),
        batch=batched_lazy_trials,
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
        default_budget=lambda g, p: _walt_mod._budget(g.n),
        batch=batched_walt_trials,
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
        batch=batched_parallel_walks_cover_trials,
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
        default_budget=lambda g, p: _branching_mod._budget(g.n),
        batch=batched_branching_cover_trials,
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
        default_budget=lambda g, p: _coalescing_mod._budget(g.n),
        batch=batched_coalescing_cover_trials,
        description="coalescing random walks (voter-model dual): walkers merge on meeting",
    )
)

for name, push, pull, description in (
    ("push", True, False, "push gossip: every informed vertex tells one uniform neighbor"),
    ("pull", False, True, "pull gossip: every uninformed vertex polls one uniform neighbor"),
    ("push_pull", True, True, "combined push-pull gossip"),
):
    register_process(
        ProcessSpec(
            name=name,
            factory=partial(_make_gossip, push=push, pull=pull),
            capabilities=frozenset({"spread", "hit"}),
            default_metric="spread",
            default_budget=lambda g, p: _gossip_mod._budget(g.n),
            batch=partial(batched_gossip_trials, push=push, pull=pull),
            description=description,
        )
    )

register_process(
    ProcessSpec(
        name="biased",
        factory=_make_biased,
        capabilities=frozenset({"hit"}),
        default_metric="hit",
        default_params={"eps": None},
        default_budget=lambda g, p: _biased_mod._budget(g.n),
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
