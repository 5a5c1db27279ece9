"""cobra-walks: coalescing-branching random walks and their bounds.

Reproduction of Mitzenmacher, Rajaraman & Roche, *Better Bounds for
Coalescing-Branching Random Walks* (SPAA 2016).  See DESIGN.md for the
system inventory and EXPERIMENTS.md for the paper-vs-measured record.

The unified process API is the front door: every process family
(cobra, Walt, simple/lazy/parallel walks, branching, coalescing,
gossip push/pull, biased walks) is a registered
:class:`~repro.sim.processes.ProcessSpec`, driven by one pair of
entry points returning one result schema::

    from repro import grid, simulate, run_batch

    res = simulate(grid(64, 2), process="cobra", k=2, seed=0)
    print(res.cover_time)                      # RunResult

    batch = run_batch(grid(64, 2), "cobra", trials=32, seed=0)
    print(batch.mean, batch.ci95_half_width)   # TrialSummary

``run_batch`` picks the vectorized batched engine where one exists
(cover/spread: every cover-capable process; hit: cobra, simple, lazy,
walt, push, pull, push_pull), so sweeps advance all trials in one
``(trials, n)`` frontier instead of per-trial Python loops.

Subpackages
-----------
``repro.graphs``
    CSR graph substrate and generators.
``repro.core``
    The paper's processes and bounds (cobra, Walt, biased walks).
``repro.walks``
    Baselines: simple/parallel walks, gossip, coalescing, branching.
``repro.spectral``
    Conductance, spectral gaps, directed Cheeger machinery.
``repro.sim`` / ``repro.analysis``
    Process registry, simulate/run_batch facade, Monte-Carlo harness,
    and exponent-fit analysis.
``repro.store``
    Declarative sweep campaigns (``SweepSpec``) over a
    content-addressed result store: cached, resumable, queryable.
``repro.experiments``
    One registered experiment per paper claim, with a CLI.
"""

from ._version import __version__
from .core import (
    CobraRunResult,
    CobraWalk,
    WaltProcess,
    walt_cover_time,
)
from .graphs import Graph, grid, hypercube, lollipop, random_regular, torus
from .sim import (
    ProcessSpec,
    RunResult,
    TrialSummary,
    all_processes,
    get_process,
    process_names,
    register_process,
    run_batch,
    simulate,
)
from .store import Campaign, ResultStore, SweepSpec

__all__ = [
    "__version__",
    "ProcessSpec",
    "RunResult",
    "TrialSummary",
    "simulate",
    "run_batch",
    "register_process",
    "get_process",
    "all_processes",
    "process_names",
    "SweepSpec",
    "ResultStore",
    "Campaign",
    "CobraRunResult",
    "CobraWalk",
    "WaltProcess",
    "walt_cover_time",
    "Graph",
    "grid",
    "hypercube",
    "lollipop",
    "random_regular",
    "torus",
]
