"""The process registry: one declarative entry per stochastic process.

Mirrors :mod:`repro.experiments.registry` for the *processes* the paper
compares — cobra walks, Walt, simple/lazy/parallel random walks,
branching, coalescing, gossip push/pull, and biased walks.  Each
:class:`ProcessSpec` bundles a factory returning a
:class:`~repro.sim.engine.SteppingProcess` together with declared
capabilities (which metrics make sense) and the process's default step
budget, so the :mod:`repro.sim.facade` can drive any of them through
one ``simulate()`` / ``run_batch()`` entry point.

Adding a new process variant (the branching-walk literature keeps
producing them) is one :func:`register_process` call — no new module of
sweep glue.

Capabilities
------------
``cover``
    The process activates/visits vertices and can cover the graph;
    ``simulate(..., metric="cover")`` is meaningful.
``hit``
    First-activation of a single target vertex is meaningful.
``spread``
    Rumor-spreading flavor of coverage (the informed set only grows);
    drives the same stopping rule as ``cover``.
``coalesce``
    The process has a shrinking walker population and a coalescence
    time (``metric="coalesce"``).
``min``
    The process tracks a minimum position (branching-random-walk
    minima à la Addario-Berry–Reed); ``metric="min"`` runs a fixed
    horizon of generations and reports the final generation's minimum
    displacement.
``multi_source``
    The factory accepts an array of start vertices.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from types import MappingProxyType
from collections.abc import Callable, Mapping
from typing import Any

from ..graphs.base import Graph
from .engine import SteppingProcess

__all__ = [
    "ProcessSpec",
    "register_process",
    "get_process",
    "all_processes",
    "process_names",
]

#: the metric vocabulary understood by the facade
METRICS = ("cover", "hit", "spread", "coalesce", "min")

#: factory signature: ``factory(graph, *, start, seed, target, **params)``
ProcessFactory = Callable[..., SteppingProcess]

#: budget signature: ``default_budget(graph, params) -> int``
BudgetFn = Callable[[Graph, Mapping[str, Any]], int]

#: batched-cover signature:
#: ``batch_cover(graph, *, trials, start, seed, max_steps, **params) -> float64[trials]``
BatchCoverFn = Callable[..., Any]

#: batched-hit signature:
#: ``batch_hit(graph, *, trials, start, target, seed, max_steps, **params) -> float64[trials]``
BatchHitFn = Callable[..., Any]


@dataclass(frozen=True)
class ProcessSpec:
    """A registered stochastic process.

    Attributes
    ----------
    name : str
        Registry key (``"cobra"``, ``"walt"``, ``"push"``, …).
    factory : ProcessFactory
        Builds a fresh stepping process on a graph.  Keyword-only
        arguments ``start``, ``seed``, and ``target`` are always
        accepted (and ignored where meaningless); ``**params`` are the
        process's own knobs (``k``, ``delta``, ``walkers``, …).
    capabilities : frozenset of str
        Subset of :data:`METRICS` plus ``"multi_source"``.
    default_metric : str
        The metric ``simulate()`` uses when none is given.
    default_params : Mapping
        The factory's tunable defaults, for documentation/CLI listing.
    default_budget : BudgetFn
        The step budget ``simulate``/``run_batch`` use when the caller
        gives none.
    batch_cover : BatchCoverFn or None
        Optional vectorized engine advancing all cover/spread trials in
        one ``(trials, n)`` frontier; ``run_batch`` uses it when
        available.
    batch_hit : BatchHitFn or None
        Optional vectorized engine for ``metric="hit"`` sweeps: all
        trials race to first activation of the target in one flat
        frontier; ``run_batch`` uses it when available.
    description : str
        One-line positioning of the process in the paper.
    """

    name: str
    factory: ProcessFactory
    capabilities: frozenset[str]
    default_metric: str
    default_budget: BudgetFn
    default_params: Mapping[str, Any] = field(default_factory=dict)
    batch_cover: BatchCoverFn | None = None
    batch_hit: BatchHitFn | None = None
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "default_params", MappingProxyType(dict(self.default_params)))
        unknown = self.capabilities - set(METRICS) - {"multi_source"}
        if unknown:
            raise ValueError(f"unknown capabilities for {self.name!r}: {sorted(unknown)}")
        if self.default_metric not in self.capabilities:
            raise ValueError(
                f"default metric {self.default_metric!r} not in capabilities of {self.name!r}"
            )

    def supports(self, metric: str) -> bool:
        """Whether *metric* is declared for this process.

        Parameters
        ----------
        metric:
            One of :data:`METRICS` (or ``"multi_source"``).

        Returns
        -------
        bool
            ``True`` when the capability is declared.
        """
        return metric in self.capabilities

    def make(self, graph: Graph, **kwargs: Any) -> SteppingProcess:
        """Instantiate the process (thin sugar over ``factory``).

        Parameters
        ----------
        graph:
            The graph to run on.
        **kwargs:
            Forwarded to the factory (``start``, ``seed``, ``target``,
            and the process's own knobs).

        Returns
        -------
        SteppingProcess
            A fresh stepping process.
        """
        return self.factory(graph, **kwargs)


_REGISTRY: dict[str, ProcessSpec] = {}
_LOADED = False
#: held while the built-ins register, so a second thread waits for the
#: full registry instead of reading a half-filled one
_LOAD_LOCK = threading.RLock()


def register_process(spec: ProcessSpec) -> ProcessSpec:
    """Register *spec*, rejecting duplicate names.

    Parameters
    ----------
    spec : ProcessSpec
        The spec to add under ``spec.name``.

    Returns
    -------
    ProcessSpec
        *spec* itself, for decorator-style use.
    """
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate process name {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get_process(name: str) -> ProcessSpec:
    """Look up a process, raising with the known names on miss.

    Parameters
    ----------
    name : str
        Registry key, e.g. ``"cobra"``.

    Returns
    -------
    ProcessSpec
        The registered spec.
    """
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown process {name!r}; known: {known}") from None


def all_processes() -> list[ProcessSpec]:
    """All registered specs, sorted by name.

    Returns
    -------
    list of ProcessSpec
        One entry per registered process.
    """
    _load_builtins()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def process_names() -> list[str]:
    """Sorted registry keys.

    Returns
    -------
    list of str
        The registered process names, sorted.
    """
    _load_builtins()
    return sorted(_REGISTRY)


def _load_builtins() -> None:
    """Import the built-in registrations exactly once (lazily, because
    they import :mod:`repro.core` / :mod:`repro.walks`, which in turn
    import :mod:`repro.sim` — the same deferred-import pattern as
    :func:`repro.experiments.registry._load_all`).

    Thread-safe: the flag is set only after the import has registered
    every built-in, under a lock, so concurrent first lookups (threaded
    drains each calling ``SweepSpec.expand()``) all see the full
    registry."""
    global _LOADED
    if _LOADED:
        return
    with _LOAD_LOCK:
        if not _LOADED:
            from . import builtin_processes  # noqa: F401

            _LOADED = True
