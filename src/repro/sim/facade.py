"""One front door for every registered process: ``simulate`` and
``run_batch``::

    from repro import simulate, run_batch

    res = simulate(grid(32, 2), process="cobra", k=2, seed=0)
    print(res.cover_time)

    summary = run_batch(grid(32, 2), "cobra", trials=32, seed=0)
    print(summary.mean, summary.ci95_half_width)

``simulate`` drives any :class:`~repro.sim.processes.ProcessSpec` to a
single :class:`RunResult`.  It is the one loop that steps a serial
process to a stop: the process classes only define ``step()``, and the
serial rows of ``tests/golden/streams.json`` pin what it returns.
``run_batch`` runs the process's vectorized batched engine when it
runs the metric (cover/spread: every process that declares one; hit:
cobra, simple, lazy, walt, push, pull, push_pull — the engines that
take ``target``), or else a serial loop that gives trial ``i`` the
``i``-th spawned seed, always returning one
:class:`~repro.sim.montecarlo.TrialSummary`.
Parallelism lives one level up, across cells (``Campaign(workers=N)``;
see ``docs/architecture.md``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from ..graphs.base import Graph
from ..graphs.implicit import NeighborOracle
from ..obs.trace import current_tracer
from .montecarlo import TrialSummary, summarize_trials
from .processes import CoverageLedger, ProcessSpec, get_process
from .rng import SeedLike, spawn_seeds

__all__ = [
    "RunResult",
    "simulate",
    "run_batch",
    "select_execution_path",
]

@dataclass
class RunResult:
    """The one result schema every process run maps onto.

    Attributes
    ----------
    process : str
        Registry name of the process that ran.
    metric : str
        The metric that was driven.
    covered : bool
        Whether full coverage was reached within the budget (always
        ``False`` for metrics that don't track coverage).
    steps : int
        Steps/rounds executed.
    cover_time : int or None
        Step at which the last vertex was first activated, or ``None``.
    first_activation : numpy.ndarray or None
        ``int64[n]`` first-activation step per vertex (``-1`` = never),
        or ``None`` for processes that don't track visitation.
    extras : dict
        Process/metric-specific scalars (``hit_time``,
        ``coalescence_time``, ``population``, ``hit_cap``,
        ``walkers_left``, …).
    """

    process: str
    metric: str
    covered: bool
    steps: int
    cover_time: int | None
    first_activation: np.ndarray | None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def value(self) -> float:
        """The metric's scalar outcome (``nan`` = budget exhausted);
        this is what :func:`run_batch` aggregates."""
        if self.metric in ("cover", "spread"):
            return float(self.cover_time) if self.cover_time is not None else float("nan")
        if self.metric == "hit":
            hit = self.extras.get("hit_time")
            return float(hit) if hit is not None else float("nan")
        if self.metric == "coalesce":
            ct = self.extras.get("coalescence_time")
            return float(ct) if ct is not None else float("nan")
        if self.metric == "min":
            mp = self.extras.get("min_position")
            return float(mp) if mp is not None else float("nan")
        raise ValueError(f"metric {self.metric!r} has no scalar value")

    def to_record(self) -> dict[str, Any]:
        """JSON-safe dict form of this result (the sweep-store schema).

        Numpy scalars collapse to Python numbers and the per-vertex
        ``first_activation`` array becomes a plain list (or ``None``),
        so ``json.dumps(res.to_record())`` round-trips; this is the
        serializer :mod:`repro.store` records ride on.

        Returns
        -------
        dict
            ``process``, ``metric``, ``covered``, ``steps``,
            ``cover_time``, ``value``, ``first_activation``, and the
            ``extras`` mapping with numpy scalars unwrapped.
        """

        def _plain(v: Any) -> Any:
            if isinstance(v, (np.bool_,)):
                return bool(v)
            if isinstance(v, np.integer):
                return int(v)
            if isinstance(v, np.floating):
                return float(v)
            if isinstance(v, np.ndarray):
                return v.tolist()
            return v

        return {
            "process": self.process,
            "metric": self.metric,
            "covered": bool(self.covered),
            "steps": int(self.steps),
            "cover_time": None if self.cover_time is None else int(self.cover_time),
            "value": float(self.value),
            "first_activation": (
                None
                if self.first_activation is None
                else self.first_activation.tolist()
            ),
            "extras": {k: _plain(v) for k, v in self.extras.items()},
        }


# ----------------------------------------------------------------------
# what a run stops on and what it reports
# ----------------------------------------------------------------------
def _collect_extras(proc) -> dict[str, Any]:
    extras: dict[str, Any] = {}
    for attr, cast in (
        ("population", int),
        ("hit_cap", bool),
        ("num_walkers", int),
        ("num_pebbles", int),
    ):
        value = getattr(proc, attr, None)
        if value is not None:
            extras[attr] = cast(value)
    return extras


#: per metric, whether a run has reached its stop (``min`` runs the
#: whole budget, a fixed horizon of generations)
_STOP: dict[str, Callable[[Any, int | None], bool]] = {
    "cover": lambda proc, target: proc.all_covered,
    "spread": lambda proc, target: proc.all_covered,
    "hit": lambda proc, target: proc.first_activation[target] >= 0,
    "coalesce": lambda proc, target: proc.num_walkers <= 1,
    "min": lambda proc, target: False,
}


def _metric_extras(proc, metric: str, target: int | None) -> dict[str, Any]:
    """The metric's own outcome scalars of a finished run."""
    if metric == "hit":
        hit = int(proc.first_activation[target])
        return {"hit_time": hit if hit >= 0 else None}
    if metric == "min":
        return {
            "min_position": int(proc.min_position),
            "max_position": int(proc.max_position),
        }
    if metric == "coalesce":
        coalesced = proc.num_walkers == 1
        return {
            "coalesced": coalesced,
            "walkers_left": int(proc.num_walkers),
            "coalescence_time": int(proc.t) if coalesced else None,
        }
    return {}


def _resolve_metric(spec: ProcessSpec, metric: str | None) -> str:
    metric = metric or spec.default_metric
    # spread is the gossip flavor of cover; accept either where declared
    if not spec.supports(metric) and not (
        metric == "cover" and spec.supports("spread")
    ):
        known = sorted(spec.capabilities - {"multi_source"})
        raise ValueError(
            f"process {spec.name!r} does not support metric {metric!r}; "
            f"declared: {known}"
        )
    return metric


def select_execution_path(
    spec: ProcessSpec,
    metric: str,
    *,
    strategy: str = "auto",
) -> str:
    """The execution path :func:`run_batch` takes for these arguments.

    This is the *single* strategy-selection rule: ``run_batch`` calls
    it to pick its path, and :mod:`repro.store.campaign` calls it to
    record truthful engine provenance — the two can't drift.

    Parameters
    ----------
    spec : ProcessSpec
        The resolved process spec.
    metric : str
        The resolved metric.
    strategy : str
        ``"auto"`` (default), ``"vectorized"``, or ``"serial"``.

    Returns
    -------
    str
        ``"vectorized"`` or ``"serial"``.
    """
    # "cover" on a spread process runs its spread rule
    rule = "spread" if metric == "cover" and spec.supports("spread") else metric
    batched = rule in spec.batch_metrics
    if strategy == "vectorized":
        if not batched:
            raise ValueError(
                f"process {spec.name!r} has no vectorized engine for metric {metric!r}"
            )
        return "vectorized"
    if strategy == "auto" and batched:
        return "vectorized"
    return "serial"


def _refuse_bound_params(spec: ProcessSpec, params: dict[str, Any]) -> None:
    """Raise ``TypeError`` for a param the spec binds with ``partial``.

    ``push`` fixes ``push=True, pull=False``; a caller's ``pull=True``
    would otherwise override the binding and quietly run another
    process under this one's name.
    """
    bound = {
        name
        for fn in (spec.factory, spec.batch)
        if isinstance(fn, partial)
        for name in fn.keywords
    }
    clash = sorted(bound.intersection(params))
    if clash:
        raise TypeError(
            f"process {spec.name!r} fixes {', '.join(clash)}; pick the "
            "process that has the values you want instead"
        )


# ----------------------------------------------------------------------
# the facade proper
# ----------------------------------------------------------------------
def simulate(
    graph: Graph,
    process: str | ProcessSpec = "cobra",
    *,
    metric: str | None = None,
    start: int | np.ndarray = 0,
    target: int | None = None,
    seed: SeedLike = None,
    max_steps: int | None = None,
    **params: Any,
) -> RunResult:
    """Run one trial of any registered process and normalise the
    outcome to a :class:`RunResult`.

    Parameters
    ----------
    graph : Graph
        The graph to run on.
    process : str or ProcessSpec
        Registry name (see :func:`repro.sim.processes.process_names`)
        or a :class:`ProcessSpec`.
    metric : str, optional
        ``"cover"``, ``"spread"``, ``"hit"``, ``"coalesce"``, or
        ``"min"`` (fixed-horizon branching-minima statistic); defaults
        to the spec's preferred metric.
    start : int or numpy.ndarray
        Start vertex (array for multi-source processes).
    target : int, optional
        Hit target, required for ``metric="hit"``.
    seed : SeedLike, optional
        RNG seed/stream.
    max_steps : int, optional
        Step budget; defaults to the process's registered budget.
    **params : Any
        Process-specific knobs (``k``, ``delta``, ``walkers``,
        ``eps``, …) forwarded to the factory.

    Returns
    -------
    RunResult
        The normalised outcome of the single run.
    """
    if not isinstance(graph, Graph):
        raise TypeError(
            "simulate() drives the serial stepping classes, which walk CSR "
            "edge arrays; materialise the oracle with "
            "repro.graphs.to_csr(...) or use run_batch(strategy='vectorized')"
        )
    spec = process if isinstance(process, ProcessSpec) else get_process(process)
    _refuse_bound_params(spec, params)
    metric = _resolve_metric(spec, metric)
    if metric == "hit":
        if target is None:
            raise ValueError("metric 'hit' needs a target vertex")
        if not (0 <= target < graph.n):
            raise ValueError("target out of range")
    if max_steps is None:
        max_steps = spec.default_budget(graph, params)
    proc = spec.factory(graph, start=start, seed=seed, target=target, **params)
    if metric in ("cover", "spread", "hit") and not isinstance(proc, CoverageLedger):
        raise TypeError(
            f"{type(proc).__name__} does not track coverage: a process "
            f"declaring {metric!r} must subclass repro.sim.CoverageLedger"
        )
    stop = _STOP[metric]
    while not stop(proc, target) and proc.t < max_steps:
        proc.step()
    fa = proc.first_activation if isinstance(proc, CoverageLedger) else None
    covered = fa is not None and proc.all_covered
    extras = _collect_extras(proc)
    extras.update(_metric_extras(proc, metric, target))
    return RunResult(
        process=spec.name,
        metric=metric,
        covered=covered,
        steps=int(proc.t),
        cover_time=int(fa.max()) if covered and metric in ("cover", "spread") else None,
        first_activation=None if fa is None else fa.copy(),
        extras=extras,
    )


def run_batch(
    graph: Graph | NeighborOracle,
    process: str | ProcessSpec = "cobra",
    *,
    trials: int = 32,
    metric: str | None = None,
    start: int | np.ndarray = 0,
    target: int | None = None,
    seed: SeedLike = None,
    max_steps: int | None = None,
    strategy: str = "auto",
    **params: Any,
) -> TrialSummary:
    """Run *trials* independent trials and summarise the outcomes.

    Strategy selection (``strategy="auto"``):

    * the process's vectorized batched engine ``spec.batch``, when it
      runs the metric (:attr:`~repro.sim.processes.ProcessSpec.batch_metrics`)
      — all trials advance in one ``(trials, n)`` frontier, no
      per-trial Python loops, and ``target`` is passed only for
      ``metric="hit"``;
    * otherwise a serial loop over spawned per-trial seeds: trial ``i``
      is ``simulate(..., seed=spawn_seeds(seed, trials)[i])``, so its
      value does not depend on how many trials run.

    ``strategy="vectorized"`` / ``"serial"`` force a path (vectorized
    raises for processes without a batched engine for the metric).

    Parameters
    ----------
    graph : Graph or NeighborOracle
        The graph to run on — a CSR :class:`Graph`, or an implicit
        :class:`~repro.graphs.implicit.NeighborOracle` (vectorized
        path only: the serial path steps CSR edge arrays).
    process : str or ProcessSpec
        Registry name or a :class:`~repro.sim.processes.ProcessSpec`.
    trials : int
        Number of independent trials.
    metric : str, optional
        ``"cover"``, ``"spread"``, ``"hit"``, ``"coalesce"``, or
        ``"min"``; defaults to the spec's preferred metric.
    start : int or numpy.ndarray
        Start vertex (array for multi-source processes).
    target : int, optional
        Hit target, required for ``metric="hit"`` (validated before
        any trial runs).
    seed : SeedLike, optional
        The single root seed all per-trial (or engine) streams derive
        from.
    max_steps : int, optional
        Step budget per trial; defaults to the process's registered budget.
    strategy : str
        ``"auto"`` (default), ``"vectorized"``, or ``"serial"``.
    **params : Any
        Process-specific knobs forwarded to the factory/engine.

    Returns
    -------
    TrialSummary
        One summary over the metric values of all trials.
    """
    spec = process if isinstance(process, ProcessSpec) else get_process(process)
    _refuse_bound_params(spec, params)
    metric = _resolve_metric(spec, metric)
    if trials < 1:
        raise ValueError("need at least one trial")
    if strategy not in ("auto", "vectorized", "serial"):
        raise ValueError(f"unknown strategy {strategy!r}; use auto|vectorized|serial")
    if metric == "hit":
        # validate here, before any engine runs: a bad target must fail
        # fast in the caller
        if target is None:
            raise ValueError("metric 'hit' needs a target vertex")
        if not (0 <= target < graph.n):
            raise ValueError("target out of range")
    if max_steps is None:
        max_steps = spec.default_budget(graph, params)

    path = select_execution_path(spec, metric, strategy=strategy)
    tracer = current_tracer()
    if tracer.enabled:
        tracer.annotate(
            engine_path=path, process=spec.name, metric=metric, trials=trials
        )
    if path != "vectorized" and not isinstance(graph, Graph):
        raise ValueError(
            "the serial execution path steps CSR edge arrays, which an "
            "implicit NeighborOracle does not carry; use "
            "strategy='vectorized' or materialise the graph with "
            "repro.graphs.to_csr(...)"
        )
    if path == "vectorized":
        if metric == "hit":
            params["target"] = target
        values = spec.batch(
            graph, trials=trials, start=start, seed=seed, max_steps=max_steps, **params
        )
        return summarize_trials(np.asarray(values, dtype=np.float64))

    return summarize_trials(
        np.array([
            simulate(
                graph, spec, metric=metric, start=start, target=target,
                seed=s, max_steps=max_steps, **params,
            ).value
            for s in spawn_seeds(seed, trials)
        ])
    )
