"""One front door for every registered process: ``simulate`` and
``run_batch``::

    from repro import simulate, run_batch

    res = simulate(grid(32, 2), process="cobra", k=2, seed=0)
    print(res.cover_time)

    summary = run_batch(grid(32, 2), "cobra", trials=32, seed=0)
    print(summary.mean, summary.ci95_half_width)

``simulate`` drives any :class:`~repro.sim.processes.ProcessSpec` to a
single :class:`RunResult`; seed-for-seed it reproduces the process
class's own runner for the same ``(process, metric, seed)``.
``run_batch`` fans out over the vectorized batched engine when the
process has one for the metric (cover/spread: every cover-capable
registered process; hit: cobra, simple, lazy, walt, push, pull,
push_pull), the sharded executor when ``shards`` is
given (per-trial seed streams, placement-independent — see
``docs/architecture.md``), a multiprocessing pool when
``processes > 1``, or a serial seed-spawned loop otherwise, always
returning one :class:`~repro.sim.montecarlo.TrialSummary`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..graphs.base import Graph
from ..graphs.implicit import NeighborOracle
from ..obs.trace import current_tracer
from .montecarlo import TrialSummary, run_trials, summarize_trials
from .processes import ProcessSpec, get_process
from .rng import SeedLike

__all__ = [
    "RunResult",
    "simulate",
    "run_batch",
    "select_execution_path",
    "set_default_processes",
    "get_default_processes",
]

#: process-pool fan-out applied when ``run_batch(processes=None)``;
#: set from the CLI's ``--processes`` flag.
_DEFAULT_PROCESSES: int | None = None


def set_default_processes(processes: int | None) -> None:
    """Set the default Monte-Carlo fan-out for :func:`run_batch`.

    Parameters
    ----------
    processes : int or None
        ``None`` or 1 = serial/vectorized; > 1 = pool of that size.
    """
    global _DEFAULT_PROCESSES
    if processes is not None and processes < 1:
        raise ValueError("processes must be >= 1 (or None)")
    _DEFAULT_PROCESSES = processes


def get_default_processes() -> int | None:
    """Current default fan-out (see :func:`set_default_processes`).

    Returns
    -------
    int or None
        The installed pool width, or ``None`` for serial/vectorized.
    """
    return _DEFAULT_PROCESSES


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
# uniform views over the heterogeneous process classes
# ----------------------------------------------------------------------
def _first_activation(proc) -> np.ndarray | None:
    """First-activation array under either historical attribute name."""
    for attr in ("first_activation", "first_visit"):
        arr = getattr(proc, attr, None)
        if arr is not None:
            return arr
    return None


def _all_covered(proc) -> bool:
    flag = getattr(proc, "all_covered", None)
    if flag is None:
        raise TypeError(f"{type(proc).__name__} does not track coverage")
    return bool(flag)


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
    shards: int | None = None,
    processes: int | None = None,
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
    shards : int or None
        Sharded-executor request (wins over everything else).
    processes : int or None
        Effective pool width (the caller resolves the CLI default).

    Returns
    -------
    str
        ``"sharded"``, ``"vectorized"``, ``"pool"``, or ``"serial"``.
    """
    if shards is not None:
        return "sharded"
    if metric in ("cover", "spread"):
        engine = spec.batch_cover
    elif metric == "hit":
        engine = spec.batch_hit
    else:
        engine = None
    if strategy == "vectorized":
        if engine is None:
            raise ValueError(
                f"process {spec.name!r} has no vectorized engine for metric {metric!r}"
            )
        return "vectorized"
    if (
        strategy == "auto"
        and engine is not None
        and (processes is None or processes <= 1)
    ):
        return "vectorized"
    if processes is not None and processes > 1:
        return "pool"
    return "serial"


def _accepts_target(engine) -> bool:
    """Whether a batched engine's signature declares a ``target``
    keyword (drives forwarding for non-hit metrics)."""
    try:
        return "target" in inspect.signature(engine).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtin callables
        return False


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
    metric = _resolve_metric(spec, metric)
    if metric == "hit":
        if target is None:
            raise ValueError("metric 'hit' needs a target vertex")
        if not (0 <= target < graph.n):
            raise ValueError("target out of range")
    if max_steps is None:
        max_steps = spec.default_budget(graph, params)
    proc = spec.factory(graph, start=start, seed=seed, target=target, **params)

    if metric in ("cover", "spread"):
        while not _all_covered(proc) and proc.t < max_steps:
            proc.step()
        covered = _all_covered(proc)
        fa = _first_activation(proc)
        cover_time = None
        if covered:
            cover_time = int(fa.max()) if fa is not None else int(proc.t)
        return RunResult(
            process=spec.name,
            metric=metric,
            covered=covered,
            steps=int(proc.t),
            cover_time=cover_time,
            first_activation=fa.copy() if fa is not None else None,
            extras=_collect_extras(proc),
        )

    if metric == "hit":
        while _first_activation(proc)[target] < 0 and proc.t < max_steps:
            proc.step()
        fa = _first_activation(proc)
        hit = int(fa[target]) if fa[target] >= 0 else None
        extras = _collect_extras(proc)
        extras["hit_time"] = hit
        covered = bool(getattr(proc, "all_covered", False))
        return RunResult(
            process=spec.name,
            metric=metric,
            covered=covered,
            steps=int(proc.t),
            cover_time=None,
            first_activation=fa.copy(),
            extras=extras,
        )

    if metric == "min":
        if not hasattr(proc, "min_position"):
            raise TypeError(
                f"{type(proc).__name__} does not track a minimum position"
            )
        while proc.t < max_steps:
            proc.step()
        extras = _collect_extras(proc)
        extras["min_position"] = int(proc.min_position)
        max_pos = getattr(proc, "max_position", None)
        if max_pos is not None:
            extras["max_position"] = int(max_pos)
        return RunResult(
            process=spec.name,
            metric=metric,
            covered=bool(getattr(proc, "all_covered", False)),
            steps=int(proc.t),
            cover_time=None,
            first_activation=None,
            extras=extras,
        )

    if metric == "coalesce":
        while proc.num_walkers > 1 and proc.t < max_steps:
            proc.step()
        coalesced = proc.num_walkers == 1
        fa = _first_activation(proc)
        extras = _collect_extras(proc)
        extras["coalesced"] = coalesced
        extras["walkers_left"] = int(proc.num_walkers)
        extras["coalescence_time"] = int(proc.t) if coalesced else None
        return RunResult(
            process=spec.name,
            metric=metric,
            covered=bool(getattr(proc, "all_covered", False)),
            steps=int(proc.t),
            cover_time=None,
            first_activation=fa.copy() if fa is not None else None,
            extras=extras,
        )

    raise ValueError(f"unknown metric {metric!r}")


def _batch_trial(
    seed,
    graph: Graph,
    process: str | ProcessSpec,
    metric: str,
    start,
    target,
    max_steps,
    params: dict | None = None,
) -> float:
    """Picklable per-trial worker for serial/pool fan-out.

    Parameters
    ----------
    seed : SeedLike, optional
        The trial's own spawned :class:`numpy.random.SeedSequence`.
    graph, process, metric, start, target, max_steps, params:
        Static :func:`simulate` arguments shared by every trial.

    Returns
    -------
    float
        The trial's scalar metric value (``nan`` = budget exhausted).
    """
    return simulate(
        graph,
        process,
        metric=metric,
        start=start,
        target=target,
        seed=seed,
        max_steps=max_steps,
        **(params or {}),
    ).value


def _shard_worker(payload: tuple) -> list[float]:
    """Picklable per-shard worker: run one contiguous block of trials.

    Parameters
    ----------
    payload : tuple
        ``(seeds, graph, proc_ref, metric, start, target, max_steps,
        params)`` — *seeds* is the shard's slice of the per-trial
        spawned seed list; everything else is static.

    Returns
    -------
    list of float
        One metric value per trial of the shard, in trial order.
    """
    seeds, graph, proc_ref, metric, start, target, max_steps, params = payload
    return [
        _batch_trial(s, graph, proc_ref, metric, start, target, max_steps, params)
        for s in seeds
    ]


def _run_sharded(
    graph: Graph,
    proc_ref,
    metric: str,
    *,
    trials: int,
    start,
    target,
    seed: SeedLike,
    max_steps,
    params: dict,
    shards: int,
    max_workers: int | None,
) -> TrialSummary:
    """Sharded Monte-Carlo executor behind ``run_batch(shards=...)``.

    The seed-spawning contract makes results placement-independent:
    all *trials* per-trial seeds are spawned up front from *seed*
    (exactly as the serial/pool paths spawn them), and shard ``j``
    merely executes a contiguous slice of that list.  Trial ``i``
    therefore consumes the identical RNG stream whether it runs
    unsharded, in shard 0 of 1, or in shard 7 of 8 on another machine
    — ``shards=k`` is seed-for-seed identical to ``shards=1`` and to
    the unsharded serial path for every registered process.

    Parameters
    ----------
    graph, proc_ref, metric, start, target, max_steps, params:
        Static per-trial arguments (see :func:`_batch_trial`).
    trials : int
        Total trial count, split round-robin-free into ``shards``
        contiguous blocks of near-equal size.
    seed : SeedLike, optional
        Parent seed for :func:`repro.sim.rng.spawn_seeds`.
    shards : int or None
        Number of blocks.
    max_workers : int or None
        Process-pool width (defaults to ``min(shards, cpu_count)``);
        ``1`` executes every shard inline in this process.

    Returns
    -------
    TrialSummary
        Summary over all trials, in trial order.
    """
    import os

    from .rng import spawn_seeds

    seeds = spawn_seeds(seed, trials)
    bounds = np.linspace(0, trials, shards + 1).astype(int)
    payloads = [
        (seeds[lo:hi], graph, proc_ref, metric, start, target, max_steps, params)
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    if max_workers is None:
        max_workers = min(len(payloads), os.cpu_count() or 1)
    if max_workers <= 1 or len(payloads) == 1:
        chunks = [_shard_worker(p) for p in payloads]
    else:
        from .montecarlo import _pool_context

        with _pool_context().Pool(processes=max_workers) as pool:
            chunks = pool.map(_shard_worker, payloads)
    values = np.array([v for chunk in chunks for v in chunk], dtype=np.float64)
    return summarize_trials(values)


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
    processes: int | None = None,
    shards: int | None = None,
    max_workers: int | None = None,
    strategy: str = "auto",
    **params: Any,
) -> TrialSummary:
    """Run *trials* independent trials and summarise the outcomes.

    Strategy selection (``strategy="auto"``):

    * the sharded executor when ``shards`` is given (see below);
    * the process's vectorized batched engine, when it has one for the
      metric — ``batch_cover`` for coverage/spread, ``batch_hit`` for
      hitting — all trials advance in one ``(trials, n)`` frontier, no
      per-trial Python loops;
    * a :mod:`multiprocessing` pool when ``processes > 1`` (or a CLI
      default was installed via :func:`set_default_processes`);
    * otherwise a serial loop over spawned per-trial seeds: trial ``i``
      is ``simulate(..., seed=spawn_seeds(seed, trials)[i])``.

    ``strategy="vectorized"`` / ``"serial"`` force a path (vectorized
    raises for processes without a batched engine for the metric).

    Parameters
    ----------
    graph : Graph or NeighborOracle
        The graph to run on — a CSR :class:`Graph`, or an implicit
        :class:`~repro.graphs.implicit.NeighborOracle` (vectorized
        path only: the serial/pool/sharded paths step CSR edge arrays).
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
        any fan-out).
    seed : SeedLike, optional
        The single root seed all per-trial (or engine) streams derive
        from.
    max_steps : int, optional
        Step budget per trial; defaults to the process's registered budget.
    processes : int or None
        Pool width for the per-trial multiprocessing path (``None``/1
        = no pool).  Mutually exclusive with *shards*.
    shards : int or None
        Split the trials into this many contiguous blocks and run them
        on the sharded executor.  Per-trial seeds are spawned up front,
        so results are **placement-independent**: ``shards=k`` is
        seed-for-seed identical to ``shards=1``, to the unsharded
        serial path, and to any ``max_workers`` — the contract that
        lets shards move across worker processes or machines.  Sharded
        runs use per-trial streams (the serial contract), not the
        single interleaved stream of the vectorized engines; force
        ``strategy="vectorized"`` only without shards.
    max_workers : int or None
        Process-pool width for the sharded executor (default
        ``min(shards, cpu_count)``; ``1`` = inline, same values).
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
    metric = _resolve_metric(spec, metric)
    if trials < 1:
        raise ValueError("need at least one trial")
    if strategy not in ("auto", "vectorized", "serial"):
        raise ValueError(f"unknown strategy {strategy!r}; use auto|vectorized|serial")
    if shards is not None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if processes is not None:
            raise ValueError(
                "pass either shards= (sharded executor) or processes= "
                "(per-trial pool), not both"
            )
        if strategy == "vectorized":
            raise ValueError(
                "sharded runs use the per-trial seed-spawning contract; "
                "strategy='vectorized' cannot be sharded (drop shards= for "
                "the single-stream vectorized engine)"
            )
    if max_workers is not None:
        if shards is None:
            raise ValueError("max_workers only applies to sharded runs (pass shards=)")
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
    if metric == "hit":
        # validate here, before any fan-out: a bad target must fail fast
        # in the caller, not deep inside pool workers
        if target is None:
            raise ValueError("metric 'hit' needs a target vertex")
        if not (0 <= target < graph.n):
            raise ValueError("target out of range")
    if processes is None and shards is None:
        processes = _DEFAULT_PROCESSES
    if max_steps is None:
        max_steps = spec.default_budget(graph, params)

    # registered specs travel by name (cheap to pickle across a pool);
    # an unregistered spec is passed as the object itself — fine
    # serially, and the pool path then needs the spec to be picklable
    from .processes import _REGISTRY

    proc_ref: str | ProcessSpec = (
        spec.name if _REGISTRY.get(spec.name) is spec else spec
    )

    path = select_execution_path(
        spec,
        metric,
        strategy=strategy,
        shards=shards,
        processes=processes,
    )
    tracer = current_tracer()
    if tracer.enabled:
        tracer.annotate(
            engine_path=path, process=spec.name, metric=metric, trials=trials
        )
    if path != "vectorized" and not isinstance(graph, Graph):
        raise ValueError(
            f"the {path!r} execution path steps CSR edge arrays, which an "
            "implicit NeighborOracle does not carry; use "
            "strategy='vectorized' (drop shards=/processes=) or materialise "
            "the graph with repro.graphs.to_csr(...)"
        )
    if path == "sharded":
        return _run_sharded(
            graph,
            proc_ref,
            metric,
            trials=trials,
            start=start,
            target=target,
            seed=seed,
            max_steps=max_steps,
            params=dict(params),
            shards=shards,
            max_workers=max_workers,
        )

    if path == "vectorized":
        engine = spec.batch_cover if metric in ("cover", "spread") else spec.batch_hit
        kwargs = dict(params)
        if metric == "hit":
            kwargs["target"] = target
        elif target is not None and _accepts_target(engine):
            # cover engines of target-parameterised processes (the
            # biased walk's controller steers toward its target)
            kwargs["target"] = target
        values = engine(
            graph, trials=trials, start=start, seed=seed, max_steps=max_steps, **kwargs
        )
        return summarize_trials(np.asarray(values, dtype=np.float64))

    return run_trials(
        _batch_trial,
        trials,
        seed=seed,
        args=(graph, proc_ref, metric, start, target, max_steps),
        kwargs={"params": dict(params)},
        processes=processes,
    )
