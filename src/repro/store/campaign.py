"""The campaign runner: drive a sweep's pending cells through ``run_batch``.

A :class:`Campaign` binds one :class:`~repro.store.spec.SweepSpec` to
one :class:`~repro.store.store.ResultStore` and runs only the cells
the store does not already hold — re-running a completed sweep
performs **zero** ``run_batch`` calls, and a campaign killed mid-way
resumes exactly where it stopped (per-cell seeds are content-derived,
so the completed-then-resumed results are seed-for-seed identical to
an uninterrupted run; ``tests/store/test_campaign.py`` pins both).

Execution rides the facade: each cell is one
``run_batch(graph, process, trials=, metric=, seed=, shards=, ...)``
call, so a campaign gets the vectorized batched engine, the
multiprocessing pool, or the placement-independent sharded executor
exactly as any other caller would.  Per-cell provenance (sweep name,
engine path used, worker id, seed entropy, wall time and
per-phase timings, graph name) is recorded next to the result; pass a
:class:`~repro.obs.trace.Tracer` to additionally stream span events
into the store's ``events.jsonl`` (see ``docs/observability.md``).

``Campaign(workers=N)`` instead spawns N local worker processes that
drain the same sweep concurrently through the lease/claim dispatcher
(:mod:`repro.store.dispatch`) — value-for-value identical to a
single-process ``run()``, because per-cell seeds are content-derived.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Mapping
from typing import Any

from ..obs.trace import NULL_TRACER, Tracer, activate, default_worker_id
from ..sim.facade import run_batch
from ..sim.processes import get_process
from .spec import RunKey, SweepSpec
from .store import Frame, ResultStore, record_row

__all__ = ["Campaign", "CampaignReport", "CampaignStatus", "run_cell"]


@dataclass(frozen=True)
class CampaignStatus:
    """Progress snapshot of a sweep against a store.

    Attributes
    ----------
    total : int
        Number of cells the spec expands to.
    done : int
        Cells already in the store.
    """

    total: int
    done: int

    @property
    def pending(self) -> int:
        """Cells still to run."""
        return self.total - self.done

    @property
    def complete(self) -> bool:
        """Whether every cell is stored."""
        return self.done == self.total


@dataclass
class CampaignReport:
    """What one :meth:`Campaign.run` call did.

    Attributes
    ----------
    sweep : str
        The spec's name.
    ran : list of str
        Hashes of cells actually computed this call.
    cached : list of str
        Hashes that were already stored (skipped).
    pending : list of str
        Hashes left unrun (only non-empty when ``max_cells`` stopped
        the call early).
    """

    sweep: str
    ran: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    pending: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        """All cells of the sweep."""
        return len(self.ran) + len(self.cached) + len(self.pending)

    @property
    def complete(self) -> bool:
        """Whether the sweep is fully stored after this call."""
        return not self.pending


def _engine_label(process: str, metric: str, shards: int | None) -> str:
    """The execution path ``run_batch`` takes for a cell, for
    provenance — computed by the facade's own
    :func:`~repro.sim.facade.select_execution_path` (the one selection
    rule ``run_batch`` itself uses), so the label cannot drift from
    what actually ran."""
    from ..sim.facade import get_default_processes, select_execution_path

    pool = get_default_processes()
    path = select_execution_path(
        get_process(process), metric, shards=shards, processes=pool
    )
    if path == "sharded":
        return f"sharded(shards={shards})"
    if path == "pool":
        return f"pool(processes={pool})"
    return path


#: the cell phases, in execution order — every run_cell emits exactly
#: these four phase spans, traced or not (events Frame row counts are
#: cells × len(CELL_PHASES))
CELL_PHASES = ("build_graph", "lower", "engine", "record")


def run_cell(
    key: RunKey,
    store: ResultStore,
    *,
    sweep: str,
    shards: int | None = None,
    max_workers: int | None = None,
    graph_cache: dict[tuple, Any] | None = None,
    extra_provenance: Mapping[str, Any] | None = None,
    tracer: Tracer | None = None,
    worker: str | None = None,
    lease: str | None = None,
    profile: bool = False,
) -> dict[str, Any]:
    """Compute one cell through ``run_batch`` and store it with provenance.

    The one execution path for a cell, shared by :class:`Campaign` and
    by the dispatch workers (:mod:`repro.store.dispatch`): the cell's
    seed stream is content-derived (``[root, H(cell)]``), so **who**
    computes a cell never changes its values — an N-worker drain is
    value-for-value identical to a single ``Campaign.run()``.

    Execution is broken into the four :data:`CELL_PHASES`
    (``build_graph → lower → engine → record``); each phase is timed
    through the tracer's injected clock and recorded in the ``phase_s``
    provenance dict (``record`` excepted — provenance is sealed before
    the store append), and emitted as a span when tracing is on.  All
    clock reads go through the tracer, so this module contains no raw
    ``time.*`` calls (rule RPL150).

    Parameters
    ----------
    key : RunKey
        The cell to compute.
    store : ResultStore
        Where the record lands (a locked single-line append).
    sweep : str
        Sweep name recorded as provenance.
    shards : int, optional
        Forwarded to ``run_batch(shards=)``.
    max_workers : int, optional
        Forwarded with *shards*.
    graph_cache : dict, optional
        ``(builder, params) -> Graph`` cache shared across cells of one
        runner.
    extra_provenance : Mapping, optional
        Extra provenance fields merged in last.
    tracer : Tracer, optional
        Telemetry sink (default :data:`~repro.obs.trace.NULL_TRACER`:
        spans/counters are free, clocks still tick for provenance).
        The tracer is activated around the engine phase so the batched
        engines' counters land on its span.
    worker : str, optional
        Worker id recorded in provenance (default: the tracer's id, or
        ``host-pid``).
    lease : str, optional
        Dispatch lease id recorded in provenance (additive key; absent
        for single-process campaigns).
    profile : bool
        Record the process peak RSS (MiB) after the engine phase as
        ``peak_rss_mb`` provenance (``sweep run --profile``).

    Returns
    -------
    dict
        The record as stored.
    """
    if graph_cache is None:
        graph_cache = {}
    tr = tracer if tracer is not None else NULL_TRACER
    if worker is None:
        worker = tr.worker or default_worker_id()
    clock = tr.clock
    cell = key.hash[:12]
    phase_s: dict[str, float] = {}

    @contextmanager
    def phase(name: str) -> Iterator[None]:
        t0 = clock()
        with tr.span(name, kind="phase", cell=cell, sweep=sweep):
            yield
        phase_s[name] = clock() - t0

    with tr.span("cell", kind="cell", cell=cell, sweep=sweep, process=key.process):
        with phase("build_graph"):
            gkey = (key.graph_builder, key.graph_params)
            if gkey not in graph_cache:
                graph_cache[gkey] = key.build_graph()
            graph = graph_cache[gkey]
        with phase("lower"):
            target = key.resolve_target(graph)
            engine = _engine_label(key.process, key.metric, shards)
        with phase("engine"), activate(tr):
            summary = run_batch(
                graph,
                key.process,
                trials=key.trials,
                metric=key.metric,
                target=target,
                seed=key.seed_sequence(),
                max_steps=key.max_steps,
                shards=shards,
                max_workers=max_workers,
                **dict(key.params),
            )
        provenance = {
            "sweep": sweep,
            "engine": engine,
            "worker": worker,
            "wall_time_s": round(phase_s["engine"], 6),
            "phase_s": {name: round(dur, 6) for name, dur in phase_s.items()},
            "seed_entropy": key.seed_entropy(),
            "graph_name": graph.name,
            "graph_n": int(graph.n),
            # "csr" for materialised Graphs (which carry no kind attribute),
            # else the oracle's topology kind ("torus", "hypercube", ...)
            "graph_kind": getattr(graph, "kind", "csr"),
            "created_unix": round(tr.walltime(), 3),
        }
        if lease is not None:
            provenance["lease"] = lease
        if profile:
            from ..obs.memory import peak_rss_mb

            provenance["peak_rss_mb"] = round(peak_rss_mb(), 3)
        if extra_provenance:
            provenance.update(extra_provenance)
        with phase("record"):
            record = store.put(key, summary, provenance)
    return record


class Campaign:
    """Run one sweep against one store, cache-aware and resumable.

    Parameters
    ----------
    spec : SweepSpec
        The declarative sweep.
    store : ResultStore
        Where results live (pass a disk-backed store for durable,
        resumable campaigns; the default is an ephemeral in-memory
        store).
    shards : int, optional
        Forwarded to ``run_batch(shards=)`` per cell (the
        placement-independent sharded executor).
    max_workers : int, optional
        Forwarded with *shards*.
    workers : int, optional
        Spawn this many local worker processes that drain the sweep
        concurrently through the lease/claim dispatcher
        (:mod:`repro.store.dispatch`).  Requires a disk-backed store
        (the claim ledger lives beside the shards).  Values are
        identical to a single-process ``run()`` — per-cell seeds are
        content-derived, so worker placement cannot matter.
    tracer : Tracer, optional
        Telemetry sink threaded into every cell (default: the no-op
        :data:`~repro.obs.trace.NULL_TRACER`).  With ``workers=N`` the
        pool members cannot share this process's tracer object; when
        an *enabled* tracer is passed, each worker instead opens its
        own store-backed event tracer
        (:func:`repro.obs.events.tracer_for_store`) under its owner
        id, so the events land in the same ``events.jsonl``.
    profile : bool
        Record per-cell peak-RSS provenance (``peak_rss_mb``).
    """

    def __init__(
        self,
        spec: SweepSpec,
        store: ResultStore | None = None,
        *,
        shards: int | None = None,
        max_workers: int | None = None,
        workers: int | None = None,
        tracer: Tracer | None = None,
        profile: bool = False,
    ) -> None:
        self.spec = spec
        self.store = store if store is not None else ResultStore()
        self.shards = shards
        self.max_workers = max_workers
        self.workers = workers
        self.tracer = tracer
        self.profile = profile
        if workers is not None and workers > 1 and self.store.root is None:
            raise ValueError(
                "Campaign(workers=N) needs a disk-backed store (the claim "
                "ledger lives beside the shards); pass ResultStore(path)"
            )
        self._cells: list[RunKey] | None = None

    @property
    def cells(self) -> list[RunKey]:
        """The spec's expanded cell list (computed once)."""
        if self._cells is None:
            self._cells = self.spec.expand()
        return self._cells

    def frame(self) -> Frame:
        """This sweep's stored results, addressed by *content*.

        Looks up each of the spec's cells by hash — not by the
        ``sweep`` provenance label — so a cell that was computed by a
        *different* campaign (content dedup deliberately excludes the
        sweep name from the hash) still appears here.  Rows come back
        in expansion order with this spec's name in the ``sweep``
        column; cells not yet stored are simply absent.

        Returns
        -------
        Frame
            One row per stored cell of this sweep.
        """
        rows = []
        for key in self.cells:
            record = self.store.get(key)
            if record is None:
                continue
            row = record_row(record)
            row["sweep"] = self.spec.name
            rows.append(row)
        return Frame(rows)

    def status(self) -> CampaignStatus:
        """How much of the sweep the store already holds.

        Returns
        -------
        CampaignStatus
            Total vs stored cell counts.
        """
        done = sum(1 for key in self.cells if self.store.has(key))
        return CampaignStatus(total=len(self.cells), done=done)

    def run(
        self,
        *,
        max_cells: int | None = None,
        on_cell: Callable[[RunKey, dict[str, Any], bool], None] | None = None,
    ) -> CampaignReport:
        """Run every pending cell (or up to *max_cells* of them).

        Parameters
        ----------
        max_cells : int, optional
            Stop after computing this many cells — the hook the
            interrupt/resume tests and the CLI's incremental mode use;
            cached cells don't count against it.
        on_cell : callable, optional
            ``on_cell(key, record, cached)`` after every cell (cached
            or computed) — progress reporting.

        Returns
        -------
        CampaignReport
            Hashes ran / cached / left pending.
        """
        if self.workers is not None and self.workers > 1:
            if max_cells is not None or on_cell is not None:
                raise ValueError(
                    "max_cells/on_cell are per-process hooks; they are not "
                    "supported with Campaign(workers=N) — use "
                    "repro.store.dispatch.drain directly for finer control"
                )
            return self._run_pool()
        report = CampaignReport(sweep=self.spec.name)
        graph_cache: dict[tuple, Any] = {}
        tr = self.tracer if self.tracer is not None else NULL_TRACER
        with tr.span(
            "campaign", kind="campaign", sweep=self.spec.name, cells=len(self.cells)
        ):
            for key in self.cells:
                record = self.store.get(key)
                if record is not None:
                    report.cached.append(key.hash)
                    if on_cell is not None:
                        on_cell(key, record, True)
                    continue
                if max_cells is not None and len(report.ran) >= max_cells:
                    report.pending.append(key.hash)
                    continue
                record = self._run_cell(key, graph_cache)
                report.ran.append(key.hash)
                if on_cell is not None:
                    on_cell(key, record, False)
        return report

    def _run_pool(self) -> CampaignReport:
        """Drain the sweep with a local pool of dispatch workers.

        Each worker process opens its own store handle and claims
        cells through the shared ledger; this process only aggregates
        their reports.  See ``docs/sweeps.md`` ("Multi-worker
        dispatch").
        """
        from ..sim.montecarlo import _pool_context
        from .dispatch import pool_worker, worker_payloads

        assert self.workers is not None and self.store.root is not None
        self.store.refresh()
        report = CampaignReport(sweep=self.spec.name)
        report.cached = [k.hash for k in self.cells if self.store.has(k)]
        payloads = worker_payloads(
            self.spec,
            self.store.root,
            workers=self.workers,
            shards=self.shards,
            max_workers=self.max_workers,
            trace=self.tracer is not None and self.tracer.enabled,
            profile=self.profile,
        )
        with _pool_context().Pool(processes=self.workers) as pool:
            worker_reports = pool.map(pool_worker, payloads)
        ran = {h for wr in worker_reports for h in wr.ran}
        self.store.refresh()
        for key in self.cells:
            if key.hash in report.cached:
                continue
            if key.hash in ran:
                report.ran.append(key.hash)
            elif self.store.has(key):
                # committed by a worker whose report line we cannot see
                # (reclaimed lease overlap) — still ran this call
                report.ran.append(key.hash)
            else:
                report.pending.append(key.hash)
        return report

    def _run_cell(self, key: RunKey, graph_cache: dict) -> dict[str, Any]:
        """Compute one cell and store it with provenance."""
        return run_cell(
            key,
            self.store,
            sweep=self.spec.name,
            shards=self.shards,
            max_workers=self.max_workers,
            graph_cache=graph_cache,
            tracer=self.tracer,
            profile=self.profile,
        )
