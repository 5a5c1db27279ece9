"""Straggler reports and the live drain monitor (``sweep report``/``sweep top``).

The paper's cover-time distributions are heavy-tailed, and so are
sweep campaigns over them: one cell can legitimately run 40× longer
than its twin.  This module turns the telemetry the store already
holds — per-cell provenance (worker, engine path, per-phase timings), the
claim ledger, and the ``events.jsonl`` log — into answers:

* :func:`build_report` → :class:`StragglerReport`: per-cell wall times
  attributed to workers, p50/p95/max by ``(process, graph_kind,
  engine)``, per-worker totals, ledger health (reclaimed leases,
  double-computed cells), and the ``sweep serve --trace`` traffic by
  route — rendered by the ``sweep report`` CLI verb;
* :func:`render_top` / :func:`live_top`: a polling snapshot of a
  draining store — progress, live leases, the freshest events, and the
  slowest cells so far — the ``sweep top`` CLI verb.

Everything here is read-only over the store directory and runs happily
while workers are still draining (the load paths tolerate torn tails).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..store.spec import SweepSpec
    from ..store.store import Frame, ResultStore

__all__ = ["StragglerReport", "build_report", "render_top", "live_top"]

#: straggler-table width caps (the report stays readable on big stores)
_MAX_CELL_ROWS = 40


def _table(rows: list[dict[str, Any]], columns: Sequence[str], title: str) -> str:
    from ..analysis.tables import Table

    return Table.from_rows(rows, list(columns), title=title).render()


def _round(value: Any, digits: int = 4) -> Any:
    return round(value, digits) if isinstance(value, float) else value


@dataclass
class StragglerReport:
    """The ``sweep report`` payload: cells, groups, workers, ledger.

    Attributes
    ----------
    cells : list of dict
        One row per stored cell, slowest first — ``cell`` (hash
        prefix), ``process``, ``graph_kind``, ``engine``, ``worker``,
        ``wall_s`` and per-phase ``t_*_s`` columns.
    groups : list of dict
        p50/p95/max wall time per ``(process, graph_kind, engine)``.
    workers : list of dict
        Per-worker attribution: cells computed, total/mean/max wall
        time, slowest cell.
    ledger : dict
        Claim-ledger health: ``claims``, ``reclaimed`` (extra claims on
        an already-claimed hash — lease expiry/double-compute
        pressure), ``done``/``abandoned``, ``stale``/``live`` lease
        counts, and ``double_computed`` (cells stored more than once).
    events : dict
        ``records``/``torn`` counts of ``events.jsonl`` (zeros when
        the store was never traced).
    service : list of dict
        Per-route ``sweep serve --trace`` traffic (see
        :func:`_service_rows`); empty when the store was never served
        with tracing on.
    """

    cells: list[dict[str, Any]] = field(default_factory=list)
    groups: list[dict[str, Any]] = field(default_factory=list)
    workers: list[dict[str, Any]] = field(default_factory=list)
    ledger: dict[str, int] = field(default_factory=dict)
    events: dict[str, int] = field(default_factory=dict)
    service: list[dict[str, Any]] = field(default_factory=list)

    def render(self) -> str:
        """The ``sweep report`` CLI output.

        Returns
        -------
        str
            Straggler, group, and worker tables plus ledger/event
            health lines.
        """
        if not self.cells:
            return "no stored cells to report on"
        sections = []
        shown = self.cells[:_MAX_CELL_ROWS]
        phase_cols = sorted(
            {c for row in shown for c in row if c.startswith("t_")}
        )
        sections.append(
            _table(
                shown,
                ["cell", "process", "graph_kind", "engine", "worker", "wall_s"]
                + phase_cols,
                title=f"stragglers (slowest {len(shown)} of {len(self.cells)} cells)",
            )
        )
        sections.append(
            _table(
                self.groups,
                [
                    "process", "graph_kind", "engine", "cells",
                    "p50_s", "p95_s", "max_s", "max_cell", "max_worker",
                ],
                title="wall time by process/graph_kind/engine",
            )
        )
        sections.append(
            _table(
                self.workers,
                ["worker", "cells", "total_s", "mean_s", "max_s", "slowest_cell"],
                title="worker attribution",
            )
        )
        led = self.ledger
        sections.append(
            "ledger: {claims} claim(s), {reclaimed} reclaimed, {done} done, "
            "{abandoned} abandoned, {stale} stale lease(s), {live} live "
            "lease(s), {double_computed} double-computed cell(s)".format(**led)
            if led
            else "ledger: (no claims.jsonl — single-process campaign)"
        )
        ev = self.events
        sections.append(
            f"events: {ev.get('records', 0)} record(s), "
            f"{ev.get('torn', 0)} torn line(s)"
        )
        if self.service:
            sections.append(
                _table(
                    self.service,
                    ["route", "requests", "p50_ms", "p95_ms", "max_ms",
                     "rate_304", "4xx", "5xx"],
                    title="service requests by route",
                )
            )
        return "\n\n".join(sections)


def _sweep_frame(store: "ResultStore", specs: Sequence["SweepSpec"] | None) -> "Frame":
    """The rows to report on: the whole store, or just *specs*' cells."""
    from ..store.store import Frame, record_row

    store.refresh()
    if specs is None:
        return store.frame()
    rows = []
    for spec in specs:
        for key in spec.expand():
            record = store.get(key)
            if record is not None:
                row = record_row(record)
                row["sweep"] = spec.name
                rows.append(row)
    return Frame(rows)


def _ledger_stats(backend: Any, *, now: float) -> dict[str, int]:
    from ..store.dispatch import ClaimLedger, Lease

    records = ClaimLedger(backend).records()
    if not records:
        return {}
    claim_counts: dict[str, int] = {}
    done = abandoned = 0
    for record in records:
        if record["op"] == "claim":
            claim_counts[record["hash"]] = claim_counts.get(record["hash"], 0) + 1
        elif record["op"] == "done":
            done += 1
        else:
            abandoned += 1
    leases: dict[str, Lease] = {}
    ClaimLedger._apply(leases, records)
    stale = sum(1 for lease in leases.values() if lease.expired(now))
    return {
        "claims": sum(claim_counts.values()),
        "reclaimed": sum(c - 1 for c in claim_counts.values() if c > 1),
        "done": done,
        "abandoned": abandoned,
        "stale": stale,
        "live": len(leases) - stale,
        "double_computed": 0,  # filled in by build_report's shard scan
    }


def _service_rows(records: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per-route traffic from the ``kind="http"`` spans ``sweep serve
    --trace`` writes: request count, p50/p95/max latency, the share of
    304s, and 4xx/5xx counts.  A span without a status is a request
    whose handler raised (the client got no response); it counts as a
    5xx."""
    by_route: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        if record.get("kind") == "http":
            by_route.setdefault(str(record.get("route")), []).append(record)
    rows = []
    for route, spans in sorted(by_route.items()):
        ms = np.asarray([float(s.get("dur_s") or 0.0) for s in spans]) * 1e3
        statuses = [s.get("status") for s in spans]
        rows.append(
            {
                "route": route,
                "requests": len(spans),
                "p50_ms": _round(float(np.percentile(ms, 50))),
                "p95_ms": _round(float(np.percentile(ms, 95))),
                "max_ms": _round(float(ms.max())),
                "rate_304": _round(statuses.count(304) / len(spans)),
                "4xx": sum(
                    1 for st in statuses if isinstance(st, int) and 400 <= st < 500
                ),
                "5xx": sum(
                    1 for st in statuses if not isinstance(st, int) or st >= 500
                ),
            }
        )
    return rows


def _double_computed(store: "ResultStore") -> int:
    """Cells stored more than once (lease-expiry recomputes)."""
    counts: dict[str, int] = {}
    for _, records, _ in store.scan_shards():
        for record in records:
            counts[record["hash"]] = counts.get(record["hash"], 0) + 1
    return sum(1 for c in counts.values() if c > 1)


def build_report(
    store: "ResultStore",
    specs: Sequence["SweepSpec"] | None = None,
    *,
    now: float | None = None,
) -> StragglerReport:
    """Build the straggler report for a store (optionally one sweep's cells).

    Parameters
    ----------
    store : ResultStore
        The store to report on: its cells, ledger and event health.
    specs : sequence of SweepSpec, optional
        Restrict to these sweeps' cells; default is every stored cell.
    now : float, optional
        Clock override for lease-expiry classification (tests).

    Returns
    -------
    StragglerReport
        Ready to :meth:`~StragglerReport.render`.
    """
    now = time.time() if now is None else now
    frame = _sweep_frame(store, specs)
    report = StragglerReport()

    for row in frame.sort_by("wall_time_s").rows[::-1]:
        cell: dict[str, Any] = {
            "cell": (row.get("hash") or "")[:12],
            "process": row.get("process"),
            "graph_kind": row.get("graph_kind"),
            "engine": row.get("engine"),
            "worker": row.get("worker"),
            "wall_s": _round(row.get("wall_time_s") or 0.0),
        }
        for name, value in row.items():
            if name.startswith("t_") and name.endswith("_s"):
                cell[name] = _round(value)
        report.cells.append(cell)

    for key, sub in frame.groupby("process", "graph_kind", "engine"):
        walls = np.asarray(
            [w for w in sub.column("wall_time_s") if w is not None],
            dtype=np.float64,
        )
        if walls.size == 0:
            continue
        slowest = max(
            sub.rows, key=lambda r: r.get("wall_time_s") or 0.0
        )
        process, graph_kind, engine = key
        report.groups.append(
            {
                "process": process,
                "graph_kind": graph_kind,
                "engine": engine,
                "cells": len(sub),
                "p50_s": _round(float(np.percentile(walls, 50))),
                "p95_s": _round(float(np.percentile(walls, 95))),
                "max_s": _round(float(walls.max())),
                "max_cell": (slowest.get("hash") or "")[:12],
                "max_worker": slowest.get("worker"),
            }
        )

    for worker, sub in frame.groupby("worker"):
        walls = [w or 0.0 for w in sub.column("wall_time_s")]
        slowest = max(sub.rows, key=lambda r: r.get("wall_time_s") or 0.0)
        report.workers.append(
            {
                "worker": worker,
                "cells": len(sub),
                "total_s": _round(float(sum(walls))),
                "mean_s": _round(float(np.mean(walls)) if walls else 0.0),
                "max_s": _round(float(max(walls)) if walls else 0.0),
                "slowest_cell": (slowest.get("hash") or "")[:12],
            }
        )
    report.workers.sort(key=lambda r: -r["total_s"])

    report.ledger = _ledger_stats(store.backend, now=now)
    if report.ledger:
        report.ledger["double_computed"] = _double_computed(store)
    from .events import EventLog

    log = EventLog(store.backend)
    records, torn = log._scan()
    report.events = {"records": len(records), "torn": torn}
    report.service = _service_rows(records)
    return report


def render_top(
    store: "ResultStore",
    specs: Sequence["SweepSpec"],
    *,
    now: float | None = None,
    tail: int = 8,
) -> str:
    """One ``sweep top`` screen: progress, leases, fresh events, stragglers.

    Parameters
    ----------
    store : ResultStore
        The (possibly still-draining) store.
    specs : sequence of SweepSpec
        The sweeps being drained (progress is counted against their
        expansions).
    now : float, optional
        Clock override (tests).
    tail : int
        How many of the freshest events to show.

    Returns
    -------
    str
        The rendered snapshot.
    """
    from ..store.dispatch import ClaimLedger

    now = time.time() if now is None else now
    store.refresh()
    lines = []
    total = done = 0
    for spec in specs:
        cells = spec.expand()
        stored = sum(1 for key in cells if store.has(key))
        total += len(cells)
        done += stored
        lines.append(f"  {spec.name:28s} {stored}/{len(cells)} cells")
    header = f"sweep top — {done}/{total} cells stored"
    lines.insert(0, header)

    ledger = ClaimLedger(store.backend)
    live = [
        lease for lease in ledger.leases().values() if not lease.expired(now)
    ]
    lines.append(f"live leases: {len(live)}")
    for lease in sorted(live, key=lambda ls: ls.expires_unix):
        lines.append(
            f"  {lease.hash[:12]}  {lease.owner}"
            + (f"  lease={lease.lease_id}" if lease.lease_id else "")
            + f"  expires in {max(0.0, lease.expires_unix - now):.0f}s"
        )
    from .events import EventLog

    events = EventLog(store.backend).records()
    phases = [e for e in events if e.get("kind") == "phase"]
    if phases:
        lines.append(f"recent events ({len(phases)} phase records):")
        for event in phases[-tail:]:
            lines.append(
                f"  {event.get('worker', '?'):24s} "
                f"{str(event.get('cell', ''))[:12]:12s} "
                f"{event.get('name', '?'):12s} {event.get('dur_s', 0.0):.4f}s"
            )

    frame = _sweep_frame(store, specs)
    slowest = frame.sort_by("wall_time_s").rows[::-1][:5]
    if slowest:
        lines.append("slowest cells so far:")
        for row in slowest:
            lines.append(
                f"  {(row.get('hash') or '')[:12]:12s} "
                f"{row.get('process', '?'):10s} "
                f"{row.get('worker') or '-':24s} "
                f"{(row.get('wall_time_s') or 0.0):.4f}s"
            )
    return "\n".join(lines)


def live_top(
    store: "ResultStore",
    specs: Sequence["SweepSpec"],
    *,
    interval: float = 2.0,
    iterations: int | None = None,
    out: Callable[[str], None] = print,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Poll :func:`render_top` while workers drain (the ``sweep top`` verb).

    Parameters
    ----------
    store : ResultStore
        The store being drained.
    specs : sequence of SweepSpec
        The sweeps to watch.
    interval : float
        Seconds between polls.
    iterations : int, optional
        Stop after this many screens (``--once`` passes 1); default
        polls until every cell is stored.
    out : callable
        Screen sink (injectable for tests; default ``print``).
    sleep : callable
        Sleeper between polls (injectable for tests).

    Returns
    -------
    int
        0 once the watched sweeps are fully stored (or the iteration
        budget ran out).
    """
    shown = 0
    while True:
        out(render_top(store, specs))
        shown += 1
        store.refresh()
        complete = all(
            store.has(key) for spec in specs for key in spec.expand()
        )
        if complete or (iterations is not None and shown >= iterations):
            return 0
        sleep(interval)
