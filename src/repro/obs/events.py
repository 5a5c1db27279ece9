"""Append-only telemetry events beside the shards: ``events.jsonl``.

One blob per store, written through the store's
:class:`~repro.store.backend.StorageBackend` seam (the flock appender
on a shared filesystem, a conditional-put retry loop on an object
store), so any number of dispatch workers emit events concurrently
with the same whole-line guarantee the shards enjoy: readers may see a
torn tail after a crash, never interleaved bytes.  Each line is one
flat JSON event — a finished span as emitted by
:meth:`repro.obs.trace.Tracer._emit`::

    {"kind": "phase", "name": "engine", "seq": 7, "dur_s": 0.0123,
     "t_wall": 1754550000.0, "worker": "host-4242", "lease": "9f3a01c2",
     "cell": "3fa9c1d2e0b7", "sweep": "DEMO_grid2x2",
     "c_engine_steps": 118, "c_rng_draws": 4804, "c_frontier_peak": 61}

Events load back into the same :class:`~repro.store.store.Frame` the
result store serves, so telemetry is queried with the exact vocabulary
results are: ``load_events(path).filter(kind="phase",
name="engine").column("dur_s")``.
"""

from __future__ import annotations

import json
from pathlib import Path
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, Any

from .trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..store.backend import StorageBackend
    from ..store.store import Frame

__all__ = ["EVENTS_FILE", "EventLog", "load_events", "tracer_for_store"]

#: events file name, beside ``claims.jsonl`` and ``shards/``
EVENTS_FILE = "events.jsonl"


def _event(line: str) -> dict[str, Any]:
    """One event line; ``ValueError`` when torn or not a JSON object."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("event line is not a JSON object")
    return record


class EventLog:
    """The append-only event log of one store.

    Parameters
    ----------
    store : str, Path, or StorageBackend
        The store directory (events land in ``root/events.jsonl``) or
        the backend the log persists through.
    """

    def __init__(self, store: "str | Path | StorageBackend") -> None:
        # function-level import: repro.obs must stay importable from
        # inside repro.sim/repro.store module bodies (cycle guard)
        from ..store.backend import resolve_backend

        self.backend = resolve_backend(store)

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one event through the backend's merge-safe appender.

        Parameters
        ----------
        record : Mapping
            A flat JSON-safe event (one finished span).
        """
        self.backend.append_line(
            EVENTS_FILE, json.dumps(dict(record), sort_keys=True)
        )

    def records(self) -> list[dict[str, Any]]:
        """All parseable events, in append order (torn lines skipped).

        Returns
        -------
        list of dict
            The event records.
        """
        records, _ = self._scan()
        return records

    def torn_lines(self) -> int:
        """Count of unparseable (torn) lines in the file.

        Returns
        -------
        int
            0 for a healthy log — what ``sweep fsck`` reports.
        """
        _, torn = self._scan()
        return torn

    def frame(self) -> "Frame":
        """The events as a store :class:`~repro.store.store.Frame`.

        Returns
        -------
        Frame
            One row per event, queryable exactly like results
            (``filter``/``groupby``/``column``/``to_table``).
        """
        from ..store.store import Frame

        return Frame(self.records())

    def _scan(self) -> tuple[list[dict[str, Any]], int]:
        from ..store.store import scan_lines

        blob = self.backend.read_blob(EVENTS_FILE)
        return ([], 0) if blob is None else scan_lines(blob[0], _event)


def load_events(root: "str | Path | StorageBackend") -> "Frame":
    """Load a store's events as a Frame (torn lines skipped).

    Parameters
    ----------
    root : str, Path, or StorageBackend
        The store directory (or backend) holding ``events.jsonl``.

    Returns
    -------
    Frame
        One row per parseable event; empty when the file is absent.
    """
    return EventLog(root).frame()


def tracer_for_store(
    root: "str | Path | StorageBackend",
    *,
    worker: str | None = None,
    lease: str | None = None,
    clock: Callable[[], float] | None = None,
    walltime: Callable[[], float] | None = None,
) -> Tracer:
    """A :class:`~repro.obs.trace.Tracer` emitting into a store's event log.

    The factory the CLI's ``--trace`` flag and the dispatch pool
    workers use: every finished span becomes one locked
    ``events.jsonl`` append, attributed to *worker* (and, for dispatch
    workers, the lease the tracer carries at emission time).

    Parameters
    ----------
    root : str, Path, or StorageBackend
        The store directory (or backend) to write events beside.
    worker : str, optional
        Worker id stamped on every event (default
        :func:`repro.obs.trace.default_worker_id`).
    lease : str, optional
        Initial lease id (dispatch workers update ``tracer.lease`` per
        claim).
    clock, walltime : callable, optional
        Clock injection, forwarded to :class:`~repro.obs.trace.Tracer`.

    Returns
    -------
    Tracer
        Ready to pass as ``Campaign(tracer=...)`` / ``drain(tracer=...)``.
    """
    log = EventLog(root)
    return Tracer(
        sink=log.append, worker=worker, lease=lease, clock=clock, walltime=walltime
    )
