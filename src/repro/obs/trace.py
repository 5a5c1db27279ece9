"""Deterministic, injectable tracing: nested spans + counters.

The telemetry layer's core type is :class:`Tracer`: a span stack with
an **injected monotonic clock**.  Nothing in this module draws
randomness or feeds timestamps into keyed computation — spans measure,
they never steer — which is what keeps the RPL103/RPL150 determinism
lints honest: engine and store code reads clocks *only* through a
tracer (``tracer.clock()`` / ``tracer.walltime()``), so tests can
inject a fake clock and the lint can ban raw ``time.*`` calls in
``repro/sim`` and ``repro/store`` outright.

The span model (see ``docs/observability.md``)::

    campaign                    one Campaign.run / drain loop
      cell                      one run_cell call
        build_graph             graph construction (cache misses pay here)
        lower                   target resolution + execution-path selection
        engine                  the run_batch call (wall_time_s provenance)
        record                  the locked store append

Counters attach to the innermost open span (``tracer.count`` adds,
``tracer.gauge`` keeps the max) — the batched engines report
``engine_steps`` / ``trial_steps`` / ``rng_draws`` / ``frontier_peak``
this way, guarded by ``tracer.enabled`` so the hot loops stay
allocation-free when nobody is watching.

:data:`NULL_TRACER` (a :class:`NullTracer`) is the default everywhere:
spans are a reusable no-op context manager, counters are ``pass``, and
— crucially — the clock attributes are still real, so provenance wall
times are recorded whether or not tracing is on.  Engines discover the
ambient tracer through :func:`current_tracer`, installed for the
duration of a cell by :func:`activate`.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator
from typing import Any

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "activate",
    "default_worker_id",
]


def default_worker_id() -> str:
    """A stable per-process worker id for event attribution.

    Returns
    -------
    str
        ``host-pid`` — coarser than the dispatch layer's
        :func:`repro.store.dispatch.default_owner` (no random suffix),
        because a tracer wants one id per process, not per drain call.
    """
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class Span:
    """One timed region: name, kind, clock bounds, attributes, counters.

    Attributes
    ----------
    name : str
        The span's label (``"cell"``, ``"engine"``, ...).
    kind : str
        Span class — ``"campaign"``, ``"cell"``, or ``"phase"``.
    t0 : float
        Monotonic-clock reading at entry.
    t1 : float or None
        Monotonic-clock reading at exit (``None`` while open).
    attrs : dict
        JSON-safe attribution (cell hash prefix, sweep name, ...).
    counters : dict
        Counters accumulated while this span was innermost.
    """

    name: str
    kind: str = "phase"
    t0: float = 0.0
    t1: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def dur_s(self) -> float:
        """Span duration in seconds (0.0 while the span is open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0


class _SpanStack(threading.local):
    """The open spans of one thread, innermost last."""

    def __init__(self) -> None:
        self.spans: list[Span] = []


class Tracer:
    """Per-thread span stacks with injected clocks and an optional event sink.

    Each thread that opens spans on a tracer gets its own stack, so the
    handler threads of ``sweep serve --trace`` share one tracer while
    counters and annotations land on the calling thread's own span.

    Parameters
    ----------
    clock : callable, optional
        Monotonic clock for durations (default
        ``time.perf_counter``).  Inject a fake in tests for
        deterministic span math.
    walltime : callable, optional
        Wall clock for event/provenance timestamps (default
        ``time.time``).  Timestamps are provenance-only — never keyed.
    sink : callable, optional
        ``sink(record)`` called with one flat JSON-safe dict per
        finished span (what :func:`repro.obs.events.tracer_for_store`
        wires to the ``events.jsonl`` appender).  ``None`` keeps the
        finished spans in :attr:`spans` instead; a tracer with a sink
        holds none, so a long-lived one does not grow.
    worker : str, optional
        Worker id stamped on every emitted record (default
        :func:`default_worker_id`).
    lease : str, optional
        Lease id stamped on emitted records; the dispatch worker
        mutates :attr:`lease` per claim so every event attributes to
        the lease under which it ran.
    """

    enabled: bool = True

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        walltime: Callable[[], float] | None = None,
        sink: Callable[[dict[str, Any]], None] | None = None,
        worker: str | None = None,
        lease: str | None = None,
    ) -> None:
        self.clock: Callable[[], float] = (
            clock if clock is not None else time.perf_counter
        )
        self.walltime: Callable[[], float] = (
            walltime if walltime is not None else time.time
        )
        self.sink = sink
        self.worker = worker if worker is not None else default_worker_id()
        self.lease = lease
        self.spans: list[Span] = []
        self._local = _SpanStack()
        self._seq = 0

    # -- spans ----------------------------------------------------------
    @contextmanager
    def _span_cm(self, span: Span) -> Iterator[Span]:
        stack = self._local.spans
        stack.append(span)
        try:
            yield span
        finally:
            span.t1 = self.clock()
            stack.pop()
            if self.sink is None:
                self.spans.append(span)
            else:
                self._emit(span)

    def span(self, name: str, kind: str = "phase", **attrs: Any):
        """Open a span; a context manager closing it on exit.

        Parameters
        ----------
        name : str
            Span label (phase spans use the phase name).
        kind : str
            ``"campaign"``, ``"cell"``, or ``"phase"``.
        **attrs : Any
            JSON-safe attribution recorded on the span and emitted
            with its event record.

        Returns
        -------
        context manager
            Yields the open :class:`Span`.
        """
        return self._span_cm(
            Span(name=name, kind=kind, t0=self.clock(), attrs=dict(attrs))
        )

    # -- counters -------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Add *value* to counter *name* on the innermost open span.

        A no-op when no span is open (engines may run outside any
        cell), so instrumented code never has to care.
        """
        stack = self._local.spans
        if stack:
            counters = stack[-1].counters
            counters[name] = counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record the max of *value* seen for *name* on the open span."""
        stack = self._local.spans
        if stack:
            counters = stack[-1].counters
            counters[name] = max(counters.get(name, value), value)

    def annotate(self, **attrs: Any) -> None:
        """Merge *attrs* into the innermost open span's attributes."""
        stack = self._local.spans
        if stack:
            stack[-1].attrs.update(attrs)

    # -- emission -------------------------------------------------------
    def _emit(self, span: Span) -> None:
        assert self.sink is not None
        record: dict[str, Any] = {
            "kind": span.kind,
            "name": span.name,
            "seq": self._seq,
            "dur_s": round(span.dur_s, 6),
            "t_wall": round(self.walltime(), 3),
            "worker": self.worker,
        }
        if self.lease is not None:
            record["lease"] = self.lease
        record.update(span.attrs)
        for cname, cvalue in span.counters.items():
            record[f"c_{cname}"] = cvalue
        self._seq += 1
        self.sink(record)


class _NullSpan:
    """The reusable no-op span context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The default tracer: spans and counters are free, clocks are real.

    Every instrumentation site calls through a tracer unconditionally;
    with this one, ``span()`` returns a shared no-op context manager
    and ``count``/``gauge``/``annotate`` do nothing — no allocation,
    no sink, seed-for-seed identical hot paths.  The :attr:`clock` and
    :attr:`walltime` attributes stay functional so ``run_cell`` records
    ``wall_time_s``/``created_unix`` provenance with or without
    tracing.
    """

    enabled = False

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        walltime: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(clock=clock, walltime=walltime, worker="")

    def span(self, name: str, kind: str = "phase", **attrs: Any):
        """A shared no-op context manager (see class docstring)."""
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        """No-op."""

    def gauge(self, name: str, value: float) -> None:
        """No-op."""

    def annotate(self, **attrs: Any) -> None:
        """No-op."""


#: the process-wide default: measuring nothing, costing nothing
NULL_TRACER = NullTracer()

#: the ambient-tracer stack :func:`activate` pushes onto
_ACTIVE: list[Tracer] = []


def current_tracer() -> Tracer:
    """The innermost activated tracer, or :data:`NULL_TRACER`.

    Returns
    -------
    Tracer
        What instrumented engines report to.  Engine code reads this
        once per call and guards per-step work with
        ``tracer.enabled``.
    """
    return _ACTIVE[-1] if _ACTIVE else NULL_TRACER


@contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Install *tracer* as the ambient tracer for the block.

    Parameters
    ----------
    tracer : Tracer
        What :func:`current_tracer` returns inside the block.
        ``run_cell`` activates its tracer around the engine phase so
        the batched engines' counters land on the right span.

    Yields
    ------
    Tracer
        The activated tracer.
    """
    _ACTIVE.append(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.pop()
