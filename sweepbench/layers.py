"""Per-layer attribution from outside the program.

The traced run patches public entry points of each layer with timing
wrappers for its duration and restores them afterwards; nothing under
``src/`` carries benchmark code.  Spans live in memory (one list each)
and are written out once the run ends.

Layers and the calls that mark their boundaries:

=========  ==========================================================
spec       ``SweepSpec.expand``
graphs     ``RunKey.build_graph``
sim        ``run_batch`` as ``repro.store.campaign`` sees it
campaign   ``run_cell`` (in ``store.campaign`` and ``store.dispatch``)
store      ``ResultStore.put`` / ``get`` / ``frame``
backend    a timing proxy passed as ``ResultStore(backend=...)``
dispatch   ``ClaimLedger.try_claim`` / ``release``
service    ``SweepService.handle``
=========  ==========================================================

A span's self time is its duration minus the durations of its direct
children, so layer self times add up without double counting.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import time
from collections import defaultdict
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from typing import Any

#: layers whose self time is the store write/read path
STORAGE_LAYERS = ("store", "backend", "dispatch")

SIM_PROCESSES = ("cobra", "simple", "push")

#: request kinds of the ``serve_reads`` mix, one latency metric each
ROUTES = ("cell", "cell_304", "frame", "frame_group", "frame_304")


class Recorder:
    """In-memory span recorder with a parent stack.

    A span is ``[id, parent, name, start, end, attrs]``; ``counters``
    hold cheap per-call tallies that need no span.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Record one span around the block; yields its mutable attrs."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, parent, name, time.perf_counter(), None, attrs]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        annotate: Callable[[Any, tuple, dict], dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        """*fn* with a span around every call (plus attrs from *annotate*)."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                if annotate is not None:
                    attrs.update(annotate(out, args, kwargs))
                return out

        return wrapper

    def count(self, name: str, fn: Callable[..., Any],
              amount: Callable[[Any], float] | None = None) -> Callable[..., Any]:
        """*fn* adding one (or ``amount(result)``) to a counter per call."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            out = fn(*args, **kwargs)
            self.counters[name] += 1 if amount is None else amount(out)
            return out

        return wrapper

    def write(self, path: str, header: dict[str, Any]) -> None:
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True, default=str) + "\n")
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": start, "end": end, **attrs},
                    sort_keys=True, default=str,
                ) + "\n")


class TimingBackend:
    """A :class:`~repro.store.backend.StorageBackend` proxy that records spans.

    Passed as ``ResultStore(backend=TimingBackend(LocalBackend(dir), rec))``
    so every blob operation of the store, the claim ledger and the
    service shows up as a ``backend.*`` span with its key and bytes.
    """

    def __init__(self, inner: Any, recorder: Recorder) -> None:
        self.inner = inner
        self.rec = recorder

    def read_blob(self, key: str) -> tuple[bytes, str] | None:
        with self.rec.span("backend.read_blob", key=key) as attrs:
            blob = self.inner.read_blob(key)
            attrs["bytes"] = 0 if blob is None else len(blob[0])
            return blob

    def append_line(self, key: str, line: str) -> None:
        with self.rec.span("backend.append_line", key=key, bytes=len(line) + 1):
            self.inner.append_line(key, line)

    def list_prefix(self, prefix: str) -> list[str]:
        with self.rec.span("backend.list_prefix", key=prefix):
            return self.inner.list_prefix(prefix)

    def compare_and_swap(self, key: str, data: bytes, etag: str | None) -> str | None:
        with self.rec.span("backend.cas", key=key, bytes=len(data)) as attrs:
            new_etag = self.inner.compare_and_swap(key, data, etag)
            attrs["conflict"] = new_etag is None
            return new_etag


def _run_batch_attrs(out: Any, args: tuple, kwargs: dict) -> dict[str, Any]:
    """Process name and exact trial-step count of one ``run_batch`` call."""
    from repro.sim.facade import run_batch
    from repro.sim.processes import get_process

    call = inspect.signature(run_batch).bind(*args, **kwargs)
    call.apply_defaults()
    process = call.arguments["process"]
    spec = get_process(process) if isinstance(process, str) else process
    budget = call.arguments["max_steps"]
    if budget is None:
        budget = spec.default_budget(call.arguments["graph"], call.arguments["params"])
    steps = sum(budget if math.isnan(v) else v for v in out.values)
    return {"process": spec.name, "trial_steps": int(steps)}


@contextmanager
def instrument(rec: Recorder) -> Iterator[Recorder]:
    """Patch every layer boundary with *rec*'s wrappers; restore on exit."""
    import repro.store.campaign as campaign_mod
    import repro.store.dispatch as dispatch_mod
    import repro.store.service as service_mod
    import repro.store.spec as spec_mod
    import repro.store.store as store_mod

    patches = [
        (spec_mod.SweepSpec, "expand",
         rec.wrap("spec.expand", spec_mod.SweepSpec.expand,
                  lambda out, a, k: {"cells": len(out)})),
        (spec_mod.RunKey, "build_graph",
         rec.wrap("graphs.build_graph", spec_mod.RunKey.build_graph)),
        (campaign_mod, "run_batch",
         rec.wrap("sim.run_batch", campaign_mod.run_batch, _run_batch_attrs)),
        (campaign_mod, "run_cell",
         rec.wrap("campaign.run_cell", campaign_mod.run_cell)),
        (dispatch_mod, "run_cell",
         rec.wrap("campaign.run_cell", dispatch_mod.run_cell)),
        (store_mod.ResultStore, "put",
         rec.wrap("store.put", store_mod.ResultStore.put)),
        (store_mod.ResultStore, "get",
         rec.wrap("store.get", store_mod.ResultStore.get)),
        (store_mod.ResultStore, "frame",
         rec.wrap("store.frame", store_mod.ResultStore.frame,
                  lambda out, a, k: {"rows": len(out)})),
        (store_mod, "record_row",
         rec.count("store.rows_flattened", store_mod.record_row)),
        (store_mod.Frame, "to_json",
         rec.count("service.bytes_serialised", store_mod.Frame.to_json, len)),
        (dispatch_mod.ClaimLedger, "try_claim",
         rec.wrap("dispatch.try_claim", dispatch_mod.ClaimLedger.try_claim,
                  lambda out, a, k: {"won": len(out)})),
        (dispatch_mod.ClaimLedger, "release",
         rec.wrap("dispatch.release", dispatch_mod.ClaimLedger.release)),
        (service_mod.SweepService, "handle",
         rec.wrap("service.handle", service_mod.SweepService.handle)),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield rec
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# reduction to per-layer metrics
# ----------------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarise(
    rec: Recorder,
    *,
    iterations: int,
    traced_wall_s: float,
    request_kinds: Sequence[str] = (),
) -> dict[str, float]:
    """Per-layer metrics from *rec*'s spans, per traced iteration.

    Parameters
    ----------
    rec : Recorder
        Spans of *iterations* traced units of work.
    iterations : int
        How many units of work the spans cover (totals are divided by
        it, so counts are exact per unit).
    traced_wall_s : float
        Summed wall time of the traced units (the ``share`` base).
    request_kinds : sequence of str
        The request kind of each ``service.handle`` span, in order.
    """
    per = max(iterations, 1)
    dur: dict[str, list[float]] = defaultdict(list)
    child_s = [0.0] * len(rec.spans)
    for sid, parent, name, start, end, attrs in rec.spans:
        d = end - start
        dur[name].append(d)
        if parent is not None:
            child_s[parent] += d
    self_by_layer: dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end, attrs in rec.spans:
        self_by_layer[name.split(".", 1)[0]] += (end - start) - child_s[sid]

    def spans_named(name: str) -> list[list[Any]]:
        return [s for s in rec.spans if s[2] == name]

    m: dict[str, float] = {}
    expands = spans_named("spec.expand")
    m["spec.expand_s"] = sum(dur["spec.expand"]) / per
    m["spec.cells"] = sum(s[5]["cells"] for s in expands) / per
    m["graphs.build_s"] = sum(dur["graphs.build_graph"]) / per
    m["graphs.builds"] = len(dur["graphs.build_graph"]) / per

    batches = spans_named("sim.run_batch")
    sim_s = sum(dur["sim.run_batch"])
    steps = sum(s[5]["trial_steps"] for s in batches)
    m["sim.run_batch_s"] = sim_s / per
    m["sim.calls"] = len(batches) / per
    m["sim.share"] = sim_s / traced_wall_s if traced_wall_s > 0 else 0.0
    m["sim.trial_steps"] = steps / per
    m["sim.trial_steps_per_s"] = steps / traced_wall_s if traced_wall_s > 0 else 0.0
    for process in SIM_PROCESSES:
        mine = [s for s in batches if s[5]["process"] == process]
        p_steps = sum(s[5]["trial_steps"] for s in mine)
        p_s = sum(s[4] - s[3] for s in mine)
        m[f"sim.{process}.ns_per_trial_step"] = 1e9 * p_s / p_steps if p_steps else 0.0

    cells = spans_named("campaign.run_cell")
    cell_self = sum((s[4] - s[3]) - child_s[s[0]] for s in cells)
    m["campaign.run_cell_self_ms"] = 1e3 * cell_self / len(cells) if cells else 0.0

    m["store.put_ms.p50"] = 1e3 * _median(dur["store.put"])
    m["store.put_calls"] = len(dur["store.put"]) / per
    m["store.get_calls"] = len(dur["store.get"]) / per
    m["store.get_s"] = sum(dur["store.get"]) / per
    frames = spans_named("store.frame")
    m["store.frame_ms.p50"] = 1e3 * _median(dur["store.frame"])
    m["store.frame_rows"] = sum(s[5]["rows"] for s in frames) / per

    for op, name in (("read_blob", "backend.read_blob"),
                     ("append_line", "backend.append_line"),
                     ("cas", "backend.cas")):
        m[f"backend.{op}_calls"] = len(dur[name]) / per
        m[f"backend.{op}_s"] = sum(dur[name]) / per
    reads = spans_named("backend.read_blob")
    m["backend.read_blob_bytes"] = sum(s[5]["bytes"] for s in reads) / per
    m["backend.cas_conflicts"] = sum(
        1 for s in spans_named("backend.cas") if s[5]["conflict"]) / per

    claims = spans_named("dispatch.try_claim")
    claim_ms = [1e3 * (s[4] - s[3]) for s in claims]
    m["dispatch.try_claim_ms.p50"] = _median(claim_ms)
    m["dispatch.try_claim_ms.p95"] = quantile(claim_ms, 0.95)
    m["dispatch.claims"] = len(claims) / per
    claim_ids = {s[0] for s in claims}
    m["dispatch.ledger_bytes_read"] = sum(
        s[5]["bytes"] for s in reads if s[1] in claim_ids) / per
    m["dispatch.claim_win_ratio"] = (
        sum(1 for s in claims if s[5]["won"]) / len(claims) if claims else 0.0)

    m["storage.share"] = (
        sum(self_by_layer[layer] for layer in STORAGE_LAYERS) / traced_wall_s
        if traced_wall_s > 0 else 0.0)

    handles = spans_named("service.handle")
    by_kind: dict[str, list[float]] = defaultdict(list)
    for span, kind in zip(handles, request_kinds):
        by_kind[kind].append(1e3 * (span[4] - span[3]))
    for kind in ROUTES:
        m[f"service.{kind}_ms.p50"] = _median(by_kind[kind])
    frame_requests = sum(
        1 for kind in request_kinds if kind.startswith("frame"))
    m["service.frame_rows_scanned"] = (
        rec.counters["store.rows_flattened"] / frame_requests
        if frame_requests else 0.0)
    m["service.frame_bytes_hashed"] = (
        rec.counters["service.bytes_serialised"] / frame_requests
        if frame_requests else 0.0)
    return m
