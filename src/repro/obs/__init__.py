"""repro.obs — structured telemetry for campaigns, workers, and engines.

The observability layer of the sweep stack (see
``docs/observability.md``):

* :mod:`repro.obs.trace` — :class:`Tracer`/:class:`NullTracer`: nested
  spans (``campaign → cell → phase``) and counters with an injected
  monotonic clock, so instrumentation never perturbs the determinism
  contracts (RPL103/RPL150);
* :mod:`repro.obs.events` — the flock-safe ``events.jsonl`` log beside
  the shards, loadable back into a store :class:`Frame`;
* :mod:`repro.obs.report` — straggler reports (``sweep report``) and
  the live drain monitor (``sweep top``);
* :mod:`repro.obs.memory` — the peak-RSS probe behind ``sweep run
  --profile``.

Tracing is strictly opt-in: the process-wide default is
:data:`NULL_TRACER`, whose spans and counters are free, so engine hot
paths stay allocation-free and seed-for-seed identical when nobody is
watching.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, (
    (".trace", (
        "Span",
        "Tracer",
        "NullTracer",
        "NULL_TRACER",
        "current_tracer",
        "activate",
        "default_worker_id",
    )),
    (".events", ("EVENTS_FILE", "EventLog", "load_events", "tracer_for_store")),
    (".report", ("StragglerReport", "build_report", "render_top", "live_top")),
    (".memory", ("peak_rss_mb",)),
))
