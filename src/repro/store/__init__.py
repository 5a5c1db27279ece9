"""Declarative sweep campaigns over a content-addressed result store.

The layer above :mod:`repro.sim`: declare a sweep once
(:class:`SweepSpec`), run it through a :class:`Campaign` against a
:class:`ResultStore`, and query the accumulated results as a
:class:`Frame`.  Identical simulation work is computed exactly once —
re-running a completed sweep is pure cache hits, and an interrupted
campaign resumes seed-for-seed.  Any number of worker processes can
drain one shared store concurrently through the lease/claim
dispatcher (:mod:`repro.store.dispatch`; ``Campaign(workers=N)`` or
the ``sweep work`` CLI), with ``fsck``/``compact`` for store hygiene.
See ``docs/sweeps.md``.

>>> from repro.store import Campaign, ResultStore, SweepSpec
>>> spec = SweepSpec(
...     name="demo", process="cobra", graph="grid",
...     graph_grid={"n": [8, 16], "d": [2]}, trials=4,
... )
>>> store = ResultStore("results")          # doctest: +SKIP
>>> Campaign(spec, store).run()             # doctest: +SKIP
>>> store.frame(process="cobra").column("mean")  # doctest: +SKIP
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, (
    (".spec", (
        "STORE_SCHEMA_VERSION",
        "SweepSpec",
        "SeedPolicy",
        "RunKey",
        "canonical_json",
    )),
    (".store", ("ResultStore", "Frame", "FRAME_SCHEMA", "record_row", "parse_record")),
    (".backend", (
        "StorageBackend",
        "BackendError",
        "LocalBackend",
        "CASBackend",
        "InMemoryCASBackend",
        "HTTPCASBackend",
        "resolve_backend",
    )),
    (".dispatch", ("declare_sweep", "declared_sweeps")),
    (".campaign", ("Campaign", "CampaignReport", "CampaignStatus", "run_cell")),
    (".dispatch", (
        "ClaimLedger",
        "Lease",
        "WorkerReport",
        "drain",
        "FsckReport",
        "fsck",
        "CompactReport",
        "compact",
    )),
    (".sweeps", ("register_sweep", "build_sweep", "sweep_names")),
))
