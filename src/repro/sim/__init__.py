"""Simulation harness: RNG streams, the process registry, the
``simulate``/``run_batch`` facade, the batched engines, and the
Monte-Carlo trial summary."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, (
    (".processes", (
        "SteppingProcess",
        "CoverageLedger",
        "ProcessSpec",
        "register_process",
        "get_process",
        "all_processes",
        "process_names",
    )),
    (".facade", (
        "RunResult",
        "simulate",
        "run_batch",
    )),
    (".batch", (
        "batched_branching_cover_trials",
        "batched_coalescing_cover_trials",
        "batched_cobra_active_sizes",
        "batched_cobra_trials",
        "batched_gossip_trials",
        "batched_lazy_trials",
        "batched_parallel_walks_cover_trials",
        "batched_walt_positions_at",
        "batched_walt_trials",
    )),
    (".montecarlo", ("TrialSummary", "summarize_trials")),
    (".record", ("CoverageCurve", "coverage_curve", "time_to_cover_fraction")),
    (".rng", (
        "SeedLike",
        "resolve_rng",
        "resolve_seed_sequence",
        "spawn_rngs",
        "spawn_seeds",
    )),
))
