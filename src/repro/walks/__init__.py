"""Baseline stochastic processes the paper compares against."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, (
    (".branching", ("BranchingWalk",)),
    (".coalescing", ("CoalescingWalks", "coalescing_start_positions")),
    (".gossip", ("GossipSpread",)),
    (".parallel", ("ParallelWalks",)),
    (".simple", (
        "RandomWalk",
        "rw_exact_hitting_times",
        "rw_trials",
    )),
))
