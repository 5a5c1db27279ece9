"""Baseline stochastic processes the paper compares against."""

from .branching import BranchingRunResult, BranchingWalk
from .coalescing import CoalescingWalks, coalescing_start_positions
from .gossip import GossipSpread
from .parallel import ParallelWalks
from .simple import (
    RandomWalk,
    rw_cover_trials,
    rw_exact_hitting_times,
    rw_hitting_trials,
)

__all__ = [
    "BranchingRunResult",
    "BranchingWalk",
    "CoalescingWalks",
    "coalescing_start_positions",
    "GossipSpread",
    "ParallelWalks",
    "RandomWalk",
    "rw_cover_trials",
    "rw_exact_hitting_times",
    "rw_hitting_trials",
]
