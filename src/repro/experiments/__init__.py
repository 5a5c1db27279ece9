"""Per-claim reproduction experiments (``cobra-experiments list`` prints
the index; see README.md and docs/architecture.md)."""

from .registry import Experiment, ExperimentResult, all_experiments, get, register

__all__ = ["Experiment", "ExperimentResult", "all_experiments", "get", "register"]
