"""Experiment registry.

Every reproduced paper claim is an :class:`Experiment`: a named runner
that measures the quantity the claim bounds and returns printable
tables plus machine-checkable findings.  The registry backs both the
CLI (``python -m repro.experiments``) and the benchmark suite (one
bench per experiment id).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING

from ..analysis.tables import Table

if TYPE_CHECKING:
    from ..store import Campaign

__all__ = ["Experiment", "ExperimentResult", "register", "get", "all_experiments", "run_campaigns"]


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    ``findings`` holds the scalar facts assertions are written against
    (fitted exponents, ratios, booleans-as-floats); ``tables`` are the
    rows a reader compares with the paper's claims; ``figures`` are
    pre-rendered ASCII plots (the paper has no figures — these are the
    figure-shaped views of the same sweeps); ``notes`` records caveats
    (substitutions, known paper subtleties).
    """

    experiment_id: str
    tables: list[Table]
    findings: dict[str, float]
    notes: str = ""
    figures: list[str] = field(default_factory=list)

    def render(self) -> str:
        parts = [f"### {self.experiment_id}"]
        for t in self.tables:
            parts.append(t.render())
            parts.append("")
        for fig in self.figures:
            parts.append(fig)
            parts.append("")
        if self.findings:
            parts.append("findings:")
            for k, v in sorted(self.findings.items()):
                parts.append(f"  {k} = {v:.6g}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)


@dataclass(frozen=True)
class Experiment:
    """A registered, runnable reproduction of one paper claim."""

    id: str
    claim: str
    runner: Callable[..., ExperimentResult]

    def run(self, *, scale: str = "quick", seed: int = 0) -> ExperimentResult:
        """Execute at ``quick`` (seconds; used by tests/benches) or
        ``full`` (the EXPERIMENTS.md configuration)."""
        if scale not in ("quick", "full"):
            raise ValueError(f"unknown scale {scale!r}; use 'quick' or 'full'")
        return self.runner(scale=scale, seed=seed)


_REGISTRY: dict[str, Experiment] = {}


def register(id: str, claim: str) -> Callable:
    """Decorator registering a runner function under an experiment id."""

    def deco(fn: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        if id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {id!r}")
        _REGISTRY[id] = Experiment(id=id, claim=claim, runner=fn)
        return fn

    return deco


def get(id: str) -> Experiment:
    """Look up an experiment, raising with the available ids on miss."""
    _load_all()
    try:
        return _REGISTRY[id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {id!r}; known: {known}") from None


def all_experiments() -> list[Experiment]:
    """All registered experiments, sorted by id."""
    _load_all()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def run_campaigns(experiment_id: str, *, scale: str, seed: int) -> dict[str, Campaign]:
    """Run every sweep spec of *experiment_id* through one ephemeral
    in-memory store.

    Returns the campaigns keyed by spec name, in expansion order (of
    specs sharing a name the last is kept); they share one ``store``.  The store is imported here rather than at
    module level so that importing the CLI stays off it.
    """
    from ..store import Campaign, ResultStore
    from ..store.sweeps import build_sweep

    store = ResultStore()
    campaigns = {}
    for spec in build_sweep(experiment_id, scale=scale, seed=seed):
        campaigns[spec.name] = campaign = Campaign(spec, store)
        campaign.run()
    return campaigns


def _load_all() -> None:
    """Import every exp_* module so its @register decorator runs."""
    from . import (  # noqa: F401
        exp_active_growth,
        exp_baselines,
        exp_biased,
        exp_conductance,
        exp_epochs,
        exp_expander,
        exp_general,
        exp_grid,
        exp_gridchain,
        exp_kcobra,
        exp_matthews,
        exp_regular,
        exp_star,
        exp_tensor,
        exp_trees,
        exp_walt,
    )
