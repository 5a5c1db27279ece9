"""Declarative sweep campaigns: ``SweepSpec`` → deterministic ``RunKey`` cells.

A sweep is the paper's experimental unit — *process × graph family ×
size × parameters*, repeated over many trials — and this module makes
it a value: a :class:`SweepSpec` names the process, a graph builder
from :mod:`repro.graphs` with a grid of builder arguments, a grid of
process parameters, the metric, the trial count, and a
:class:`SeedPolicy`.  :meth:`SweepSpec.expand` turns the spec into the
deterministic cross-product list of :class:`RunKey` cells.

Every cell carries a **content hash**: the SHA-256 of its canonical
JSON payload (process, metric, graph builder + arguments, process
parameters, target rule, trials, budget, seed policy, store schema
version).  The hash is the address of the cell's result in
:class:`repro.store.ResultStore`, so identical simulation work —
within one campaign, across campaigns, across interrupted re-runs —
is computed exactly once.  Changing *anything* that affects the
result (trial count, seed policy, a parameter, the schema version)
changes the hash and therefore forces a recompute; renaming the sweep
does not.

Seeds are content-derived too: with the default ``content`` policy a
cell's RNG stream is a pure function of ``(root seed, cell payload)``
— independent of the cell's position in the grid and of every other
cell — which is what makes an interrupted campaign resume
**seed-for-seed identical** to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from ..graphs.base import Graph

if TYPE_CHECKING:
    from ..graphs.implicit import NeighborOracle

__all__ = [
    "STORE_SCHEMA_VERSION",
    "SeedPolicy",
    "RunKey",
    "SweepSpec",
    "canonical_json",
    "resolve_graph_builder",
]

#: bumping this invalidates every stored cell (it is hashed into keys)
STORE_SCHEMA_VERSION = 1

#: named target rules resolved against the built graph
_TARGET_RULES = ("last", "center", "farthest")

_SCALAR_TYPES = (bool, int, float, str, type(None))


def canonical_json(obj: Any) -> str:
    """Canonical (sorted-key, compact) JSON used for hashing payloads.

    Parameters
    ----------
    obj : Any
        A JSON-safe structure (scalars, lists, string-keyed dicts).

    Returns
    -------
    str
        Deterministic JSON text: the same payload always hashes the
        same.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _check_scalar_params(params: Mapping[str, Any], what: str) -> dict[str, Any]:
    """Validate a params mapping down to JSON-safe scalars."""
    out: dict[str, Any] = {}
    for name, value in params.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"{what} names must be non-empty strings")
        if isinstance(value, (np.integer,)):
            value = int(value)
        elif isinstance(value, (np.floating,)):
            value = float(value)
        if not isinstance(value, _SCALAR_TYPES):
            raise ValueError(
                f"{what} {name!r} must be a JSON-safe scalar "
                f"(int/float/str/bool/None), got {type(value).__name__}"
            )
        out[name] = value
    return out


def _normalise_graph_value(axis: str, value: Any) -> Any:
    """Validate one graph-grid value: a scalar, or a tuple of scalars.

    Graph builders legitimately take short lists (``circulant``'s
    offsets), so graph axes — unlike process parameters — may carry a
    sequence of scalars.  Sequences normalise to tuples (hashable, so
    ``RunKey`` stays a frozen value and graph caches can key on it)
    and serialise back to JSON lists in :meth:`RunKey.payload`.
    """
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            raise ValueError(f"graph_grid {axis!r} sequence value is empty")
        return tuple(
            _check_scalar_params({axis: item}, "graph_grid sequence item")[axis]
            for item in value
        )
    # scalar path: same validation (and numpy-scalar normalisation) as
    # process parameters
    return _check_scalar_params({axis: value}, "graph_grid")[axis]


def resolve_graph_builder(name: str) -> Callable[..., Graph | NeighborOracle]:
    """The :mod:`repro.graphs` constructor a sweep or a cell names.

    Parameters
    ----------
    name : str
        A graph builder name (``"grid"``, ``"hypercube_oracle"``, …).

    Returns
    -------
    callable
        ``repro.graphs.<name>``.

    Raises
    ------
    ValueError
        When *name* is not in :data:`repro.graphs.GRAPH_BUILDERS` (a
        builder that has since been deleted, or a helper such as
        ``diameter`` that does not build a graph).
    """
    import repro.graphs as graphs_mod

    if name not in graphs_mod.GRAPH_BUILDERS:
        raise ValueError(
            f"unknown graph builder {name!r} "
            "(must name a constructor in repro.graphs.GRAPH_BUILDERS)"
        )
    return getattr(graphs_mod, name)


@dataclass(frozen=True)
class SeedPolicy:
    """How per-cell RNG streams derive from the campaign root seed.

    Attributes
    ----------
    root : int
        The campaign's root seed.
    kind : str
        ``"content"`` (default): a cell's stream entropy is
        ``[root, H(cell payload)]`` — position-independent, so adding
        or removing grid values never shifts another cell's stream and
        resume is seed-for-seed exact.  ``"fixed"``: every cell uses
        ``root`` directly (all cells share one stream family — useful
        for common-random-number comparisons across cells).
    """

    root: int = 0
    kind: str = "content"

    def __post_init__(self) -> None:
        if self.kind not in ("content", "fixed"):
            raise ValueError(
                f"unknown seed policy kind {self.kind!r}; use 'content' or 'fixed'"
            )
        if not isinstance(self.root, int) or isinstance(self.root, bool):
            raise ValueError("seed policy root must be an int")

    def payload(self) -> dict[str, Any]:
        """JSON-safe form hashed into every cell key."""
        return {"root": self.root, "kind": self.kind}


@dataclass(frozen=True)
class RunKey:
    """One sweep cell: everything needed to (re)produce one summary.

    A ``RunKey`` is a pure value — hashing it, deriving its seed, and
    building its graph are all deterministic functions of its fields,
    which is the whole reproducibility story of the store.

    Attributes
    ----------
    process : str
        Registry name of the process (``repro.sim.processes``).
    metric : str
        Resolved metric (``cover``/``spread``/``hit``/``coalesce``/``min``).
    graph_builder : str
        Name of a graph constructor in :mod:`repro.graphs`.
    graph_params : tuple of (str, value) pairs
        Sorted builder keyword arguments; a value is a scalar or a
        tuple of scalars (e.g. ``circulant`` offsets), serialised as a
        JSON list.
    params : tuple of (str, scalar) pairs
        Sorted process parameters forwarded to ``run_batch``.
    target : int or str or None
        Hit/controller target: a vertex id or a named rule (``"last"``
        = ``n - 1``, ``"center"`` = ``n // 2``, ``"farthest"`` = the
        BFS-farthest vertex from 0) resolved against the built graph.
    trials : int
        Monte-Carlo trial count.
    max_steps : int or None
        Per-trial step budget (``None`` = the process default).
    seed_policy : SeedPolicy
        The campaign seed policy (hashed into the key).
    """

    process: str
    metric: str
    graph_builder: str
    graph_params: tuple[tuple[str, Any], ...]
    params: tuple[tuple[str, Any], ...] = ()
    target: int | str | None = None
    trials: int = 8
    max_steps: int | None = None
    seed_policy: SeedPolicy = field(default_factory=SeedPolicy)

    def payload(self) -> dict[str, Any]:
        """The canonical JSON-safe payload the content hash covers."""
        return {
            "schema": STORE_SCHEMA_VERSION,
            "process": self.process,
            "metric": self.metric,
            "graph": {
                "builder": self.graph_builder,
                # tuple values (sequence-valued builder args) serialise
                # as JSON lists
                "params": {
                    name: list(value) if isinstance(value, tuple) else value
                    for name, value in self.graph_params
                },
            },
            "params": dict(self.params),
            "target": self.target,
            "trials": self.trials,
            "max_steps": self.max_steps,
            "seed": self.seed_policy.payload(),
        }

    @cached_property
    def hash(self) -> str:
        """Hex SHA-256 of :meth:`payload` — the cell's store address."""
        return hashlib.sha256(canonical_json(self.payload()).encode()).hexdigest()

    def seed_entropy(self) -> list[int]:
        """Entropy ints for the cell's :class:`numpy.random.SeedSequence`."""
        policy = self.seed_policy
        if policy.kind == "fixed":
            return [policy.root]
        return [policy.root, int(self.hash[:32], 16)]

    def seed_sequence(self) -> np.random.SeedSequence:
        """The cell's root RNG stream (see :class:`SeedPolicy`)."""
        return np.random.SeedSequence(self.seed_entropy())

    def build_graph(self) -> Graph | NeighborOracle:
        """Construct the cell's graph from the named builder.

        Returns
        -------
        Graph or NeighborOracle
            ``repro.graphs.<graph_builder>(**graph_params)`` — a CSR
            graph, or an implicit :class:`NeighborOracle` when the
            builder is one of the ``*_oracle`` constructors.
        """
        builder = resolve_graph_builder(self.graph_builder)
        kwargs = {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in self.graph_params
        }
        return builder(**kwargs)

    def resolve_target(self, graph: Graph | NeighborOracle) -> int | None:
        """Resolve the declarative target against the built graph.

        Parameters
        ----------
        graph : Graph or NeighborOracle
            The graph returned by :meth:`build_graph`.

        Returns
        -------
        int or None
            A concrete vertex id, or ``None`` when the cell has no
            target.
        """
        if self.target is None:
            return None
        if isinstance(self.target, str):
            if self.target == "last":
                return graph.n - 1
            if self.target == "center":
                return graph.n // 2
            if self.target == "farthest":
                # the BFS-farthest vertex from the canonical start 0 —
                # the "far pair" the hitting-time experiments measure
                if not isinstance(graph, Graph):
                    raise ValueError(
                        "target rule 'farthest' runs a BFS over CSR edge "
                        "arrays, which an implicit oracle does not carry; "
                        "use an int target or 'last'/'center'"
                    )
                from ..graphs.checks import bfs_distances

                return int(np.argmax(bfs_distances(graph, 0)))
            raise ValueError(
                f"unknown target rule {self.target!r}; use an int or one of "
                f"{_TARGET_RULES}"
            )
        target = int(self.target)
        if not (0 <= target < graph.n):
            raise ValueError("target out of range for the built graph")
        return target


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: one process over a parameter grid.

    Attributes
    ----------
    name : str
        Campaign label (provenance only — **not** part of cell hashes,
        so two sweeps declaring the same cell share its result).
    process : str
        Registry name of the process to run.
    graph : str
        Graph builder name in :mod:`repro.graphs` (``"grid"``,
        ``"kary_tree"``, ``"random_regular"``, …).
    graph_grid : Mapping[str, Sequence]
        One axis per builder keyword: each value is the list of values
        to sweep — scalars, or short sequences of scalars for builders
        that take one (``circulant`` offsets).  The cross-product over
        all axes (sorted by axis name) is the sweep's graph ladder.
    params_grid : Mapping[str, Sequence]
        Same, for process parameters (``k``, ``delta``, ``walkers``…).
    metric : str or None
        Metric to drive; ``None`` uses the process default.
    target : int or str or None
        Target vertex or named rule (see :meth:`RunKey.resolve_target`).
    trials : int
        Trials per cell.
    max_steps : int or None
        Per-trial budget (``None`` = process default).
    seed : SeedPolicy
        Seed policy shared by all cells.
    """

    name: str
    process: str
    graph: str
    graph_grid: Mapping[str, Sequence[Any]]
    params_grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    metric: str | None = None
    target: int | str | None = None
    trials: int = 8
    max_steps: int | None = None
    seed: SeedPolicy = field(default_factory=SeedPolicy)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a sweep needs a name")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if isinstance(self.target, str) and self.target not in _TARGET_RULES:
            raise ValueError(
                f"unknown target rule {self.target!r}; use an int or one of "
                f"{_TARGET_RULES}"
            )
        for grid_name, grid in (
            ("graph_grid", self.graph_grid),
            ("params_grid", self.params_grid),
        ):
            for axis, values in grid.items():
                if isinstance(values, (str, bytes)) or not isinstance(
                    values, Sequence
                ):
                    raise ValueError(
                        f"{grid_name} axis {axis!r} must be a sequence of values"
                    )
                if len(values) == 0:
                    raise ValueError(f"{grid_name} axis {axis!r} is empty")
                for value in values:
                    if grid_name == "graph_grid":
                        _normalise_graph_value(axis, value)
                    else:
                        _check_scalar_params({axis: value}, grid_name)
        overlap = set(self.graph_grid) & set(self.params_grid)
        if overlap:
            # not ambiguous for execution (builders vs run_batch), but a
            # flattened result row could not tell the axes apart
            raise ValueError(
                f"axes {sorted(overlap)} appear in both graph_grid and "
                "params_grid; rename one"
            )

    def _resolved_metric(self) -> str:
        """The metric cells carry: explicit, or the process default
        (validated against the registry either way)."""
        from ..sim.facade import _resolve_metric
        from ..sim.processes import get_process

        return _resolve_metric(get_process(self.process), self.metric)

    def expand(self) -> list[RunKey]:
        """The deterministic cell list: the cross-product of all axes.

        Axes iterate sorted by name, graph axes before process axes,
        each axis in its declared value order — the same spec always
        expands to the same list in the same order.

        Cell parameters are **canonicalized against the registry**:
        the process's ``default_params`` merge underneath the declared
        axes, so a sweep that spells a default out explicitly (e.g.
        cobra's ``k=2``) and one that omits it produce the *same* cell
        hash — and changing a registry default invalidates old results
        instead of silently matching them.

        Returns
        -------
        list of RunKey
            One key per grid cell.
        """
        from ..sim.processes import get_process

        metric = self._resolved_metric()
        defaults = _check_scalar_params(
            dict(get_process(self.process).default_params), "default param"
        )
        g_axes = sorted(self.graph_grid)
        p_axes = sorted(self.params_grid)
        g_values = [list(self.graph_grid[a]) for a in g_axes]
        p_values = [list(self.params_grid[a]) for a in p_axes]
        keys = []
        for combo in itertools.product(*g_values, *p_values):
            g_combo = combo[: len(g_axes)]
            p_combo = combo[len(g_axes):]
            params = {**defaults, **dict(zip(p_axes, p_combo))}
            keys.append(
                RunKey(
                    process=self.process,
                    metric=metric,
                    graph_builder=self.graph,
                    graph_params=tuple(
                        (axis, _normalise_graph_value(axis, value))
                        for axis, value in zip(g_axes, g_combo)
                    ),
                    params=tuple(sorted(params.items())),
                    target=self.target,
                    trials=self.trials,
                    max_steps=self.max_steps,
                    seed_policy=self.seed,
                )
            )
        return keys
