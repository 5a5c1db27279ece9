"""The three sweep-pipeline workloads, generated from one integer seed.

* ``paper_sweep`` — the paper's three cover-time regimes for the 2-cobra
  walk (grid ladders for the O(n) theorem, random 8-regular expanders
  for the conductance theorem, lollipops and barbells for the
  general-graph bound, and the implicit ``hypercube_oracle`` path),
  each against a budgeted simple-walk baseline.
* ``cell_drain`` — 180 tiny cells (cobra k=2,3 and push on small grids
  and cycles, 2 trials each): the write path through spec, store,
  backend and dispatch.
* ``serve_reads`` — a fixed mix of ``/cell`` and ``/frame`` requests,
  with and without revalidation, against the ``cell_drain`` store.

The seed is the campaign root seed (every trial value changes with it)
and seeds the expander graphs and the request targets.  The amount of
work barely depends on it: simple-walk cells carry a step budget near
the 85th percentile of their cover time, so a 64-trial batch almost
surely runs exactly its budget, and the request mix has fixed counts
per kind.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Iterable, Sequence
from typing import Any

from repro.store.spec import RunKey, SeedPolicy, SweepSpec
from repro.store.store import ResultStore

#: simple-walk baselines: (builder, graph args, step budget ≈ p85 of
#: the cover time over 192 trials)
_SIMPLE_BASELINES: tuple[tuple[str, dict[str, Any], int], ...] = (
    ("grid", {"n": 32, "d": 1}, 1_500),
    ("grid", {"n": 64, "d": 1}, 6_800),
    ("grid", {"n": 96, "d": 1}, 15_600),
    ("grid", {"n": 128, "d": 1}, 27_600),
    ("grid", {"n": 8, "d": 2}, 1_300),
    ("grid", {"n": 12, "d": 2}, 3_500),
    ("grid", {"n": 16, "d": 2}, 6_400),
    ("grid", {"n": 20, "d": 2}, 10_600),
    ("random_regular", {"n": 128, "d": 8}, 930),
    ("random_regular", {"n": 256, "d": 8}, 2_150),
    ("random_regular", {"n": 512, "d": 8}, 5_000),
    ("lollipop", {"n": 16}, 1_000),
    ("lollipop", {"n": 20}, 2_150),
    ("lollipop", {"n": 24}, 3_400),
    ("lollipop", {"n": 28}, 6_000),
)


def _graph_seed(seed: int) -> int:
    """The expander-graph seed derived from the workload seed."""
    return seed * 7919 + 1


def paper_specs(seed: int, *, tiny: bool = False) -> list[SweepSpec]:
    """The ``paper_sweep`` campaign: 2-cobra cells and simple baselines."""
    policy = SeedPolicy(root=seed)
    gseed = _graph_seed(seed)
    if tiny:
        return [
            SweepSpec(name="paper_cobra_grid", process="cobra", graph="grid",
                      graph_grid={"n": [6], "d": [2]}, trials=4, seed=policy),
            SweepSpec(name="paper_cobra_cube", process="cobra",
                      graph="hypercube_oracle", graph_grid={"dim": [4]},
                      trials=4, seed=policy),
            SweepSpec(name="paper_simple_path", process="simple", graph="grid",
                      graph_grid={"n": [8], "d": [1]}, trials=4, seed=policy,
                      max_steps=200),
        ]
    specs = [
        SweepSpec(name="paper_cobra_grid2", process="cobra", graph="grid",
                  graph_grid={"n": [32, 64, 96], "d": [2]}, trials=32,
                  seed=policy),
        SweepSpec(name="paper_cobra_grid3", process="cobra", graph="grid",
                  graph_grid={"n": [8, 12, 16], "d": [3]}, trials=32,
                  seed=policy),
        SweepSpec(name="paper_cobra_expander", process="cobra",
                  graph="random_regular",
                  graph_grid={"n": [1024, 2048, 4096], "d": [8],
                              "seed": [gseed]},
                  trials=32, seed=policy),
        SweepSpec(name="paper_cobra_lollipop", process="cobra",
                  graph="lollipop", graph_grid={"n": [64, 128, 192]},
                  trials=32, seed=policy),
        SweepSpec(name="paper_cobra_barbell", process="cobra",
                  graph="barbell", graph_grid={"n": [64, 128, 192]},
                  trials=32, seed=policy),
        SweepSpec(name="paper_cobra_hypercube", process="cobra",
                  graph="hypercube_oracle", graph_grid={"dim": [10, 12, 13]},
                  trials=32, seed=policy),
    ]
    for builder, args, budget in _SIMPLE_BASELINES:
        grid = {axis: [value] for axis, value in args.items()}
        if builder == "random_regular":
            grid["seed"] = [gseed]
        specs.append(
            SweepSpec(name=f"paper_simple_{builder}", process="simple",
                      graph=builder, graph_grid=grid, trials=64, seed=policy,
                      max_steps=budget)
        )
    return specs


def drain_specs(seed: int, *, tiny: bool = False) -> list[SweepSpec]:
    """The ``cell_drain`` campaign: 180 tiny cobra and push cells.

    180, not more, so that a 30 s run holds five drains or more: one
    drain's CPU time moves by a tenth from one drain to the next.
    """
    policy = SeedPolicy(root=seed)
    cycles = list(range(5, 9)) if tiny else list(range(5, 53))
    grids = [3] if tiny else list(range(3, 15))
    specs = []
    for graph, grid in (
        ("cycle_graph", {"n": cycles}),
        ("grid", {"n": grids, "d": [2]}),
    ):
        specs.append(
            SweepSpec(name=f"drain_cobra_{graph}", process="cobra", graph=graph,
                      graph_grid=grid, params_grid={"k": [2, 3]}, trials=2,
                      seed=policy)
        )
        specs.append(
            SweepSpec(name=f"drain_push_{graph}", process="push", graph=graph,
                      graph_grid=grid, trials=2, seed=policy)
        )
    return specs


def specs_for(workload: str, seed: int, *, tiny: bool = False) -> list[SweepSpec]:
    """The campaign a workload runs (``serve_reads`` serves ``cell_drain``'s)."""
    if workload == "paper_sweep":
        return paper_specs(seed, tiny=tiny)
    if workload in ("cell_drain", "serve_reads"):
        return drain_specs(seed, tiny=tiny)
    raise ValueError(f"unknown workload {workload!r}")


def unique_cells(specs: Iterable[SweepSpec]) -> list[RunKey]:
    """Every cell of *specs*, deduplicated by hash, in expansion order."""
    cells: dict[str, RunKey] = {}
    for spec in specs:
        for key in spec.expand():
            cells.setdefault(key.hash, key)
    return list(cells.values())


def prepare(workload: str, seed: int, store_dir: str, *, tiny: bool = False) -> None:
    """Everything before the first cell runs: specs expanded, store open.

    This is what the ``setup_s`` probe times in a fresh interpreter.  It
    starts by importing the CLI, as ``sweep run`` and ``sweep work`` do.
    """
    import repro.experiments.cli  # noqa: F401 - what a sweep verb imports first

    for spec in specs_for(workload, seed, tiny=tiny):
        spec.expand()
    ResultStore(store_dir)
    if workload == "cell_drain":
        import repro.store.dispatch  # noqa: F401 - the drain loop's module


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def cell_digest(h: str, values: Sequence[float]) -> str:
    """sha256 over a cell hash and its trial values (NaN-safe JSON)."""
    payload = h + "\n" + json.dumps([float(v) for v in values])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def store_digests(store: ResultStore, cells: Sequence[RunKey]) -> dict[str, str | None]:
    """Cell hash → digest of the stored record (``None`` when missing)."""
    out: dict[str, str | None] = {}
    for key in cells:
        record = store.get(key)
        out[key.hash] = (
            None if record is None
            else cell_digest(key.hash, record["result"]["values"])
        )
    return out


def count_mismatches(
    got: dict[str, str | None], want: dict[str, str | None]
) -> int:
    """Cells missing from *got* or differing from the reference *want*."""
    return sum(
        1 for h, digest in want.items()
        if digest is None or got.get(h) != digest
    )


def fingerprint(digests: dict[str, str | None]) -> str:
    """One sha256 over a run's per-cell (or per-request) digests."""
    joined = "\n".join(f"{k}:{v}" for k, v in sorted(digests.items()))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# serve_reads: the request mix
# ----------------------------------------------------------------------

#: requests per kind in one pass over the mix (fixed counts: the seed
#: picks targets and order, never the proportions).  The counts are an
#: assumption, not a measurement: no recorded read traffic exists, so
#: every kind weighs the same and a change to one route moves the pooled
#: metrics by that route's fifth.  The per-route ``service.*`` and
#: ``http.*`` metrics do not depend on the weights.
REQUEST_MIX = {"cell": 12, "cell_304": 12, "frame": 12, "frame_group": 12,
               "frame_304": 12}
TINY_REQUEST_MIX = {"cell": 2, "cell_304": 2, "frame": 2, "frame_group": 2,
                    "frame_304": 2}


def request_plan(
    seed: int, cells: Sequence[RunKey], *, tiny: bool = False
) -> list[tuple[str, str, dict[str, str]]]:
    """One pass of ``(kind, path, headers)`` requests, minus frame ETags.

    ``frame_304`` entries name a frame query; :func:`bind_etags` fills
    in its ``If-None-Match`` once the reference response is known.
    """
    rng = random.Random(seed)
    mix = TINY_REQUEST_MIX if tiny else REQUEST_MIX
    cycle_ns = sorted({
        dict(k.graph_params)["n"] for k in cells if k.graph_builder == "cycle_graph"
    })
    grid_ns = sorted({
        dict(k.graph_params)["n"] for k in cells if k.graph_builder == "grid"
    })

    def frame_query() -> str:
        choice = rng.randrange(3)
        if choice == 0:
            return f"graph=cycle_graph&g_n={rng.choice(cycle_ns)}"
        if choice == 1:
            return f"process=cobra&k={rng.choice([2, 3])}&graph=grid"
        return f"process=push&g_n={rng.choice(cycle_ns + grid_ns)}"

    def group_query() -> str:
        if rng.randrange(2) == 0:
            return (f"groupby=g_n&process=cobra&k={rng.choice([2, 3])}"
                    "&graph=cycle_graph&aggregate=mean")
        agg = rng.choice(["max", "mean", "median"])
        return f"groupby=process&graph=grid&column=median&aggregate={agg}"

    plan: list[tuple[str, str, dict[str, str]]] = []
    for kind, count in mix.items():
        for _ in range(count):
            if kind in ("cell", "cell_304"):
                h = rng.choice(cells).hash
                headers = {"If-None-Match": f'"{h}"'} if kind == "cell_304" else {}
                plan.append((kind, f"/cell/{h}", headers))
            elif kind == "frame":
                plan.append((kind, f"/frame?{frame_query()}", {}))
            elif kind == "frame_group":
                plan.append((kind, f"/frame?{group_query()}", {}))
            else:
                query = frame_query() if rng.randrange(2) == 0 else group_query()
                plan.append((kind, f"/frame?{query}", {}))
    rng.shuffle(plan)
    return plan


def bind_etags(plan, service) -> list[tuple[str, str, dict[str, str]]]:
    """Give each ``frame_304`` request the ETag its query answers with now."""
    bound = []
    for kind, path, headers in plan:
        if kind == "frame_304":
            _, resp_headers, _ = service.handle("GET", path)
            headers = {"If-None-Match": resp_headers["ETag"]}
        bound.append((kind, path, headers))
    return bound


def response_digest(status: int, body: bytes) -> str:
    """sha256 over a response's status and body."""
    return hashlib.sha256(f"{status}\n".encode("ascii") + body).hexdigest()


#: the status each request kind must answer with
EXPECTED_STATUS = {"cell": 200, "cell_304": 304, "frame": 200,
                   "frame_group": 200, "frame_304": 304}
