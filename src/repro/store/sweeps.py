"""Registered sweep declarations — the campaigns behind the experiments.

The migrated experiments (``T3_grid``, ``TREES_kary``, ``KCOBRA_k``,
``BASE_compare``, ``STAR_lb``, ``T15_regular``, ``C9_expander``,
``T20_general``) no longer hand-roll
sweep loops: each is a **sweep builder** here — a function of ``(scale, seed)`` returning the list of
:class:`~repro.store.spec.SweepSpec` declarations whose cells are the
experiment's whole Monte-Carlo surface.  The experiment runners expand
these through a :class:`~repro.store.campaign.Campaign` and read their
tables off :meth:`ResultStore.frame`; the CLI's ``sweep run/status/
show`` subcommands drive the same builders against a durable on-disk
store.

``SCALE_torus_vs_hypercube`` is the implicit-topology scaling sweep:
its cells name the arithmetic ``*_oracle`` builders, so at full scale
a million-vertex torus and a 2²⁰-vertex hypercube run through
``run_batch`` without ever materialising CSR edge arrays (the
provenance ``graph_kind`` column records which oracle served each
cell).

``BRW_minima`` sweeps the new ``branching_minima`` process — the
Addario-Berry–Reed n'th-generation minimum on the ℤ-line — purely
through the store (there is no legacy experiment for it).
``DEMO_grid2x2`` is the four-cell sweep the multi-worker dispatch
docs, tests, and CI smoke drain.

Multiple specs per name are the norm: a sweep name is an experiment's
worth of campaigns (one spec per process arm or per graph family),
sharing one store so overlapping cells are computed once.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .spec import SeedPolicy, SweepSpec

__all__ = [
    "register_sweep",
    "build_sweep",
    "sweep_names",
]

#: builder signature: ``builder(scale, seed) -> list[SweepSpec]``
SweepBuilder = Callable[[str, int], "list[SweepSpec]"]

_SWEEPS: dict[str, SweepBuilder] = {}


def register_sweep(name: str, builder: SweepBuilder) -> SweepBuilder:
    """Register a sweep builder under *name* (rejecting duplicates).

    Parameters
    ----------
    name : str
        Sweep name (conventionally the experiment id it powers).
    builder : callable
        ``builder(scale, seed) -> list[SweepSpec]``.

    Returns
    -------
    callable
        *builder* itself, for decorator-style use.
    """
    if name in _SWEEPS:
        raise ValueError(f"duplicate sweep name {name!r}")
    _SWEEPS[name] = builder
    return builder


def build_sweep(name: str, *, scale: str = "quick", seed: int = 0) -> list[SweepSpec]:
    """Build the registered sweep's spec list for a scale and root seed.

    Parameters
    ----------
    name : str
        Registered sweep name (see :func:`sweep_names`).
    scale : str
        ``"quick"`` (seconds, the test/CI configuration) or ``"full"``.
    seed : int
        Root seed of every spec's :class:`SeedPolicy`.

    Returns
    -------
    list of SweepSpec
        The sweep's campaigns.
    """
    if scale not in ("quick", "full"):
        raise ValueError(f"unknown scale {scale!r}; use 'quick' or 'full'")
    try:
        builder = _SWEEPS[name]
    except KeyError:
        known = ", ".join(sorted(_SWEEPS))
        raise KeyError(f"unknown sweep {name!r}; known: {known}") from None
    specs = builder(scale, seed)
    return list(specs) if isinstance(specs, Sequence) else [specs]


def sweep_names() -> list[str]:
    """Sorted registered sweep names.

    Returns
    -------
    list of str
        The registry keys.
    """
    return sorted(_SWEEPS)


# ----------------------------------------------------------------------
# built-in sweeps (the migrated experiments + the minima statistic)
# ----------------------------------------------------------------------

#: T3 grid ladders, keyed by dimension (mirrors the historical exp_grid)
T3_SWEEPS = {
    "quick": {1: [64, 128, 256], 2: [8, 16, 32], 3: [4, 6, 8]},
    "full": {
        1: [64, 128, 256, 512, 1024],
        2: [8, 16, 32, 64, 128],
        3: [4, 6, 8, 12, 16],
    },
}
T3_TRIALS = {"quick": 5, "full": 15}
T3_RW_LIMIT = {"quick": 600, "full": 4000}  # vertex cap for the slow baseline


def _t3_grid(scale: str, seed: int) -> list[SweepSpec]:
    policy = SeedPolicy(root=seed)
    trials = T3_TRIALS[scale]
    specs = []
    for d, ns in T3_SWEEPS[scale].items():
        specs.append(
            SweepSpec(
                name=f"T3_grid/cobra_d{d}",
                process="cobra",
                graph="grid",
                graph_grid={"n": ns, "d": [d]},
                trials=trials,
                seed=policy,
            )
        )
        rw_ns = [n for n in ns if (n + 1) ** d <= T3_RW_LIMIT[scale]]
        if rw_ns:
            specs.append(
                SweepSpec(
                    name=f"T3_grid/rw_d{d}",
                    process="simple",
                    graph="grid",
                    graph_grid={"n": rw_ns, "d": [d]},
                    trials=max(3, trials // 2),
                    seed=policy,
                )
            )
    return specs


register_sweep("T3_grid", _t3_grid)


TREES_DEPTHS = {
    "quick": {2: [4, 6, 8], 3: [3, 4, 5], 4: [3, 4], 5: [2, 3]},
    "full": {2: [4, 6, 8, 10, 12], 3: [3, 4, 5, 6, 7], 4: [3, 4, 5], 5: [2, 3, 4]},
}
TREES_TRIALS = {"quick": 6, "full": 15}


def _trees_kary(scale: str, seed: int) -> list[SweepSpec]:
    policy = SeedPolicy(root=seed)
    return [
        SweepSpec(
            name=f"TREES_kary/k{k}",
            process="cobra",
            graph="kary_tree",
            graph_grid={"k": [k], "depth": depths},
            trials=TREES_TRIALS[scale],
            seed=policy,
        )
        for k, depths in TREES_DEPTHS[scale].items()
    ]


register_sweep("TREES_kary", _trees_kary)


KCOBRA_KS = [1, 2, 3, 4, 8]
KCOBRA_TRIALS = {"quick": 5, "full": 15}
KCOBRA_SIZE = {"quick": (15, 256), "full": (31, 1024)}  # (grid extent, expander n)


def _kcobra_k(scale: str, seed: int) -> list[SweepSpec]:
    policy = SeedPolicy(root=seed)
    trials = KCOBRA_TRIALS[scale]
    side, n = KCOBRA_SIZE[scale]
    return [
        SweepSpec(
            name="KCOBRA_k/grid",
            process="cobra",
            graph="grid",
            graph_grid={"n": [side], "d": [2]},
            params_grid={"k": KCOBRA_KS},
            trials=trials,
            seed=policy,
        ),
        SweepSpec(
            name="KCOBRA_k/expander",
            process="cobra",
            graph="random_regular",
            graph_grid={"n": [n], "d": [8], "seed": [seed]},
            params_grid={"k": KCOBRA_KS},
            trials=trials,
            seed=policy,
        ),
    ]


register_sweep("KCOBRA_k", _kcobra_k)


BASE_TRIALS = {"quick": 5, "full": 15}
BASE_SIZE = {"quick": 256, "full": 1024}


def base_compare_graphs(scale: str, seed: int) -> list[tuple[str, str, dict, int]]:
    """The BASE_compare graph ladder: ``(label, builder, params, n)``.

    ``n`` (the vertex count) is computed statically so the specs can
    size the random-walk budget without building a graph.
    """
    size = BASE_SIZE[scale]
    import numpy as np

    side = int(np.sqrt(size)) - 1
    lolli = max(24, size // 4)
    return [
        ("expander", "random_regular", {"n": size, "d": 8, "seed": seed}, size),
        ("grid", "grid", {"n": side, "d": 2}, (side + 1) ** 2),
        ("lollipop", "lollipop", {"n": lolli}, lolli),
        ("star", "star_graph", {"n": size}, size),
    ]


#: the BASE_compare process arms: (arm, process, trials-rule, params)
BASE_ARMS = [
    ("cobra", "cobra", "full", {}),
    ("walt", "walt", "half", {}),
    ("push", "push", "full", {}),
    ("parallel", "parallel", "half", {"walkers": 2}),
    ("simple", "simple", "rw", {}),
    ("lazy", "lazy", "rw", {}),
]


def _base_compare(scale: str, seed: int) -> list[SweepSpec]:
    policy = SeedPolicy(root=seed)
    trials = BASE_TRIALS[scale]
    counts = {"full": trials, "half": max(3, trials // 2), "rw": 3}
    specs = []
    for label, builder, gparams, n in base_compare_graphs(scale, seed):
        # full RW cover on the lollipop is cubic: cap the budget hard;
        # the lazy arm shares the cap (holds included) so it censors
        # where the simple RW does
        rw_budget = min(40 * n**2, 4_000_000)
        for arm, process, count_rule, params in BASE_ARMS:
            specs.append(
                SweepSpec(
                    name=f"BASE_compare/{label}/{arm}",
                    process=process,
                    graph=builder,
                    graph_grid={k: [v] for k, v in gparams.items()},
                    params_grid={k: [v] for k, v in params.items()},
                    trials=counts[count_rule],
                    max_steps=rw_budget if count_rule == "rw" else None,
                    seed=policy,
                )
            )
    return specs


register_sweep("BASE_compare", _base_compare)


STAR_NS = {"quick": [64, 128, 256, 512], "full": [64, 128, 256, 512, 1024, 2048]}
STAR_TRIALS = {"quick": 5, "full": 12}


def _star_lb(scale: str, seed: int) -> list[SweepSpec]:
    policy = SeedPolicy(root=seed)
    trials = STAR_TRIALS[scale]
    return [
        SweepSpec(
            name="STAR_lb/cobra",
            process="cobra",
            graph="star_graph",
            graph_grid={"n": STAR_NS[scale]},
            trials=trials,
            seed=policy,
        ),
        SweepSpec(
            name="STAR_lb/push",
            process="push",
            graph="star_graph",
            graph_grid={"n": STAR_NS[scale]},
            trials=max(3, trials // 2),
            seed=policy,
        ),
    ]


register_sweep("STAR_lb", _star_lb)


T15_NS = {"quick": [32, 64, 128], "full": [32, 64, 128, 256, 512]}
T15_TRIALS = {"quick": 8, "full": 20}


def t15_families(seed: int) -> list[tuple[str, str, int, str, dict]]:
    """The T15 δ-regular families: ``(key, label, delta, builder, extra_grid)``.

    ``key`` names the per-family spec (``T15_regular/<key>``); ``label``
    is the historical table title whose first token keys the findings.
    The circulant family exercises the sequence-valued graph axis
    (offsets ``(1, 2)``); the random-regular family pins its builder
    seed so the graph ladder is part of the cell content.
    """
    return [
        ("cycle", "cycle (δ=2)", 2, "cycle_graph", {}),
        ("circulant", "circulant±{1,2} (δ=4)", 4, "circulant", {"offsets": [(1, 2)]}),
        ("random3", "random 3-regular", 3, "random_regular", {"d": [3], "seed": [seed]}),
    ]


def _t15_regular(scale: str, seed: int) -> list[SweepSpec]:
    policy = SeedPolicy(root=seed)
    return [
        SweepSpec(
            name=f"T15_regular/{key}",
            process="cobra",
            graph=builder,
            graph_grid={"n": T15_NS[scale], **extra},
            metric="hit",
            target="farthest",
            trials=T15_TRIALS[scale],
            seed=policy,
        )
        for key, _label, _delta, builder, extra in t15_families(seed)
    ]


register_sweep("T15_regular", _t15_regular)


def _demo_grid2x2(scale: str, seed: int) -> list[SweepSpec]:
    # deliberately tiny and scale-independent: the sweep the dispatch
    # docs, tests, and the CI multi-worker smoke drain (seconds of work,
    # 4 cells — enough for two workers to genuinely interleave)
    del scale
    return [
        SweepSpec(
            name="DEMO_grid2x2",
            process="cobra",
            graph="grid",
            graph_grid={"n": [6, 8], "d": [2]},
            params_grid={"k": [1, 2]},
            trials=3,
            seed=SeedPolicy(root=seed),
        )
    ]


register_sweep("DEMO_grid2x2", _demo_grid2x2)


C9_NS = {"quick": [128, 256, 512, 1024], "full": [128, 256, 512, 1024, 2048, 4096]}
C9_TRIALS = {"quick": 5, "full": 15}
C9_RW_LIMIT = {"quick": 512, "full": 2048}  # vertex cap for the slow baseline


def _c9_expander(scale: str, seed: int) -> list[SweepSpec]:
    # the builder seed is a graph axis, so the random-regular ladder is
    # part of the cell content (the KCOBRA_k/expander idiom); the rw
    # arm reuses the same graphs, capped where the baseline gets slow
    policy = SeedPolicy(root=seed)
    trials = C9_TRIALS[scale]
    ns = C9_NS[scale]
    return [
        SweepSpec(
            name="C9_expander/cobra",
            process="cobra",
            graph="random_regular",
            graph_grid={"n": ns, "d": [8], "seed": [seed]},
            trials=trials,
            seed=policy,
        ),
        SweepSpec(
            name="C9_expander/rw",
            process="simple",
            graph="random_regular",
            graph_grid={
                "n": [n for n in ns if n <= C9_RW_LIMIT[scale]],
                "d": [8],
                "seed": [seed],
            },
            trials=max(3, trials // 2),
            seed=policy,
        ),
    ]


register_sweep("C9_expander", _c9_expander)


T20_NS = {"quick": [24, 48, 96], "full": [24, 48, 96, 192, 384]}
T20_TRIALS = {"quick": 6, "full": 15}
T20_RW_SIM_LIMIT = {"quick": 48, "full": 96}
T20_WITNESSES = ("lollipop", "barbell")


def _t20_general(scale: str, seed: int) -> list[SweepSpec]:
    # the rw arm's cubic budget (60·n³) is per-n, so it declares one
    # single-cell spec per size; the exact-hitting Θ(n³) certificate is
    # deterministic and stays inline in the experiment
    policy = SeedPolicy(root=seed)
    specs = []
    for witness in T20_WITNESSES:
        specs.append(
            SweepSpec(
                name=f"T20_general/{witness}/cobra",
                process="cobra",
                graph=witness,
                graph_grid={"n": T20_NS[scale]},
                trials=T20_TRIALS[scale],
                seed=policy,
            )
        )
        for n in T20_NS[scale]:
            if n <= T20_RW_SIM_LIMIT[scale]:
                specs.append(
                    SweepSpec(
                        name=f"T20_general/{witness}/rw",
                        process="simple",
                        graph=witness,
                        graph_grid={"n": [n]},
                        trials=3,
                        max_steps=60 * n**3,
                        seed=policy,
                    )
                )
    return specs


register_sweep("T20_general", _t20_general)


#: the two implicit-topology arms: (arm, oracle builder, params per scale)
SCALE_ARMS = {
    "quick": {
        "torus": ("torus_oracle", {"n": 15, "d": 2}),  # 256 vertices
        "hypercube": ("hypercube_oracle", {"dim": 8}),  # 256 vertices
    },
    "full": {
        "torus": ("torus_oracle", {"n": 999, "d": 2}),  # 10^6 vertices
        "hypercube": ("hypercube_oracle", {"dim": 20}),  # 2^20 vertices
    },
}
SCALE_TRIALS = {"quick": 3, "full": 2}
#: at full scale the 256-step budget caps the cost of each cell: the
#: 2^20 hypercube arm covers inside it (in about 40 steps), while the
#: 10^6 torus arm cannot and legitimately summarises to NaN
SCALE_MAX_STEPS = {"quick": None, "full": 256}


def _scale_torus_vs_hypercube(scale: str, seed: int) -> list[SweepSpec]:
    policy = SeedPolicy(root=seed)
    return [
        SweepSpec(
            name=f"SCALE_torus_vs_hypercube/{arm}",
            process="cobra",
            graph=builder,
            graph_grid={name: [value] for name, value in params.items()},
            trials=SCALE_TRIALS[scale],
            max_steps=SCALE_MAX_STEPS[scale],
            seed=policy,
        )
        for arm, (builder, params) in SCALE_ARMS[scale].items()
    ]


register_sweep("SCALE_torus_vs_hypercube", _scale_torus_vs_hypercube)


BRW_LINES = {"quick": [129], "full": [257, 513]}
BRW_GENERATIONS = {"quick": [8, 16], "full": [16, 32, 64]}
BRW_TRIALS = {"quick": 4, "full": 16}


def _brw_minima(scale: str, seed: int) -> list[SweepSpec]:
    # the line must outrun the frontier: n // 2 > max generations holds
    # for every (n, generations) pair declared above
    return [
        SweepSpec(
            name="BRW_minima",
            process="branching_minima",
            graph="path_graph",
            graph_grid={"n": BRW_LINES[scale]},
            params_grid={"k": [2, 3], "generations": BRW_GENERATIONS[scale]},
            metric="min",
            trials=BRW_TRIALS[scale],
            seed=SeedPolicy(root=seed),
        )
    ]


register_sweep("BRW_minima", _brw_minima)
