"""Import-time contract audit: cross-check the *live* registries.

The AST rules in :mod:`repro.lint.rules` see files one at a time; this
module loads the actual registries and verifies the cross-cutting
contracts static text cannot:

* **RPL200** — every registered sweep builds and expands to a
  non-empty cell list at both scales (a sweep that raises on
  ``expand()`` is dead weight the CLI will trip over);
* **RPL201** — every ``ProcessSpec`` batch engine and factory accepts
  the keyword protocol ``run_batch`` drives it with (``trials``,
  ``start``, ``seed``, ``max_steps``, plus ``target`` for hit
  engines; ``start``/``seed``/``target`` for factories);
* **RPL202** — every docs anchor ``tests/test_docs.py`` expects
  resolves in the committed docs pages (:data:`DOC_ANCHORS` is the
  single source of truth the test suite imports);
* **RPL203** — every registered implicit topology
  (:data:`repro.graphs.implicit.IMPLICIT_TOPOLOGIES`) binds the full
  ``NeighborOracle`` protocol and round-trips through the store's
  graph axes (``RunKey.build_graph`` reconstructs the same oracle).

All four are cheap (no simulation runs) and emit the same
:class:`~repro.lint.rules.Finding` records as the AST pass, so the CLI
merges them with ``--contracts``.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from collections.abc import Callable, Iterable
from typing import Any

from .rules import ERROR, Finding

__all__ = [
    "DOC_ANCHORS",
    "audit_sweeps",
    "audit_process_engines",
    "audit_docs",
    "audit_implicit_oracles",
    "run_contract_audit",
]

#: every anchor the docs test suite requires, per page —
#: tests/test_docs.py parametrizes over this mapping, and the RPL202
#: audit checks the same strings, so the two can never drift apart
DOC_ANCHORS: dict[str, tuple[str, ...]] = {
    "docs/architecture.md": (
        "Layer map",
        "flat-frontier",
        "Implicit topologies",
        "NeighborOracle",
        "bit-packed",
        "Engine selection",
        "seed-spawning",
        "placement-independent",
        "batch_cover",
        "batch_hit",
        "The sweep store",
        "content-addressed",
        "The lint layer",
        "repro.lint",
        "bit-exact",
        "The observability layer",
        "repro.obs",
        "NullTracer",
        "events.jsonl",
    ),
    "docs/benchmarks.md": (
        "regression gate",
        "benchmarks/bench.py",
        "BENCH_engines.json",
        "compare(baseline, fresh)",
        "HostSpeed",
        "emit_bench_json",
        "schema: 2",
        "bench-artifacts",
        "fingerprint",
    ),
    "docs/sweeps.md": (
        "SweepSpec schema",
        "Content addressing",
        "Seed policy",
        "Store layout",
        "resume",
        "shards/",
        "Campaigns",
        "Query API",
        "sweep run",
        "sweep status",
        "sweep show",
        "Multi-worker dispatch",
        "lease protocol",
        "claims.jsonl",
        "Worker lifecycle",
        "value-for-value identical",
        "fsck and compaction",
        "sweep work",
        "sweep fsck",
        "sweep compact",
        "Campaign(workers=N)",
        "expires_unix",
        "Implicit topologies",
        "graph_kind",
        "`backend`",
        "sweep report",
        "sweep top",
        "Object-store backends",
        "StorageBackend",
        "compare-and-swap",
        "InMemoryCASBackend",
        "HTTPCASBackend",
        "sweep declare",
        "sweeps.jsonl",
        "--loop",
        "SIGTERM",
    ),
    "docs/service.md": (
        "StorageBackend protocol",
        "read_blob",
        "append_line",
        "list_prefix",
        "compare_and_swap",
        "zero-byte blob is absent",
        "LocalBackend",
        "CASBackend",
        "InMemoryCASBackend",
        "HTTPCASBackend",
        "CAS ledger semantics",
        "value-for-value identical",
        "sweep serve",
        ":memory:",
        "GET /health",
        "GET /cell/",
        "GET /frame",
        "PUT /blob/",
        "304 Not Modified",
        "412 Precondition Failed",
        "repro.frame/1",
        "kind=\"http\"",
        "sweep declare",
        "--loop",
        "SIGTERM lease release",
        "--max-rounds",
        "exit-code contract",
    ),
    "docs/observability.md": (
        "Span model",
        "campaign → cell → phase",
        "Event schema",
        "events.jsonl",
        "Counters",
        "Straggler reports",
        "sweep report",
        "sweep top",
        "--trace",
        "--profile",
        "NullTracer",
        "seed-for-seed",
        "RPL150",
        "peak_rss_mb",
    ),
    "docs/static-analysis.md": (
        "Rule table",
        "Suppressions",
        "RPL150",
        "repro-lint: disable=",
        "repro-lint: disable-file=",
        "python -m repro.lint",
        "--explain",
        "--format=json",
        "--contracts",
        "Contract audit",
        "unused suppression",
    ),
}


def _finding(rule: str, where: str, message: str) -> Finding:
    return Finding(rule=rule, severity=ERROR, path=where, line=0, col=0, message=message)


def audit_sweeps() -> list[Finding]:
    """RPL200: every registered sweep expands at quick and full scale.

    Returns
    -------
    list of Finding
        One finding per sweep spec that fails to build or expands to
        an empty cell list.
    """
    from ..store.sweeps import build_sweep, sweep_names

    findings: list[Finding] = []
    for name in sweep_names():
        for scale in ("quick", "full"):
            try:
                specs = build_sweep(name, scale=scale, seed=0)
                for spec in specs:
                    if not spec.expand():
                        findings.append(
                            _finding(
                                "RPL200",
                                f"sweep:{name}",
                                f"spec {spec.name!r} expands to zero cells "
                                f"at scale={scale!r}",
                            )
                        )
            except Exception as exc:  # noqa: BLE001 - audit reports, never raises
                findings.append(
                    _finding(
                        "RPL200",
                        f"sweep:{name}",
                        f"build/expand failed at scale={scale!r}: "
                        f"{type(exc).__name__}: {exc}",
                    )
                )
    return findings


#: keyword parameters run_batch passes to every batch_cover engine
_BATCH_COVER_PROTOCOL = frozenset({"trials", "start", "seed", "max_steps"})
#: batch_hit engines additionally race to a target
_BATCH_HIT_PROTOCOL = _BATCH_COVER_PROTOCOL | {"target"}
#: keywords the facade passes to every factory (ProcessSpec docstring)
_FACTORY_PROTOCOL = frozenset({"start", "seed", "target"})


def _accepts_keywords(func: Callable[..., Any], required: Iterable[str]) -> list[str]:
    """Names in *required* the callable's signature cannot bind."""
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):
        return []  # builtins/C callables: nothing to check statically
    params = signature.parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return []
    return sorted(name for name in required if name not in params)


def audit_process_engines(specs: Iterable[Any] | None = None) -> list[Finding]:
    """RPL201: batch engines and factories accept the driver protocol.

    Parameters
    ----------
    specs : iterable of ProcessSpec, optional
        Specs to audit; defaults to the live registry.

    Returns
    -------
    list of Finding
        One finding per callable that cannot bind the keywords
        ``run_batch``/``simulate`` will pass it.
    """
    if specs is None:
        from ..sim.processes import all_processes

        specs = all_processes()
    findings: list[Finding] = []
    for spec in specs:
        where = f"process:{spec.name}"
        for label, func, protocol in (
            ("factory", spec.factory, _FACTORY_PROTOCOL),
            ("batch_cover", spec.batch_cover, _BATCH_COVER_PROTOCOL),
            ("batch_hit", spec.batch_hit, _BATCH_HIT_PROTOCOL),
        ):
            if func is None:
                continue
            missing = _accepts_keywords(func, protocol)
            if missing:
                findings.append(
                    _finding(
                        "RPL201",
                        where,
                        f"{label} signature cannot bind the driver "
                        f"keyword(s) {missing}; run_batch/simulate will "
                        "TypeError at dispatch",
                    )
                )
    return findings


def audit_docs(root: str | Path | None = None) -> list[Finding]:
    """RPL202: the anchors :data:`DOC_ANCHORS` names all resolve.

    Parameters
    ----------
    root : str or Path, optional
        Repository root holding ``docs/``; defaults to the current
        working directory (where CI runs the audit).

    Returns
    -------
    list of Finding
        One finding per missing page or anchor.
    """
    base = Path(root) if root is not None else Path.cwd()
    findings: list[Finding] = []
    for rel, anchors in DOC_ANCHORS.items():
        page = base / rel
        if not page.is_file():
            findings.append(
                _finding("RPL202", rel, "documented page is missing from the tree")
            )
            continue
        text = page.read_text(encoding="utf-8")
        for anchor in anchors:
            if anchor not in text:
                findings.append(
                    _finding(
                        "RPL202",
                        rel,
                        f"anchor {anchor!r} not found (tests/test_docs.py "
                        "requires it)",
                    )
                )
    return findings


#: the vectorized sampling protocol every oracle must bind (RPL203)
_ORACLE_PROTOCOL = (
    "degree",
    "neighbor_at",
    "sample_one",
    "sample_neighbors",
    "all_neighbors",
)


def audit_implicit_oracles() -> list[Finding]:
    """RPL203: registered implicit topologies bind the oracle protocol.

    For every entry of
    :data:`repro.graphs.implicit.IMPLICIT_TOPOLOGIES` — ``name ->
    (builder, small example params)`` — build the example instance and
    check (a) the full ``NeighborOracle`` surface is bound (``n``,
    ``kind``, ``min_degree``/``max_degree`` and the vectorized sampling
    methods), and (b) the topology round-trips through the store's
    graph axes: a :class:`~repro.store.spec.RunKey` naming the builder
    reconstructs an oracle of the same size and kind, so sweep cells
    over implicit graphs are (re)producible from their content hash.

    Returns
    -------
    list of Finding
        One finding per broken topology.
    """
    from ..graphs.implicit import IMPLICIT_TOPOLOGIES, NeighborOracle
    from ..store.spec import RunKey

    findings: list[Finding] = []
    for name, (builder_name, params) in sorted(IMPLICIT_TOPOLOGIES.items()):
        where = f"implicit:{name}"
        try:
            import repro.graphs as graphs_mod

            builder = getattr(graphs_mod, builder_name, None)
            if builder is None or not callable(builder):
                findings.append(
                    _finding(
                        "RPL203",
                        where,
                        f"builder {builder_name!r} is not exported by "
                        "repro.graphs (RunKey.build_graph cannot resolve it)",
                    )
                )
                continue
            oracle = builder(**params)
            if not isinstance(oracle, NeighborOracle):
                findings.append(
                    _finding(
                        "RPL203",
                        where,
                        f"builder {builder_name!r} returned "
                        f"{type(oracle).__name__}, not a NeighborOracle",
                    )
                )
                continue
            missing = [
                attr
                for attr in _ORACLE_PROTOCOL
                if not callable(getattr(oracle, attr, None))
            ]
            for attr in ("n", "kind", "min_degree", "max_degree"):
                if not hasattr(oracle, attr):
                    missing.append(attr)
            if missing:
                findings.append(
                    _finding(
                        "RPL203",
                        where,
                        f"oracle does not bind protocol member(s) {missing}",
                    )
                )
                continue
            key = RunKey(
                process="cobra",
                metric="cover",
                graph_builder=builder_name,
                graph_params=tuple(
                    (k, tuple(v) if isinstance(v, (list, tuple)) else v)
                    for k, v in sorted(params.items())
                ),
            )
            rebuilt = key.build_graph()
            if (
                getattr(rebuilt, "n", None) != oracle.n
                or getattr(rebuilt, "kind", None) != oracle.kind
            ):
                findings.append(
                    _finding(
                        "RPL203",
                        where,
                        "RunKey.build_graph does not round-trip the topology "
                        f"(got n={getattr(rebuilt, 'n', None)}, "
                        f"kind={getattr(rebuilt, 'kind', None)!r}; expected "
                        f"n={oracle.n}, kind={oracle.kind!r})",
                    )
                )
        except Exception as exc:  # noqa: BLE001 - audit reports, never raises
            findings.append(
                _finding(
                    "RPL203",
                    where,
                    f"build/round-trip failed: {type(exc).__name__}: {exc}",
                )
            )
    return findings


def run_contract_audit(root: str | Path | None = None) -> list[Finding]:
    """Run all four audits (the CLI's ``--contracts`` entry point).

    Parameters
    ----------
    root : str or Path, optional
        Repository root for the docs audit.

    Returns
    -------
    list of Finding
        Concatenated RPL200/RPL201/RPL202/RPL203 findings.
    """
    return (
        audit_sweeps()
        + audit_process_engines()
        + audit_docs(root)
        + audit_implicit_oracles()
    )
