"""Command-line runner: ``python -m repro.experiments`` /
``cobra-experiments``.

Usage::

    cobra-experiments list
    cobra-experiments processes
    cobra-experiments run T3_grid [--scale quick|full] [--seed N]
    cobra-experiments run all --scale full --processes 4
    cobra-experiments run T3_grid --json > t3.json
    cobra-experiments sweep list
    cobra-experiments sweep run T3_grid --store results/ [--max-cells N] [--workers 4]
    cobra-experiments sweep run T3_grid --store results/ --trace [--profile]
    cobra-experiments sweep status T3_grid --store results/
    cobra-experiments sweep show T3_grid --store results/ [--json]
    cobra-experiments sweep work T3_grid --store results/ [--ttl 900] [--trace]
    cobra-experiments sweep work --loop --store http://host:8734 [--interval 5]
    cobra-experiments sweep serve --store results/ [--host 127.0.0.1] [--port 8734]
    cobra-experiments sweep declare T3_grid --store results/ [--scale full]
    cobra-experiments sweep report T3_grid --store results/
    cobra-experiments sweep top T3_grid --store results/ [--interval 2] [--once]
    cobra-experiments sweep fsck --store results/
    cobra-experiments sweep compact --store results/
    cobra-experiments lint [PATH ...] [--format json] [--contracts]

Each run prints the experiment's tables and findings; ``run all``
iterates the whole registry (this is how EXPERIMENTS.md numbers were
produced).  ``--json`` emits a machine-readable findings dump instead
of tables; ``--processes N`` fans Monte-Carlo trials out over a
process pool via the :func:`repro.sim.facade.run_batch` default.

The ``sweep`` subcommands drive the registered sweep declarations
(:mod:`repro.store.sweeps`) against a **durable content-addressed
store**: ``sweep run`` computes only the cells the store is missing
(kill it any time; re-running resumes exactly where it stopped),
``sweep status`` counts stored vs pending cells, and ``sweep show``
tabulates the stored results.  ``sweep work`` runs one lease/claim
dispatch worker against a shared store — start as many as you like,
on as many machines as see the directory; they coordinate through the
claim ledger and their combined output is value-for-value identical
to a single ``sweep run``.  ``sweep fsck`` verifies store integrity
(re-hash keys, torn lines, orphaned records, stale leases, torn
telemetry events) and ``sweep compact`` drops superseded
last-write-wins duplicates and prunes the ledger.  See
``docs/sweeps.md``.

With ``--trace``, ``run`` and ``work`` emit structured telemetry spans
into ``events.jsonl`` beside the shards (:mod:`repro.obs`); stored
values stay seed-for-seed identical.  ``sweep report`` renders the
straggler report over stored provenance, the claim ledger and the
event log — per-cell phase timings, p50/p95/max wall time by
process/graph/engine, per-worker attribution.  ``sweep top`` is the
live companion: drain progress, live leases, the freshest events and
the slowest cells, refreshed until the sweep completes (``--once``
for a single snapshot).  ``sweep run --profile`` additionally records
each cell's peak RSS in provenance.  See ``docs/observability.md``.

``lint`` runs the determinism & contract linter (:mod:`repro.lint`)
— the same pass as ``python -m repro.lint`` — over the given paths
(default: ``src benchmarks examples ci`` where present).  See
``docs/static-analysis.md``.

Every ``--store`` accepts a directory **or** a ``sweep serve`` URL
(``http://host:port``): the URL resolves to an
:class:`~repro.store.backend.HTTPCASBackend`, so workers and readers
need no shared filesystem.  ``sweep serve`` additionally accepts
``--store :memory:`` (an ephemeral in-process CAS backend — what the
CI service smoke drains through).  ``sweep serve`` answers point
lookups (``/cell/<hash>``, ETag = the immutable content hash), frame
queries (``/frame?process=cobra&groupby=g_n``), and the raw blob CAS
seam remote workers coordinate through.  ``sweep declare`` announces
a sweep in the store's registry; ``sweep work --loop`` is the daemon
form — poll for declared sweeps with jittered backoff, drain whatever
is pending, release leases cleanly on SIGTERM.  See
``docs/service.md``.

Exit codes are uniform across every ``sweep`` verb: **2** for usage
errors (unknown sweep or experiment, flag conflicts, a store URL that
is not valid for the verb), **1** for integrity failures (``fsck``
findings, ``compact`` refusals, unreachable backends), 0 otherwise —
each with a one-line message on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .registry import all_experiments, get

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cobra-experiments",
        description="Reproduce the claims of Mitzenmacher, Rajaraman & Roche (SPAA 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments")
    sub.add_parser("processes", help="list registered simulation processes")
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("id", help="experiment id, or 'all'")
    runp.add_argument("--scale", choices=("quick", "full"), default="quick")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document of findings/notes instead of tables",
    )
    runp.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="fan Monte-Carlo trials out over N worker processes "
        "(default: serial/vectorized)",
    )
    sweepp = sub.add_parser(
        "sweep", help="declarative sweep campaigns over a durable result store"
    )
    sweep_sub = sweepp.add_subparsers(dest="sweep_command", required=True)
    sweep_sub.add_parser("list", help="list registered sweeps")
    for cmd, help_text in (
        ("run", "run a sweep's pending cells (resumable; cached cells skip)"),
        ("status", "count stored vs pending cells of a sweep"),
        ("show", "tabulate a sweep's stored results"),
        ("work", "drain a sweep as one lease/claim dispatch worker"),
        ("declare", "announce a sweep in the store's registry (for --loop workers)"),
        ("report", "straggler report: per-cell/per-worker wall-time breakdown"),
        ("top", "live drain monitor: progress, leases, recent events"),
    ):
        p = sweep_sub.add_parser(cmd, help=help_text)
        if cmd == "work":
            p.add_argument(
                "name", nargs="?", default=None,
                help="registered sweep name (optional with --loop)",
            )
        else:
            p.add_argument("name", help="registered sweep name (see 'sweep list')")
        p.add_argument(
            "--store", required=True, metavar="DIR|URL",
            help="result-store directory (created on first write) or a "
            "'sweep serve' URL (http://host:port)",
        )
        p.add_argument("--scale", choices=("quick", "full"), default="quick")
        p.add_argument("--seed", type=int, default=0)
        if cmd in ("run", "work"):
            p.add_argument(
                "--shards", type=int, default=None, metavar="K",
                help="run each cell on the sharded executor "
                "(placement-independent, seed-for-seed stable)",
            )
            p.add_argument(
                "--max-workers", type=int, default=None, metavar="M",
                help="process-pool width for --shards",
            )
            p.add_argument(
                "--max-cells", type=int, default=None, metavar="N",
                help="stop after computing N cells (incremental mode)",
            )
        if cmd == "run":
            p.add_argument(
                "--workers", type=int, default=None, metavar="W",
                help="spawn W local dispatch workers draining the sweep "
                "concurrently (value-for-value identical to W=1)",
            )
            p.add_argument(
                "--profile", action="store_true",
                help="record per-cell peak RSS (MB) in provenance",
            )
        if cmd in ("run", "work"):
            p.add_argument(
                "--trace", action="store_true",
                help="emit telemetry spans into events.jsonl beside the "
                "shards (seed-for-seed values are unchanged)",
            )
        if cmd == "top":
            p.add_argument(
                "--interval", type=float, default=2.0, metavar="SECONDS",
                help="refresh period of the live monitor (default 2)",
            )
            p.add_argument(
                "--once", action="store_true",
                help="print one snapshot and exit instead of looping",
            )
        if cmd == "show":
            p.add_argument(
                "--json", action="store_true",
                help="emit the stored cells as one canonical repro.frame/1 "
                "JSON document instead of tables",
            )
        if cmd == "work":
            p.add_argument(
                "--owner", default=None, metavar="ID",
                help="worker id in the claim ledger (default: host-pid-rand)",
            )
            p.add_argument(
                "--ttl", type=float, default=None, metavar="SECONDS",
                help="lease time-to-live; crashed workers' cells become "
                "reclaimable after this long (default 900)",
            )
            p.add_argument(
                "--wait", action="store_true",
                help="poll instead of exiting while other workers hold the "
                "remaining leases",
            )
            p.add_argument(
                "--loop", action="store_true",
                help="daemon mode: poll the store's declared-sweeps registry "
                "with jittered backoff and drain whatever is pending "
                "(SIGTERM stops cleanly, releasing any held lease)",
            )
            p.add_argument(
                "--interval", type=float, default=5.0, metavar="SECONDS",
                help="--loop poll period before jitter (default 5)",
            )
            p.add_argument(
                "--max-rounds", type=int, default=None, metavar="N",
                help="--loop: exit after N poll rounds (default: forever)",
            )
    servep = sweep_sub.add_parser(
        "serve", help="HTTP front end: /cell, /frame and blob CAS over a store"
    )
    servep.add_argument(
        "--store", required=True, metavar="DIR|URL|:memory:",
        help="result-store directory, upstream serve URL, or ':memory:' "
        "for an ephemeral in-process CAS backend",
    )
    servep.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default 127.0.0.1)",
    )
    servep.add_argument(
        "--port", type=int, default=8734, metavar="PORT",
        help="bind port; 0 picks a free one (default 8734)",
    )
    servep.add_argument(
        "--trace", action="store_true",
        help="emit one kind='http' span per request into events.jsonl",
    )
    for cmd, help_text in (
        ("fsck", "verify store integrity (hashes, torn lines, leases)"),
        ("compact", "drop superseded duplicates, prune the claim ledger"),
    ):
        p = sweep_sub.add_parser(cmd, help=help_text)
        p.add_argument(
            "--store", required=True, metavar="DIR|URL",
            help="result-store directory (or serve URL) to check",
        )
        if cmd == "compact":
            p.add_argument(
                "--force", action="store_true",
                help="compact even with live leases in the ledger",
            )
    lintp = sub.add_parser(
        "lint", help="run the determinism & contract linter (repro.lint)"
    )
    lintp.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: src benchmarks examples ci)",
    )
    lintp.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    lintp.add_argument(
        "--contracts", action="store_true",
        help="also run the import-time contract audit",
    )
    args = parser.parse_args(argv)

    if args.command == "lint":
        return _lint_main(args)

    if args.command == "sweep":
        return _sweep_main(args)

    if args.command == "list":
        for exp in all_experiments():
            print(f"{exp.id:18s} {exp.claim}")
        return 0

    if args.command == "processes":
        from ..sim import all_processes

        for spec in all_processes():
            caps = ",".join(sorted(spec.capabilities))
            print(f"{spec.name:12s} [{caps}] {spec.description}")
        return 0

    if args.processes is not None:
        from ..sim import set_default_processes

        set_default_processes(args.processes)

    ids = [e.id for e in all_experiments()] if args.id == "all" else [args.id]
    dump: dict[str, dict] = {}
    for exp_id in ids:
        try:
            exp = get(exp_id)
        except KeyError as exc:
            # same contract as the sweep verbs: usage errors are one
            # line on stderr and exit 2, never a traceback
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        t0 = time.perf_counter()
        result = exp.run(scale=args.scale, seed=args.seed)
        elapsed = time.perf_counter() - t0
        if args.json:
            dump[exp.id] = {
                "claim": exp.claim,
                "scale": args.scale,
                "seed": args.seed,
                "elapsed_seconds": round(elapsed, 3),
                "findings": result.findings,
                "notes": result.notes,
            }
        else:
            print(f"\n=== {exp.id}: {exp.claim} (scale={args.scale}) ===")
            print(result.render())
            print(f"[{exp.id} finished in {elapsed:.1f}s]")
    if args.json:
        json.dump(dump, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _lint_main(args: argparse.Namespace) -> int:
    """Run :mod:`repro.lint` with the experiments CLI's defaults."""
    from pathlib import Path

    from ..lint.cli import main as lint_main

    paths = args.paths or [
        p for p in ("src", "benchmarks", "examples", "ci") if Path(p).is_dir()
    ]
    argv = [*paths, "--format", args.format]
    if args.contracts:
        argv.append("--contracts")
    return lint_main(argv)


class UsageError(Exception):
    """The caller asked for something that does not exist — exit 2."""


class IntegrityError(Exception):
    """The store (or its backend) is unhealthy — exit 1."""


def _open_store(arg: str, *, allow_memory: bool = False):
    """Resolve a ``--store`` argument: directory, serve URL, or memory.

    Parameters
    ----------
    arg : str
        The CLI value: a directory path, an ``http(s)://`` URL of a
        running ``sweep serve`` (→ :class:`HTTPCASBackend`), or
        ``":memory:"`` (→ :class:`InMemoryCASBackend`, serve only).
    allow_memory : bool
        Whether ``":memory:"`` is valid for this verb.

    Returns
    -------
    ResultStore
        Backend-backed for every accepted form.
    """
    from ..store import ResultStore
    from ..store.backend import HTTPCASBackend, InMemoryCASBackend

    if arg == ":memory:":
        if not allow_memory:
            raise UsageError(
                "':memory:' stores are only valid for 'sweep serve' "
                "(any other verb would see a private empty store)"
            )
        return ResultStore(backend=InMemoryCASBackend())
    if arg.startswith(("http://", "https://")):
        return ResultStore(backend=HTTPCASBackend(arg))
    return ResultStore(arg)


def _build_specs(name: str, *, scale: str, seed: int):
    """``build_sweep`` with unknown names surfaced as usage errors."""
    from ..store.sweeps import build_sweep

    try:
        return build_sweep(name, scale=scale, seed=seed)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def _sweep_main(args: argparse.Namespace) -> int:
    """Run one ``sweep`` verb with the uniform exit-code contract.

    Every verb shares one error surface: :class:`UsageError` → one
    line on stderr, exit 2; :class:`IntegrityError` or a backend
    failure → one line on stderr, exit 1.  No ``sweep`` verb ever
    prints a traceback for a predictable failure.
    """
    from ..store.backend import BackendError

    try:
        return _sweep_dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrityError, BackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _sweep_dispatch(args: argparse.Namespace) -> int:
    """Dispatch the ``sweep`` subcommands (see the module docstring)."""
    from ..store import Campaign
    from ..store.sweeps import build_sweep, sweep_names

    if args.sweep_command == "list":
        for name in sweep_names():
            specs = build_sweep(name)
            cells = sum(len(s.expand()) for s in specs)
            print(f"{name:18s} {len(specs):3d} spec(s), {cells:4d} cells at quick scale")
        return 0

    if args.sweep_command == "serve":
        return _serve_main(args)

    if args.sweep_command == "fsck":
        from ..store import fsck

        report = fsck(_open_store(args.store))
        print(report.summary())
        if not report.clean:
            raise IntegrityError(f"store not clean ({report.errors} finding(s))")
        return 0

    if args.sweep_command == "compact":
        from ..store import compact

        try:
            report = compact(_open_store(args.store), force=args.force)
        except RuntimeError as exc:
            raise IntegrityError(f"compact refused: {exc}") from None
        print(report.summary())
        return 0

    if args.sweep_command == "declare":
        from ..store.dispatch import declare_sweep

        if args.name not in sweep_names():
            known = ", ".join(sweep_names())
            raise UsageError(f"unknown sweep {args.name!r}; known: {known}")
        store = _open_store(args.store)
        record = declare_sweep(
            store.backend, args.name, scale=args.scale, seed=args.seed
        )
        print(
            f"declared {record['name']} (scale={record['scale']}, "
            f"seed={record['seed']}) in {store.location}"
        )
        return 0

    if args.sweep_command == "work" and args.loop:
        return _work_loop_main(args)
    if args.sweep_command == "work" and args.name is None:
        raise UsageError("sweep work needs a sweep name (or --loop)")

    specs = _build_specs(args.name, scale=args.scale, seed=args.seed)
    store = _open_store(args.store)

    if args.sweep_command == "report":
        from ..obs import build_report

        print(build_report(store, specs).render())
        return 0

    if args.sweep_command == "top":
        from ..obs import live_top, render_top

        if args.once:
            print(render_top(store, specs))
            return 0
        return live_top(store, specs, interval=args.interval)

    if args.sweep_command == "work":
        from ..store import dispatch

        owner = args.owner if args.owner is not None else dispatch.default_owner()
        tracer = None
        if args.trace:
            from ..obs import tracer_for_store

            tracer = tracer_for_store(store.backend, worker=owner)
        report = dispatch.drain(
            specs,
            store,
            owner=owner,
            ttl=args.ttl if args.ttl is not None else dispatch.DEFAULT_TTL,
            max_cells=args.max_cells,
            shards=args.shards,
            max_workers=args.max_workers,
            wait=args.wait,
            tracer=tracer,
        )
        print(
            f"worker {report.owner}: ran {len(report.ran)}, "
            f"cached {len(report.cached)}, deferred {len(report.deferred)}"
        )
        return 0

    if args.sweep_command == "status":
        total = done = 0
        for spec in specs:
            status = Campaign(spec, store).status()
            total += status.total
            done += status.done
            print(f"{spec.name:28s} {status.done}/{status.total} cells stored")
        print(f"{'TOTAL':28s} {done}/{total} cells stored "
              f"({'complete' if done == total else f'{total - done} pending'})")
        return 0

    if args.sweep_command == "run":
        budget = args.max_cells
        if args.workers is not None and args.workers > 1 and budget is not None:
            raise UsageError("--workers and --max-cells are mutually exclusive")
        tracer = None
        if args.trace:
            from ..obs import tracer_for_store

            tracer = tracer_for_store(store.backend)
        ran = cached = pending = 0
        for spec in specs:
            campaign = Campaign(
                spec, store, shards=args.shards, max_workers=args.max_workers,
                workers=args.workers, tracer=tracer, profile=args.profile,
            )
            report = campaign.run(max_cells=budget)
            ran += len(report.ran)
            cached += len(report.cached)
            pending += len(report.pending)
            print(
                f"{spec.name:28s} ran {len(report.ran)}, "
                f"cached {len(report.cached)}, pending {len(report.pending)}"
            )
            if budget is not None:
                budget -= len(report.ran)
        print(f"{'TOTAL':28s} ran {ran}, cached {cached}, pending {pending}")
        return 0

    # sweep show: one table per spec, in expansion order — or, with
    # --json, every stored cell as one canonical repro.frame/1 document
    # (byte-compatible with the 'sweep serve' /frame endpoint)
    if args.json:
        from ..store import Frame, record_row

        rows = []
        for spec in specs:
            for key in spec.expand():
                record = store.get(key)
                if record is not None:
                    rows.append(record_row(record))
        print(Frame(rows).to_json(indent=2))
        return 0
    for spec in specs:
        cells = spec.expand()
        columns = (
            [f"g_{a}" for a in sorted(spec.graph_grid)]
            + sorted(spec.params_grid)
            + ["trials", "mean", "ci95_half_width", "failures", "engine"]
        )
        rows = []
        for key in cells:
            record = store.get(key)
            if record is None:
                row = {f"g_{a}": v for a, v in key.graph_params}
                row.update(dict(key.params))
                row["trials"] = key.trials
                row["engine"] = "(pending)"
                rows.append(row)
            else:
                from ..store import record_row

                rows.append(record_row(record))
        from ..analysis import Table

        print(Table.from_rows(rows, columns, title=f"{spec.name} [{args.scale}]").render())
        print()
    return 0


def _serve_main(args: argparse.Namespace) -> int:
    """``sweep serve``: run the HTTP front end until SIGTERM/SIGINT."""
    import signal

    from ..store.service import make_server

    store = _open_store(args.store, allow_memory=True)
    tracer = None
    if args.trace:
        from ..obs import tracer_for_store

        tracer = tracer_for_store(store.backend)
    server = make_server(store, host=args.host, port=args.port, tracer=tracer)
    host, port = server.server_address[:2]
    # the one line process supervisors (and the CI smoke) parse for the
    # bound port, so --port 0 is usable
    print(f"serving {store.location} at http://{host}:{port}", flush=True)

    def _stop(signum: int, frame: object) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _stop)
    try:
        server.serve_forever()
    except (SystemExit, KeyboardInterrupt):
        pass
    finally:
        server.server_close()
    print("serve: stopped", file=sys.stderr)
    return 0


def _work_loop_main(args: argparse.Namespace) -> int:
    """``sweep work --loop``: the declared-sweeps polling daemon.

    Each round: read the store's ``sweeps.jsonl`` registry, drain every
    declared sweep's pending cells (coordinating through the claim
    ledger exactly like a one-shot ``sweep work``), then sleep the poll
    interval with deterministic per-owner jitter (0.5×–1.5×, seeded
    from the owner id) so a fleet of daemons started together never
    polls in lockstep.  SIGTERM stops cleanly: an in-flight cell's
    lease is abandoned (the drain loop's release-on-failure path), so
    another worker reclaims it immediately rather than waiting out the
    TTL.
    """
    import hashlib
    import random
    import signal

    from ..store import dispatch

    store = _open_store(args.store)
    owner = args.owner if args.owner is not None else dispatch.default_owner()
    ttl = args.ttl if args.ttl is not None else dispatch.DEFAULT_TTL
    # deterministic per-owner jitter: no wall-clock or OS entropy needed,
    # and two daemons only share a phase if they share an owner id
    jitter = random.Random(
        int(hashlib.sha256(owner.encode("utf-8")).hexdigest()[:8], 16)
    )
    tracer = None
    if args.trace:
        from ..obs import tracer_for_store

        tracer = tracer_for_store(store.backend, worker=owner)

    def _stop(signum: int, frame: object) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _stop)
    rounds = 0
    try:
        while True:
            for decl in dispatch.declared_sweeps(store.backend):
                try:
                    specs = _build_specs(
                        decl["name"], scale=decl["scale"], seed=decl["seed"]
                    )
                except UsageError as exc:
                    # a registry line this build does not know — another
                    # worker's sweep, not this daemon's problem
                    print(f"skipping declaration: {exc}", file=sys.stderr)
                    continue
                report = dispatch.drain(
                    specs,
                    store,
                    owner=owner,
                    ttl=ttl,
                    max_cells=args.max_cells,
                    shards=args.shards,
                    max_workers=args.max_workers,
                    wait=False,
                    tracer=tracer,
                )
                if report.ran:
                    print(
                        f"worker {owner}: {decl['name']} ran "
                        f"{len(report.ran)} cell(s)",
                        flush=True,
                    )
            rounds += 1
            if args.max_rounds is not None and rounds >= args.max_rounds:
                return 0
            time.sleep(args.interval * (0.5 + jitter.random()))
    except SystemExit:
        # SIGTERM mid-drain lands here *after* the in-flight lease was
        # abandoned (drain releases on any BaseException) — clean exit
        print(f"worker {owner}: stopped on signal", file=sys.stderr)
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
