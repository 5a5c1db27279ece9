"""One benchmark for the sweep pipeline, end to end and per layer.

Run from the repository root::

    python3 sweepbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists):

* ``paper_sweep`` — ``Campaign.run()`` of the paper's 2-cobra regimes
  and their simple-walk baselines into a fresh on-disk store;
* ``cell_drain`` — one in-process ``store.dispatch.drain`` worker
  committing 180 tiny cells into a fresh ``LocalBackend`` store;
* ``serve_reads`` — a closed loop of ``/cell`` and ``/frame`` requests,
  one in flight, over one keep-alive connection to ``sweep serve``.

One *operation* is a committed cell on the first two workloads and an
answered request on ``serve_reads``; one *unit* is the whole campaign,
the whole drain, or one pass over the request mix.  Units repeat while
one more still fits in ``--seconds``.  Work done in one process is timed
on its CPU clock, which leaves out time a shared host steals; request
latency on ``serve_reads`` is wall-clock (see the README).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced units and prints the per-layer metrics (see
``layers.py``), writing the spans to ``.sweepbench/``.  Every unit's
output is checked against a reference computed from the same seed by a
plain ``Campaign.run()`` (cells) or an in-process ``SweepService.handle``
(responses); any mismatch, missing cell or unexpected status counts as
failed and the command exits 1.  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from layers import ROUTES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".sweepbench"

END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "unit.wall_s": "s",
    "unit.cpu_s": "s",
    "host.probe_ms": "ms",
    "cli.import_s": "s",
    "cli.import_scipy_sparse_s": "s",
    "spec.expand_s": "s",
    "spec.cells": "count",
    "graphs.build_s": "s",
    "graphs.builds": "count",
    "sim.run_batch_s": "s",
    "sim.calls": "count",
    "sim.share": "frac",
    "sim.trial_steps": "count",
    "sim.trial_steps_per_s": "1/s",
    "sim.cobra.ns_per_trial_step": "ns",
    "sim.simple.ns_per_trial_step": "ns",
    "sim.push.ns_per_trial_step": "ns",
    "campaign.run_cell_self_ms": "ms",
    "store.put_ms.p50": "ms",
    "store.put_calls": "count",
    "store.get_calls": "count",
    "store.get_s": "s",
    "store.frame_ms.p50": "ms",
    "store.frame_rows": "count",
    "backend.read_blob_calls": "count",
    "backend.read_blob_s": "s",
    "backend.read_blob_bytes": "bytes",
    "backend.append_line_calls": "count",
    "backend.append_line_s": "s",
    "backend.cas_calls": "count",
    "backend.cas_conflicts": "count",
    "backend.cas_s": "s",
    "dispatch.try_claim_ms.p50": "ms",
    "dispatch.try_claim_ms.p95": "ms",
    "dispatch.claims": "count",
    "dispatch.ledger_bytes_read": "bytes",
    "dispatch.claim_win_ratio": "frac",
    "storage.share": "frac",
    **{f"service.{route}_ms.p50": "ms" for route in ROUTES},
    "service.frame_rows_scanned": "count",
    "service.frame_bytes_hashed": "bytes",
    **{f"http.overhead_ms.{route}": "ms" for route in ROUTES},
    "obs.trace_overhead_frac": "frac",
}

#: a seed kept out of tuning: re-check a performance claim on it
HELD_OUT_SEED = 90_001

#: fresh-interpreter set-ups per run; ``setup_s`` is their median
SETUP_PROBES = 5
#: fresh-interpreter imports per traced run for the ``cli.*`` metrics
IMPORT_PROBES = 3
#: a child that never reaches its ready line is killed after this long
CHILD_TIMEOUT_S = 60.0

_PREPARE = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.prepare(sys.argv[3], int(sys.argv[4]), sys.argv[5], tiny=sys.argv[6] == "1")
print("ready", flush=True)
sys.stdin.read()
"""

_IMPORT_CLI = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import repro.experiments.cli
print(time.perf_counter() - t0, flush=True)
"""

#: CPU seconds of one speed probe on the reference host; CPU figures are
#: scaled by this over the probe's median in the run, so they read as
#: CPU seconds on a host where the probe takes this long
REFERENCE_PROBE_S = 0.040
#: speed probes per sample; a sample is their median
PROBE_REPEATS = 3


class HostSpeed:
    """How fast this host runs a fixed probe now, to scale CPU times by.

    A shared VM slows down and speeds up for minutes at a time, by up to
    twice, as other guests load the physical cores; CPU time slows down
    with it.  The probe mixes interpreter work and numpy sorting and
    gathering, like the workloads, but runs no repository code, so a
    change to the program cannot move it.  Samples are taken between
    units; the median over the run is the host's speed.
    """

    def __init__(self) -> None:
        import numpy as np

        self._perm = np.random.default_rng(0).permutation(200_000)
        self.samples: list[float] = []

    def _probe(self) -> float:
        import numpy as np

        perm = self._perm
        c0 = time.process_time()
        acc, table = 0, {}
        for i in range(150_000):
            table[i & 1023] = acc
            acc += i
        for _ in range(4):
            perm[perm[np.sort(perm)[:100_000]]]
        return time.process_time() - c0

    def sample(self) -> None:
        self.samples.append(statistics.median(self._probe() for _ in range(PROBE_REPEATS)))

    @property
    def probe_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self, cpu_s: float) -> float:
        """*cpu_s* as CPU seconds on the reference host."""
        return cpu_s * REFERENCE_PROBE_S / self.probe_s


@dataclass
class Context:
    """One benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    workdir: Path
    speed: HostSpeed

    @property
    def probes(self) -> int:
        return 1 if self.tiny else SETUP_PROBES


@dataclass
class Outcome:
    """What a workload runner measured."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    fingerprint: Any
    recorder: Any = None


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{extra}" if extra else str(SRC)
    return env


def _cpu_s(pid: int) -> float:
    """CPU seconds used so far by every live thread of process *pid*.

    Read from ``/proc/<pid>/task/*/schedstat`` (nanoseconds on the CPU),
    which, like ``time.process_time``, leaves out time the hypervisor
    gave to other guests.
    """
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:  # the thread ended after listdir
            pass
    return total / 1e9


def _stop(proc: subprocess.Popen) -> None:
    """Terminate *proc* (if still running) and wait for it to end."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


def _until_line(cmd: list[str], prefix: str, log: Path) -> tuple[float, str, subprocess.Popen]:
    """Start *cmd* and read its stdout until a line starts with *prefix*.

    Returns the CPU seconds the child had used by then, the line, and
    the still-running process.
    """
    with open(log, "a", encoding="utf-8") as err:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=err, text=True,
        )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith(prefix):
                return _cpu_s(proc.pid), line.strip(), proc
    finally:
        watchdog.cancel()
    _stop(proc)
    raise RuntimeError(f"{cmd[:4]} exited without printing {prefix!r}; see {log}")


def _probe_setup(ctx: Context) -> list[float]:
    """Fresh-interpreter set-up CPU times of a cell workload."""
    times = []
    for i in range(ctx.probes):
        ctx.speed.sample()
        store = ctx.workdir / f"probe-{i}"
        cmd = [sys.executable, "-c", _PREPARE, str(SRC), str(BENCH), ctx.workload,
               str(ctx.seed), str(store), "1" if ctx.tiny else "0"]
        cpu, _, proc = _until_line(cmd, "ready", ctx.workdir / "children.log")
        _stop(proc)
        times.append(cpu)
    return times


def _cli_import_metrics(ctx: Context) -> dict[str, float]:
    """``cli.import_s`` and the ``scipy.sparse`` part of it, cold."""
    runs = 1 if ctx.tiny else IMPORT_PROBES
    wall, sparse = [], []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_CLI, str(SRC)], cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        wall.append(float(out.stdout.strip().splitlines()[-1]))
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _IMPORT_CLI, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        cumulative_us = 0
        for line in out.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.sparse":
                cumulative_us = int(parts[1].strip())
        sparse.append(cumulative_us / 1e6)
    return {
        "cli.import_s": statistics.median(wall),
        "cli.import_scipy_sparse_s": statistics.median(sparse),
    }


def _unit_metrics(ctx: Context, walls: list[float], cpus: list[float]) -> dict[str, float]:
    """Unscaled wall and CPU seconds of an untraced unit, and the probe."""
    return {
        "unit.wall_s": statistics.median(walls),
        "unit.cpu_s": statistics.median(cpus),
        "host.probe_ms": 1e3 * ctx.speed.probe_s,
    }


def _room_for_another(started: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, as long as the average so far, fits in *seconds*.

    Rounds never overshoot the measuring time, so a run's length does
    not grow with the length of its unit of work.
    """
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / rounds <= seconds


# ----------------------------------------------------------------------
# paper_sweep and cell_drain
# ----------------------------------------------------------------------

def _run_cells(ctx: Context) -> Outcome:
    import workloads
    from layers import Recorder, TimingBackend, instrument, quantile, summarise
    from repro.obs.memory import peak_rss_mb
    from repro.store.backend import LocalBackend
    from repro.store.campaign import Campaign
    from repro.store.dispatch import drain
    from repro.store.store import ResultStore

    specs = workloads.specs_for(ctx.workload, ctx.seed, tiny=ctx.tiny)
    cells = workloads.unique_cells(specs)
    setup = [] if ctx.trace else _probe_setup(ctx)

    reference = ResultStore()
    for spec in specs:
        Campaign(spec, reference).run()
    want = workloads.store_digests(reference, cells)

    rec = Recorder()
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    cell_cpus: dict[str, list[float]] = {key.hash: [] for key in cells}
    failed = 0
    fingerprints = set()

    def unit(traced: bool) -> None:
        nonlocal failed
        store_dir = ctx.workdir / f"store-{len(walls[False]) + len(walls[True])}"
        if traced:
            store = ResultStore(backend=TimingBackend(LocalBackend(store_dir), rec))
        else:
            store = ResultStore(store_dir)
        marks: list[tuple[str, float]] = []

        def on_cell(key, record, cached) -> None:
            if not cached:
                marks.append((key.hash, time.process_time()))

        with instrument(rec) if traced else nullcontext():
            t0 = time.perf_counter()
            c0 = time.process_time()
            if ctx.workload == "paper_sweep":
                for spec in specs:
                    Campaign(spec, store).run(on_cell=on_cell)
            else:
                drain(specs, store, owner="sweepbench", on_cell=on_cell)
            c1 = time.process_time()
            t1 = time.perf_counter()
        walls[traced].append(t1 - t0)
        if not traced:
            cpus.append(c1 - c0)
            last = c0
            for h, mark in marks:
                cell_cpus[h].append(mark - last)
                last = mark
        got = workloads.store_digests(ResultStore(store_dir), cells)
        failed += workloads.count_mismatches(got, want)
        fingerprints.add(workloads.fingerprint(got))
        shutil.rmtree(store_dir)

    started = time.perf_counter()
    rounds = 0
    while True:
        ctx.speed.sample()
        unit(False)
        if ctx.trace:
            unit(True)
        rounds += 1
        if not _room_for_another(started, rounds, ctx.seconds):
            break
    ctx.speed.sample()
    units = len(walls[False]) + len(walls[True])
    failed += len(fingerprints) - 1  # traced and untraced units must agree
    out = Outcome(metrics={}, attempted=units * len(cells), failed=failed,
                  fingerprint=sorted(fingerprints))
    if ctx.trace:
        out.metrics.update(_cli_import_metrics(ctx))
        out.metrics.update(summarise(rec, iterations=len(walls[True]),
                                     traced_wall_s=sum(walls[True])))
        out.metrics.update({f"http.overhead_ms.{r}": 0.0 for r in ROUTES})
        out.metrics.update(_unit_metrics(ctx, walls[False], cpus))
        out.metrics["obs.trace_overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        out.recorder = rec
        return out
    # a cell's latency is its median over the units, so the p95 picks a
    # cell, not the slowest unit's copy of the largest cell
    per_cell = [statistics.median(v) for v in cell_cpus.values() if v]
    committed = sum(len(v) for v in cell_cpus.values())
    scale = ctx.speed.scale
    out.metrics = {
        "setup_s": scale(statistics.median(setup)),
        "cpu_s": scale(statistics.median(cpus)),
        "ops_per_s": committed / scale(sum(cpus)),
        "op_p95_ms": 1e3 * scale(quantile(per_cell, 0.95)),
        "peak_rss_mb": peak_rss_mb(),
    }
    return out


# ----------------------------------------------------------------------
# serve_reads
# ----------------------------------------------------------------------

def _peak_rss_of(pid: int) -> float:
    """A live process's peak RSS in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _run_serve(ctx: Context) -> Outcome:
    import workloads
    from layers import Recorder, TimingBackend, instrument, quantile, summarise
    from repro.store.backend import LocalBackend
    from repro.store.campaign import Campaign
    from repro.store.service import SweepService
    from repro.store.store import ResultStore

    specs = workloads.specs_for("serve_reads", ctx.seed, tiny=ctx.tiny)
    cells = workloads.unique_cells(specs)
    store_dir = ctx.workdir / "store"
    store = ResultStore(store_dir)
    for spec in specs:
        Campaign(spec, store).run()

    reference = SweepService(ResultStore(store_dir))
    plan = workloads.bind_etags(
        workloads.request_plan(ctx.seed, cells, tiny=ctx.tiny), reference)
    want = []
    failed = 0
    for kind, path, headers in plan:
        status, _, body = reference.handle("GET", path, headers=headers)
        failed += status != workloads.EXPECTED_STATUS[kind]
        want.append(workloads.response_digest(status, body))

    serve = [sys.executable, "-m", "repro.experiments", "sweep", "serve",
             "--store", str(store_dir), "--port", "0"]
    setup: list[float] = []
    server = None
    try:
        for _ in range(1 if ctx.trace else ctx.probes):
            if server is not None:
                _stop(server)
            ctx.speed.sample()
            cpu, line, server = _until_line(serve, "serving ",
                                            ctx.workdir / "server.log")
            setup.append(cpu)
        port = int(line.rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        walls: list[float] = []
        server_cpus: list[float] = []
        latency: dict[str, list[float]] = {kind: [] for kind in ROUTES}
        http_seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
        attempted = len(plan)
        started = time.perf_counter()
        try:
            while True:
                ctx.speed.sample()
                t_pass = time.perf_counter()
                c_pass = _cpu_s(server.pid)
                for (kind, path, headers), digest in zip(plan, want):
                    t0 = time.perf_counter()
                    conn.request("GET", path, headers=headers)
                    resp = conn.getresponse()
                    body = resp.read()
                    latency[kind].append(time.perf_counter() - t0)
                    failed += workloads.response_digest(resp.status, body) != digest
                server_cpus.append(_cpu_s(server.pid) - c_pass)
                walls.append(time.perf_counter() - t_pass)
                attempted += len(plan)
                if not _room_for_another(started, len(walls), http_seconds):
                    break
        finally:
            conn.close()
        server_rss = _peak_rss_of(server.pid)
    finally:
        if server is not None:
            _stop(server)

    if not ctx.trace:
        pooled = [t for values in latency.values() for t in values]
        return Outcome(
            metrics={
                "setup_s": ctx.speed.scale(statistics.median(setup)),
                "cpu_s": ctx.speed.scale(statistics.median(server_cpus)),
                "ops_per_s": len(pooled) / sum(walls),
                "op_p95_ms": 1e3 * quantile(pooled, 0.95),
                "peak_rss_mb": server_rss,
            },
            attempted=attempted, failed=failed,
            fingerprint=workloads.fingerprint(dict(enumerate(want))),
        )

    # traced: replay the same plan through an in-process service,
    # alternating untraced and traced passes
    rec = Recorder()
    handle_ms: dict[str, list[float]] = {kind: [] for kind in ROUTES}
    replay_walls: dict[bool, list[float]] = {False: [], True: []}
    kinds: list[str] = []
    started = time.perf_counter()
    while True:
        for traced in (False, True):
            backend = LocalBackend(store_dir)
            service = SweepService(ResultStore(
                backend=TimingBackend(backend, rec) if traced else backend))
            with instrument(rec) if traced else nullcontext():
                t_pass = time.perf_counter()
                for (kind, path, headers), digest in zip(plan, want):
                    t0 = time.perf_counter()
                    status, _, body = service.handle("GET", path, headers=headers)
                    elapsed = time.perf_counter() - t0
                    if traced:
                        kinds.append(kind)
                    else:
                        handle_ms[kind].append(1e3 * elapsed)
                    failed += workloads.response_digest(status, body) != digest
                replay_walls[traced].append(time.perf_counter() - t_pass)
            attempted += len(plan)
        if not _room_for_another(started, len(replay_walls[True]), ctx.seconds / 2):
            break
    metrics = _cli_import_metrics(ctx)
    metrics.update(summarise(rec, iterations=len(replay_walls[True]),
                             traced_wall_s=sum(replay_walls[True]),
                             request_kinds=kinds))
    for kind in ROUTES:
        client_ms = 1e3 * statistics.median(latency[kind])
        metrics[f"http.overhead_ms.{kind}"] = client_ms - statistics.median(handle_ms[kind])
    metrics.update(_unit_metrics(ctx, walls, server_cpus))
    metrics["obs.trace_overhead_frac"] = (
        statistics.median(replay_walls[True]) / statistics.median(replay_walls[False])
        - 1.0)
    return Outcome(metrics=metrics, attempted=attempted, failed=failed,
                   fingerprint=workloads.fingerprint(dict(enumerate(want))),
                   recorder=rec)


RUNNERS = {"paper_sweep": _run_cells, "cell_drain": _run_cells,
           "serve_reads": _run_serve}


def host_stamp() -> dict[str, Any]:
    """Hostname, CPU count, numpy and python versions of this machine."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from _emit import _environment_stamp
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    return _environment_stamp()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True,
                        help=f"workload seed (keep {HELD_OUT_SEED} held out of tuning)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the harness self-test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"sweepbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    # one CPU for this process and every child, so the speed probe times
    # the CPU the work ran on; serve_reads keeps one request in flight,
    # so its client and server never need to run at once
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.tiny, workdir, HostSpeed())
    try:
        out = RUNNERS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stamp = host_stamp()
    if out.recorder is not None:
        out.recorder.write(
            str(WORK / f"spans-{args.workload}.jsonl"),
            {"workload": args.workload, "seed": args.seed, "host": stamp,
             "fingerprint": out.fingerprint},
        )
    units = PER_LAYER if ctx.trace else END_TO_END
    print(f"# sweepbench {args.workload} seed={args.seed} "
          f"fingerprint={json.dumps(out.fingerprint)} host={json.dumps(stamp)}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": out.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
