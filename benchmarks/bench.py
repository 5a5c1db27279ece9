"""One benchmark for the batched engines, and the gate over it.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench.py [--against BENCH_engines.json]

It times one case per registered ProcessSpec × metric with a batched
engine (``batch_cover`` / ``batch_hit``), all on ``grid(16, 2)``, plus
the fixed cells the earlier per-engine benches tracked: cobra cover on
``grid(32, 2)``, four engines on ``hypercube_oracle(17)`` and cobra
cover on the four arithmetic oracles.  For every case it records:

* vectorized and serial CPU time, each the median of ``ROUNDS`` runs,
  with the cases and both strategies interleaved round by round;
* their ratio, serial over vectorized (CSR cases only: the serial path
  cannot step an oracle);
* ``trial_steps`` and ``rng_draws`` from the engine counters of one
  traced vectorized run, and from them ns per trial-step and per draw;
* the ns figures scaled by sweepbench's host speed probe, so they read
  as ns on a host where the probe takes 40 ms.

The run is written to ``$BENCH_OUT/BENCH_engines.json`` (default
``bench-artifacts/``).  With ``--against`` it is then gated by
:func:`compare`, and the command exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "sweepbench")]
try:
    from _emit import emit_bench_json
    from run import HostSpeed  # sweepbench/run.py
finally:
    del sys.path[:2]

SEED = 2016
#: timed runs per case and strategy, after one warm-up round
ROUNDS = 15
#: the largest tolerated slowdown of a gated figure
LIMIT = 0.20
#: the vectorized/serial ratio every batched engine is meant to reach
BAR = 3.0
#: the host fingerprint; raw CPU ms are compared only when it matches
FINGERPRINT = ("hostname", "cpu_count", "machine", "python", "numpy_version")

GRID = "grid(16, 2)"
HC17 = "hypercube_oracle(17)"
ORACLES = ("torus_oracle(99, 2)", "hypercube_oracle(13)",
           "circulant_oracle(10001, (1, 2, 5))", "kronecker_oracle(K3, 8)")
#: the only non-default process knobs in the case table
PARAMS = {"parallel": {"walkers": 4}, "coalescing": {"walkers": 64}}
#: the biased walk's controller keeps it near its target, so it never
#: covers the grid; its cover case runs to a fixed budget instead
BUDGETS = {"biased": 1000}


def _graph(label: str):
    from repro import graphs as G

    return {
        "grid(16, 2)": lambda: G.grid(16, 2),
        "grid(32, 2)": lambda: G.grid(32, 2),
        HC17: lambda: G.hypercube_oracle(17),
        ORACLES[0]: lambda: G.torus_oracle(99, 2),
        ORACLES[1]: lambda: G.hypercube_oracle(13),
        ORACLES[2]: lambda: G.circulant_oracle(10_001, (1, 2, 5)),
        ORACLES[3]: lambda: G.kronecker_oracle((0, 1, 1, 1, 0, 1, 1, 1, 0), 8),
    }[label]()


@dataclass
class Case:
    """One timed ``run_batch`` call: a process, metric and graph."""

    process: str
    metric: str
    graph: str
    trials: int
    params: dict = field(default_factory=dict)
    serial: bool = True

    @property
    def name(self) -> str:
        return f"{self.process}/{self.metric}@{self.graph}"


def registry_cases() -> list[Case]:
    """One case per registered process × metric with a batched engine."""
    from repro.graphs import grid
    from repro.sim import all_processes
    from repro.sim.facade import select_execution_path

    last = grid(16, 2).n - 1
    cases = []
    for spec in all_processes():
        for metric in sorted(spec.capabilities - {"multi_source"}):
            try:
                select_execution_path(spec, metric, strategy="vectorized")
            except ValueError:
                continue
            params = {"target": last, **PARAMS.get(spec.name, {})}
            if spec.name in BUDGETS:
                params["max_steps"] = BUDGETS[spec.name]
            cases.append(Case(spec.name, metric, GRID, 32, params))
    return cases


def fixed_cases() -> list[Case]:
    """The cells the per-engine benches gated before this harness."""
    return [
        Case("cobra", "cover", "grid(32, 2)", 32),
        Case("cobra", "cover", HC17, 64, {"max_steps": 10}, serial=False),
        Case("parallel", "cover", HC17, 64, {"walkers": 4, "max_steps": 192}, serial=False),
        Case("walt", "cover", HC17, 64, {"delta": 0.02, "max_steps": 48}, serial=False),
        Case("simple", "hit", HC17, 64, {"target": (1 << 17) - 1, "max_steps": 4096},
             serial=False),
        *(Case("cobra", "cover", g, 2, {"max_steps": 64}, serial=False) for g in ORACLES),
    ]


def measure(cases: list[Case], rounds: int = ROUNDS) -> dict:
    """Time *cases* and return the JSON-safe benchmark document."""
    import numpy as np

    from repro.obs.trace import Tracer, activate
    from repro.sim import get_process, run_batch

    graphs = {label: _graph(label) for label in {c.graph for c in cases}}
    speed = HostSpeed()
    cpu: dict[tuple[str, str], list[float]] = defaultdict(list)
    serial_steps: dict[str, int] = {}

    def run(case: Case, strategy: str):
        return run_batch(graphs[case.graph], case.process, metric=case.metric,
                         trials=case.trials, seed=SEED, strategy=strategy, **case.params)

    for r in range(rounds + 1):  # round 0 warms imports and allocator pools
        for case in cases:
            for strategy in ("serial", "vectorized") if case.serial else ("vectorized",):
                t0 = time.process_time()
                summary = run(case, strategy)
                cpu[case.name, strategy].append(time.process_time() - t0)
                if strategy == "serial" and not r:
                    # the serial path has no counters: sum the steps, a
                    # censored trial counting its budget
                    budget = case.params.get("max_steps") or get_process(
                        case.process).default_budget(graphs[case.graph], case.params)
                    serial_steps[case.name] = int(
                        np.where(np.isnan(summary.values), budget, summary.values).sum())
        speed.sample()

    def per(cpu_s: float, count) -> float | None:
        return round(cpu_s * 1e9 / count, 3) if count else None

    rows = []
    for case in cases:
        tracer = Tracer()
        with activate(tracer), tracer.span("case"):
            run(case, "vectorized")
        counters = tracer.spans[-1].counters
        steps, draws = counters.get("trial_steps"), counters.get("rng_draws")
        vec_s = statistics.median(cpu[case.name, "vectorized"][1:])
        row = {
            "case": case.name, "trials": case.trials, "params": case.params,
            "vectorized_ms": round(vec_s * 1e3, 3),
            "trial_steps": steps, "rng_draws": draws,
            "ns_per_trial_step": per(vec_s, steps),
            "ns_per_draw": per(vec_s, draws),
            "scaled_ns_per_trial_step": per(speed.scale(vec_s), steps),
            "scaled_ns_per_draw": per(speed.scale(vec_s), draws),
        }
        if case.serial:
            ser_s = statistics.median(cpu[case.name, "serial"][1:])
            ser_steps = serial_steps[case.name]
            row.update(serial_ms=round(ser_s * 1e3, 3), ratio=round(ser_s / vec_s, 3),
                       serial_trial_steps=ser_steps,
                       serial_scaled_ns_per_trial_step=per(speed.scale(ser_s), ser_steps))
        rows.append(row)
    return {
        "seed": SEED, "rounds": rounds, "limit": LIMIT, "bar": BAR,
        "probe_ms": round(speed.probe_s * 1e3, 3),
        "probe_samples_ms": [round(x * 1e3, 2) for x in speed.samples],
        "cases": rows,
    }


#: figures gated on every host, lower is better
SCALED = ("scaled_ns_per_trial_step", "serial_scaled_ns_per_trial_step")
#: figures gated only on the baseline's own host
RAW = ("vectorized_ms", "serial_ms")


def compare(baseline: dict, fresh: dict | None) -> list[str]:
    """The gate: every reason *fresh* fails against *baseline*.

    A baseline case fails when it has no fresh counterpart, when a
    probe-scaled ns/trial-step figure it carries grew by more than
    :data:`LIMIT`, when its vectorized/serial ratio fell below the
    baseline's divided by ``1 + LIMIT``, or when that ratio fell under
    :data:`BAR` from at or above it.  Raw CPU ms are held to the same
    limit only when the two host fingerprints match.  A fresh case
    with no baseline fails too.  An empty list is a pass.
    """
    if not fresh or not fresh.get("cases"):
        return ["the fresh run measured no cases"]
    same_host = all(baseline.get(k) == fresh.get(k) for k in FINGERPRINT)
    new = {c["case"]: c for c in fresh["cases"]}
    base_names = {c["case"] for c in baseline["cases"]}
    failures = [f"{name}: no committed baseline" for name in new if name not in base_names]
    for base in baseline["cases"]:
        name = base["case"]
        cur = new.get(name)
        if cur is None:
            failures.append(f"{name}: no fresh measurement")
            continue
        for key in SCALED + (RAW if same_host else ()) + ("ratio",):
            was, now = base.get(key), cur.get(key)
            if was is None:
                continue
            if now is None:
                failures.append(f"{name}: {key} missing")
            elif key == "ratio" and now < was / (1 + LIMIT):
                failures.append(f"{name}: ratio {was:.2f}x -> {now:.2f}x")
            elif key == "ratio" and now < BAR <= was:
                failures.append(f"{name}: ratio {now:.2f}x fell under the {BAR:g}x bar")
            elif key != "ratio" and now > was * (1 + LIMIT):
                failures.append(f"{name}: {key} {was:g} -> {now:g} "
                                f"(+{(now / was - 1) * 100:.0f}%)")
    return failures


def _table(fresh: dict, baseline: dict | None) -> str:
    base = {c["case"]: c for c in (baseline or {}).get("cases", [])}
    lines = [f"{'case':<52} {'vec ms':>9} {'ser ms':>9} {'ratio':>6} "
             f"{'ns/step*':>10} {'base':>10} {'delta':>7}"]
    for c in fresh["cases"]:
        now = c["scaled_ns_per_trial_step"]
        was = base.get(c["case"], {}).get("scaled_ns_per_trial_step")
        ratio = c.get("ratio")
        lines.append(
            f"{c['case']:<52} {c['vectorized_ms']:>9.1f} {c.get('serial_ms') or 0:>9.1f} "
            f"{f'{ratio:.2f}' if ratio else '-':>6} {now or 0:>10.1f} {was or 0:>10.1f} "
            + (f"{(now / was - 1) * 100:>+6.1f}%" if now and was else "      -")
            + ("  under the bar" if ratio and ratio < BAR else "")
        )
    lines.append(f"* probe-scaled; probe {fresh['probe_ms']:.1f} ms; "
                 f"medians of {fresh['rounds']} rounds")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="PATH",
                        help="baseline document to gate the run against")
    args = parser.parse_args(argv)
    baseline = None
    if args.against:
        try:
            baseline = json.loads(Path(args.against).read_text(encoding="utf-8"))
            if not isinstance(baseline, dict) or not isinstance(baseline.get("cases"), list):
                raise ValueError("no case list: not an engine benchmark document")
        except (OSError, ValueError) as exc:
            print(f"error: cannot read the baseline {args.against}: {exc}", file=sys.stderr)
            return 1
    if hasattr(os, "sched_setaffinity"):  # the probe times the CPU the engines ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    path = emit_bench_json("engines", measure(registry_cases() + fixed_cases()))
    fresh = json.loads(path.read_text(encoding="utf-8"))
    print(_table(fresh, baseline))
    if baseline is None:
        return 0
    failures = compare(baseline, fresh)
    for line in failures:
        print(f"FAIL {line}")
    print(f"{len(failures)} failure(s) against {args.against}" if failures
          else f"pass: {len(fresh['cases'])} cases within {LIMIT:.0%} of {args.against}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
