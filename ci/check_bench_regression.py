"""Benchmark regression gate: fresh ``BENCH_*.json`` vs committed baselines.

CI regenerates every benchmark document into an artifact directory;
this script compares each lower-is-better timing (any numeric field
whose name ends in ``_ms``, at the top level or inside ``cases``
entries) against the baseline committed at the repo root and fails
when a tracked engine slowed down by more than the threshold.

The full trajectory — baseline, fresh, delta — prints as a table
either way, so the uploaded CI log doubles as a perf history entry.

Missing *individual* counterparts never fail the gate, only warn: a
brand-new benchmark has no baseline yet, a retired baseline has no
fresh run, and timings whose value is ``null`` are structurally absent
rather than regressed.
But baselines with an entirely empty fresh directory fail hard — that
means the benchmark step itself broke, and warning through it would
let a dead bench job pass forever.

Usage::

    python ci/check_bench_regression.py --fresh bench-artifacts \\
        [--baseline .] [--threshold 0.20]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def collect_metrics(doc: dict) -> dict[str, float]:
    """Flatten a benchmark document to ``{metric path: milliseconds}``.

    Top-level ``*_ms`` fields keep their name; ``cases`` entries are
    keyed by their identifying field (``engine``, ``topology``, or the
    index) — ``cases[hypercube].cover_ms``.  Null timings are skipped.
    """
    out: dict[str, float] = {}
    for key, value in doc.items():
        if key.endswith("_ms") and isinstance(value, (int, float)):
            out[key] = float(value)
    for i, case in enumerate(doc.get("cases", [])):
        if not isinstance(case, dict):
            continue
        label = case.get("engine") or case.get("topology") or str(i)
        for key, value in case.items():
            if key.endswith("_ms") and isinstance(value, (int, float)):
                out[f"cases[{label}].{key}"] = float(value)
    return out


def load_bench_docs(directory: Path) -> dict[str, dict]:
    """``{bench name: document}`` for every BENCH_*.json in *directory*."""
    docs = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        docs[doc.get("bench", path.stem[len("BENCH_"):])] = doc
    return docs


def compare(
    baseline: dict[str, dict],
    fresh: dict[str, dict],
    threshold: float,
) -> tuple[list[tuple[str, str, float, float, float]], list[str]]:
    """Return (rows, warnings); a row is (bench, metric, base, new, ratio)."""
    rows: list[tuple[str, str, float, float, float]] = []
    warnings: list[str] = []
    for name in sorted(baseline):
        if name not in fresh:
            warnings.append(f"baseline {name!r} has no fresh run — skipped")
            continue
        base_metrics = collect_metrics(baseline[name])
        new_metrics = collect_metrics(fresh[name])
        for metric in sorted(base_metrics):
            if metric not in new_metrics:
                warnings.append(
                    f"{name}:{metric} missing from the fresh run — skipped"
                )
                continue
            base, new = base_metrics[metric], new_metrics[metric]
            ratio = new / base if base > 0 else 1.0
            rows.append((name, metric, base, new, ratio))
    for name in sorted(set(fresh) - set(baseline)):
        warnings.append(f"fresh {name!r} has no committed baseline yet")
    return rows, warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fresh", required=True, help="directory with freshly emitted BENCH_*.json"
    )
    parser.add_argument(
        "--baseline", default=".", help="directory with committed baselines"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximal tolerated slowdown fraction (0.20 = +20%%)",
    )
    args = parser.parse_args(argv)

    baseline = load_bench_docs(Path(args.baseline))
    fresh = load_bench_docs(Path(args.fresh))
    if not baseline:
        print(f"no baselines under {args.baseline!r}; nothing to gate")
        return 0
    if not fresh:
        # baselines exist but the fresh run produced nothing at all:
        # that's a broken benchmark step (crash, wrong directory), not
        # a per-metric gap — warning through it would let a silently
        # dead bench job pass the gate forever
        print(
            f"error: {len(baseline)} committed baseline(s) but no fresh "
            f"BENCH_*.json under {args.fresh!r} — the benchmark step "
            "emitted nothing",
            file=sys.stderr,
        )
        return 1
    rows, warnings = compare(baseline, fresh, args.threshold)

    width = max((len(f"{b}:{m}") for b, m, *_ in rows), default=20)
    print(f"{'metric':<{width}}  {'base ms':>10}  {'fresh ms':>10}  {'delta':>8}")
    failures = 0
    for bench, metric, base, new, ratio in rows:
        slow = ratio > 1.0 + args.threshold
        failures += slow
        flag = "  REGRESSED" if slow else ""
        print(
            f"{bench + ':' + metric:<{width}}  {base:>10.2f}  {new:>10.2f}  "
            f"{(ratio - 1) * 100:>+7.1f}%{flag}"
        )
    for w in warnings:
        print(f"warning: {w}")
    if failures:
        print(
            f"{failures} timing(s) regressed more than "
            f"{args.threshold * 100:.0f}% vs the committed baselines"
        )
        return 1
    print(f"all {len(rows)} tracked timings within {args.threshold * 100:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
