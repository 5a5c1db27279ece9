"""Machine-readable benchmark output: ``BENCH_<name>.json`` files.

``benchmarks/bench.py`` writes its run through :func:`emit_bench_json`,
and CI uploads the result as a build artifact, so the perf trajectory
is a series of structured documents instead of log lines.
``BENCH_OUT`` picks the output directory (default ``bench-artifacts``).

Schema 2 stamps the execution environment into every document —
hostname, CPU count, machine, Python and numpy versions.  The gate in
``bench.py`` compares raw milliseconds only between documents whose
stamps match, and ``sweepbench/run.py`` stamps its results with the
same fields.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

#: bumped whenever a field that readers rely on changes shape; the
#: regression gate and the smoke tests pin this
SCHEMA_VERSION = 2


def _environment_stamp() -> dict:
    """The machine/toolchain fields stamped into every document."""
    import numpy

    return {
        "hostname": platform.node(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy_version": numpy.__version__,
    }


def emit_bench_json(
    name: str,
    payload: dict,
    out_dir: str | None = None,
) -> Path:
    """Write one ``BENCH_<name>.json`` document and return its path.

    Parameters
    ----------
    name : str
        Benchmark name (the file is ``BENCH_<name>.json``).
    payload : dict
        JSON-safe measurement fields (timings in milliseconds,
        speedups, case lists…).
    out_dir : str, optional
        Output directory; default ``$BENCH_OUT`` or
        ``bench-artifacts``.

    Returns
    -------
    Path
        The file written.
    """
    out = Path(out_dir or os.environ.get("BENCH_OUT") or "bench-artifacts")
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "bench": name,
        "schema": SCHEMA_VERSION,
        # provenance stamp on a build artifact — never hashed or seeded
        "created_unix": round(time.time(), 3),  # repro-lint: disable=RPL103
        **_environment_stamp(),
        **payload,
    }
    path = out / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"[bench] wrote {path}", file=sys.stderr)
    return path
