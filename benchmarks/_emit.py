"""Machine-readable benchmark output: ``BENCH_<name>.json`` files.

CI runs the benchmark scripts' ``__main__`` blocks and uploads the
JSON they emit as build artifacts, so the perf trajectory is a series
of structured documents instead of log lines.  Locally::

    BENCH_OUT=/tmp PYTHONPATH=src python benchmarks/bench_facade_batch.py

``BENCH_OUT`` picks the output directory (default: the working
directory).

Schema 2 stamps the execution environment into every document —
hostname, CPU count, machine, Python and numpy versions — so a
regression flagged by ``ci/check_bench_regression.py`` can be told
apart from a machine change at a glance.
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
        Output directory; default ``$BENCH_OUT`` or the working
        directory.

    Returns
    -------
    Path
        The file written.
    """
    out = Path(out_dir or os.environ.get("BENCH_OUT") or ".")
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
