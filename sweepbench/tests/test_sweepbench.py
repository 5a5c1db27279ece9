"""Self-test of the sweep benchmark harness at ``--tiny`` sizes.

Every workload runs traced and untraced; every metric ``BENCHMARK.json``
names is present with its unit; traced and untraced units produce the
same output fingerprint; and a copy of the benchmark without the
package refuses to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    out = subprocess.run(
        [sys.executable, str(cwd / "sweepbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return out.returncode, out.stdout.strip().splitlines()


def _fingerprint(lines: list[str]) -> object:
    header = next(line for line in lines if line.startswith("# sweepbench "))
    return json.loads(header.split("fingerprint=", 1)[1].split(" host=", 1)[0])


@pytest.fixture(scope="module")
def results() -> dict[tuple[str, int], tuple[int, list[str]]]:
    return {
        (w["name"], trace): _run(w["name"], trace)
        for w in SPEC["workloads"]
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_every_metric(results, trace, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in SPEC["workloads"]:
        code, lines = results[(workload["name"], trace)]
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, workload["name"]
        assert all(
            isinstance(m["value"], (int, float)) for m in result["metrics"].values()
        )


@pytest.mark.parametrize("workload", ["paper_sweep", "cell_drain"])
def test_traced_and_untraced_fingerprints_agree(results, workload):
    (untraced,) = _fingerprint(results[(workload, 0)][1])
    assert _fingerprint(results[(workload, 1)][1]) == [untraced]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "sweepbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, lines = _run("cell_drain", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
