"""The extracted CI smoke scripts are runnable and honest.

`ci/smoke_sweep_resume.py` and `ci/smoke_dispatch.py` used to be
inline YAML heredocs; as modules they are importable, run here against
temp stores, and can no longer drift from the library without a test
failure.  The benchmark JSON emitter is pinned alongside (CI uploads
its output as build artifacts).
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def load_script(relpath: str):
    """Import a non-package script (ci/, benchmarks/) as a module."""
    path = REPO / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    # registration makes dataclasses/pickling inside the script happy
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return module


class TestSweepResumeSmoke:
    def test_passes_against_a_temp_store(self, tmp_path):
        smoke = load_script("ci/smoke_sweep_resume.py")
        assert smoke.main(str(tmp_path / "store")) == 0

    def test_spec_is_the_2x2_campaign(self):
        smoke = load_script("ci/smoke_sweep_resume.py")
        assert len(smoke.build_spec().expand()) == 4


class TestDispatchSmoke:
    def test_two_process_drain_passes(self, tmp_path):
        smoke = load_script("ci/smoke_dispatch.py")
        assert smoke.main(str(tmp_path / "store")) == 0

    def test_sweep_is_registered(self):
        from repro.store import sweep_names

        smoke = load_script("ci/smoke_dispatch.py")
        assert smoke.SWEEP in sweep_names()

    def test_smoke_pins_the_event_interleaving_contract(self):
        """The smoke must keep asserting what the observability layer
        promises: two OS processes tracing into one events.jsonl, zero
        torn lines, cells × phases phase records, worker attribution."""
        source = (REPO / "ci" / "smoke_dispatch.py").read_text(encoding="utf-8")
        assert "--trace" in source
        assert "torn_lines() == 0" in source
        assert "CELL_PHASES" in source
        assert '"report"' in source or "'report'" in source

    def test_smoke_pins_the_claim_free_rerun(self):
        """A worker over the finished store must report every cell
        cached and leave the claim ledger byte-identical."""
        source = (REPO / "ci" / "smoke_dispatch.py").read_text(encoding="utf-8")
        assert 'f"ran 0, cached {len(cells)}, deferred 0"' in source
        assert "ledger.read_bytes() == before" in source


class TestServiceSmoke:
    def test_serve_declare_loop_drain_passes(self):
        smoke = load_script("ci/smoke_service.py")
        assert smoke.main() == 0

    def test_sweep_is_registered(self):
        from repro.store import sweep_names

        smoke = load_script("ci/smoke_service.py")
        assert smoke.SWEEP in sweep_names()

    def test_smoke_pins_the_service_contract(self):
        """The smoke must keep asserting what docs/service.md promises:
        an in-memory store served over HTTP, a declared sweep drained by
        a --loop daemon, strong-ETag 304 revalidation, and clean SIGTERM
        shutdown of both processes."""
        source = (REPO / "ci" / "smoke_service.py").read_text(encoding="utf-8")
        assert ":memory:" in source
        assert "--loop" in source
        assert "If-None-Match" in source
        assert "status == 304" in source
        assert "stopped on signal" in source
        assert "serve: stopped" in source


class TestBenchEmit:
    def test_writes_schema_stamped_json(self, tmp_path):
        emit = load_script("benchmarks/_emit.py")
        path = emit.emit_bench_json(
            "unit", {"speedup": 3.5}, out_dir=str(tmp_path)
        )
        assert path.name == "BENCH_unit.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["bench"] == "unit" and doc["schema"] == 2
        assert doc["speedup"] == 3.5 and doc["created_unix"] > 0

    def test_stamps_the_execution_environment(self, tmp_path):
        import numpy

        emit = load_script("benchmarks/_emit.py")
        path = emit.emit_bench_json("env_stamp", {}, out_dir=str(tmp_path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["hostname"] and isinstance(doc["hostname"], str)
        assert doc["cpu_count"] >= 1
        assert doc["numpy_version"] == numpy.__version__
        # None when numba is absent, its version string when present —
        # always stamped either way
        assert "numba_version" in doc
        assert doc["backend"] == "numpy"

    def test_stamps_the_backend_that_ran(self, tmp_path):
        emit = load_script("benchmarks/_emit.py")
        path = emit.emit_bench_json(
            "kern", {}, out_dir=str(tmp_path), backend="numba"
        )
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["backend"] == "numba"

    def test_respects_bench_out_env(self, tmp_path, monkeypatch):
        emit = load_script("benchmarks/_emit.py")
        monkeypatch.setenv("BENCH_OUT", str(tmp_path / "out"))
        path = emit.emit_bench_json("env", {})
        assert path.parent == tmp_path / "out"


class TestImplicitBudgetSmoke:
    def test_million_vertex_cell_passes_under_budget(self):
        smoke = load_script("ci/smoke_implicit_budget.py")
        assert smoke.main() == 0

    def test_sweep_is_registered(self):
        from repro.store import sweep_names

        smoke = load_script("ci/smoke_implicit_budget.py")
        assert smoke.SWEEP in sweep_names()


@pytest.mark.parametrize(
    "script",
    [
        "ci/smoke_sweep_resume.py",
        "ci/smoke_dispatch.py",
        "ci/smoke_implicit_budget.py",
        "ci/smoke_service.py",
        "benchmarks/bench_implicit.py",
        "benchmarks/bench_kernels_numba.py",
        "ci/check_bench_regression.py",
    ],
)
def test_ci_workflow_runs_the_extracted_scripts(script):
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    assert script in ci, f"ci.yml no longer runs {script}"


def test_ci_runs_the_straggler_report_over_the_dispatch_store():
    """The smokes job must render `sweep report` from the store the
    two traced dispatch workers just drained."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    assert "sweep report DEMO_grid2x2 --store ci-dispatch-store" in ci


def test_regression_gate_runs_against_fresh_artifacts():
    """The gate must compare the artifact dir CI writes benches into —
    and it gates (no `|| true` on its line)."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    line = next(
        ln for ln in ci.splitlines() if "check_bench_regression.py" in ln
    )
    assert "--fresh bench-artifacts" in line
    assert "|| true" not in line


class TestBenchRegressionGate:
    """The regression gate's contract, offline: pass within threshold,
    fail on a synthetic 25% slowdown, warn (not fail) on missing
    counterparts and null timings — but fail hard when baselines exist
    and the fresh run emitted no documents at all."""

    def _doc(self, name, **fields):
        return {"bench": name, "schema": 2, **fields}

    def _write(self, directory, doc):
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{doc['bench']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

    def test_passes_when_fresh_matches_baseline(self, tmp_path, capsys):
        gate = load_script("ci/check_bench_regression.py")
        doc = self._doc("x", run_ms=100.0)
        self._write(tmp_path / "base", doc)
        self._write(tmp_path / "fresh", doc)
        rc = gate.main(
            ["--fresh", str(tmp_path / "fresh"), "--baseline", str(tmp_path / "base")]
        )
        assert rc == 0

    def test_fails_on_synthetic_25_percent_regression(self, tmp_path, capsys):
        gate = load_script("ci/check_bench_regression.py")
        self._write(tmp_path / "base", self._doc("x", run_ms=100.0))
        self._write(tmp_path / "fresh", self._doc("x", run_ms=125.0))
        rc = gate.main(
            ["--fresh", str(tmp_path / "fresh"), "--baseline", str(tmp_path / "base")]
        )
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_threshold_is_configurable(self, tmp_path):
        gate = load_script("ci/check_bench_regression.py")
        self._write(tmp_path / "base", self._doc("x", run_ms=100.0))
        self._write(tmp_path / "fresh", self._doc("x", run_ms=125.0))
        args = ["--fresh", str(tmp_path / "fresh"), "--baseline", str(tmp_path / "base")]
        assert gate.main([*args, "--threshold", "0.30"]) == 0

    def test_tracks_case_timings_and_skips_nulls(self, tmp_path, capsys):
        gate = load_script("ci/check_bench_regression.py")
        base = self._doc(
            "k", cases=[{"engine": "cobra", "numpy_ms": 10.0, "numba_ms": None}]
        )
        fresh = self._doc(
            "k", cases=[{"engine": "cobra", "numpy_ms": 20.0, "numba_ms": None}]
        )
        self._write(tmp_path / "base", base)
        self._write(tmp_path / "fresh", fresh)
        rc = gate.main(
            ["--fresh", str(tmp_path / "fresh"), "--baseline", str(tmp_path / "base")]
        )
        assert rc == 1  # numpy_ms doubled; the null numba column is ignored
        out = capsys.readouterr().out
        assert "cases[cobra].numpy_ms" in out and "numba_ms" not in out

    def test_empty_fresh_directory_fails_hard(self, tmp_path, capsys):
        """Baselines committed but the fresh run emitted nothing at all:
        the bench step itself broke, and the gate must fail, not warn."""
        gate = load_script("ci/check_bench_regression.py")
        self._write(tmp_path / "base", self._doc("x", run_ms=100.0))
        (tmp_path / "fresh").mkdir()
        rc = gate.main(
            ["--fresh", str(tmp_path / "fresh"), "--baseline", str(tmp_path / "base")]
        )
        assert rc == 1
        assert "emitted nothing" in capsys.readouterr().err

    def test_missing_fresh_directory_fails_hard(self, tmp_path, capsys):
        gate = load_script("ci/check_bench_regression.py")
        self._write(tmp_path / "base", self._doc("x", run_ms=100.0))
        rc = gate.main(
            ["--fresh", str(tmp_path / "absent"), "--baseline", str(tmp_path / "base")]
        )
        assert rc == 1

    def test_missing_counterparts_warn_but_pass(self, tmp_path, capsys):
        gate = load_script("ci/check_bench_regression.py")
        self._write(tmp_path / "base", self._doc("old", run_ms=5.0))
        self._write(tmp_path / "fresh", self._doc("brand_new", run_ms=5.0))
        rc = gate.main(
            ["--fresh", str(tmp_path / "fresh"), "--baseline", str(tmp_path / "base")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "warning" in out and "old" in out and "brand_new" in out

    def test_committed_baselines_cover_the_compiled_backend(self):
        """BENCH_kernels_numba.json is a committed, schema-2 baseline
        with one case per benchmarked engine."""
        doc = json.loads(
            (REPO / "BENCH_kernels_numba.json").read_text(encoding="utf-8")
        )
        assert doc["schema"] == 2 and doc["trials"] == 64
        assert doc["n"] >= 100_000
        engines = {c["engine"] for c in doc["cases"]}
        assert {"cobra", "parallel", "walt", "simple"} <= engines
        for case in doc["cases"]:
            assert case["numpy_ms"] > 0


class TestStaticJob:
    """Pin the `static` CI job's commands so they cannot silently rot."""

    @pytest.fixture(scope="class")
    def ci_yaml(self) -> str:
        return (REPO / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8"
        )

    def test_has_a_static_job(self, ci_yaml):
        assert "\n  static:\n" in ci_yaml

    def test_runs_the_in_tree_linter_with_contracts(self, ci_yaml):
        assert "python -m repro.lint src benchmarks examples ci --contracts" in ci_yaml

    def test_runs_ruff_repo_wide(self, ci_yaml):
        assert "ruff check src benchmarks examples ci tests" in ci_yaml

    def test_keeps_the_docstring_gate(self, ci_yaml):
        # the D1/D417 gate over the facade layer predates the static job
        # and must survive it (tests/test_docstrings.py mirrors it offline)
        assert "--select D1,D417" in ci_yaml
        for module in (
            "src/repro/sim/facade.py",
            "src/repro/sim/batch.py",
            "src/repro/sim/processes.py",
        ):
            assert module in ci_yaml

    def test_runs_mypy_on_the_strict_surface(self, ci_yaml):
        assert "mypy --config-file mypy.ini" in ci_yaml
        for target in (
            "src/repro/sim/rng.py",
            "src/repro/store/spec.py",
            "src/repro/lint",
        ):
            assert target in ci_yaml, f"mypy no longer checks {target}"

    def test_mypy_is_pinned_in_ci_requirements(self):
        reqs = (REPO / "ci" / "requirements.txt").read_text(encoding="utf-8")
        assert "mypy" in reqs and "ruff" in reqs
