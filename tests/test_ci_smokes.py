"""The extracted CI smoke scripts are runnable and honest.

`ci/smoke_sweep_resume.py` and `ci/smoke_dispatch.py` used to be
inline YAML heredocs; as modules they are importable, run here against
temp stores, and can no longer drift from the library without a test
failure.  The benchmark JSON emitter and the engine benchmark's gate
are pinned alongside (CI uploads the benchmark's output as a build
artifact).
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

    def test_smoke_pins_the_ledger_replay(self):
        """After the two-process drain every raw ledger line must replay,
        with one claim and one done line per cell."""
        source = (REPO / "ci" / "smoke_dispatch.py").read_text(encoding="utf-8")
        assert "raw_lines == len(records)" in source
        assert 'ops == ["claim", "done"]' in source

    def test_smoke_pins_report_and_fsck_agreement(self):
        """After the drain, ``sweep report`` and ``sweep fsck`` must
        count the same double-computed cells and torn event lines."""
        source = (REPO / "ci" / "smoke_dispatch.py").read_text(encoding="utf-8")
        assert (
            'store_report.ledger["double_computed"] == len(health.duplicates)'
            in source
        )
        assert 'store_report.events["torn"] == health.events_corrupt' in source

    def test_smoke_pins_the_campaign_pool(self):
        """``Campaign(workers=N)`` must be driven too: a two-worker
        local pool over a fresh store runs each cell once, with the
        single-worker reference's values."""
        source = (REPO / "ci" / "smoke_dispatch.py").read_text(encoding="utf-8")
        assert "Campaign(spec, ResultStore(pool_dir), workers=2).run()" in source
        assert "sorted(pool_report.ran) == sorted(c.hash for c in cells)" in source
        assert 'ops == ["claim", "done"], f"pool cell' in source
        assert 'diverged on the Campaign pool"' in source


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

    def test_smoke_pins_disk_backed_freshness(self):
        """A disk-backed serve must see a cell another process commits
        after its shards settled: a stale ETag answers 200, the new one
        304."""
        source = (REPO / "ci" / "smoke_service.py").read_text(encoding="utf-8")
        assert "disk_backed_freshness(cells)" in source
        assert '"serve", "--store", root' in source
        assert "time.sleep(_SETTLE_S" in source
        assert "disk-backed /frame with a stale ETag answered" in source


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
        assert "backend" not in doc

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
        "benchmarks/bench.py",
    ],
)
def test_ci_workflow_runs_the_extracted_scripts(script):
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    assert script in ci, f"ci.yml no longer runs {script}"


@pytest.mark.parametrize("workload", ["paper_sweep", "cell_drain", "serve_reads"])
def test_ci_runs_every_sweepbench_workload_tiny(workload):
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    command = f"python3 sweepbench/run.py --workload {workload} --seed 1 --seconds 1 --tiny"
    assert command in ci, f"ci.yml no longer runs sweepbench's {workload}"


def test_ci_runs_the_straggler_report_over_the_dispatch_store():
    """The smokes job must render `sweep report` from the store the
    two traced dispatch workers just drained."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    assert "sweep report DEMO_grid2x2 --store ci-dispatch-store" in ci


def test_regression_gate_runs_against_fresh_artifacts():
    """The one bench step gates against the committed baseline (no
    `|| true` on its line) and writes its fresh run into the artifact
    directory CI uploads."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    bench_lines = [ln for ln in ci.splitlines() if "benchmarks/" in ln and "run:" in ln]
    assert bench_lines == ["        run: python benchmarks/bench.py --against BENCH_engines.json"]
    assert "BENCH_OUT: bench-artifacts" in ci
    assert "path: bench-artifacts/BENCH_*.json" in ci


def _registry_batched_cases() -> set[str]:
    """``process/metric`` for every registered pair with a batched engine."""
    from repro.sim import all_processes
    from repro.sim.facade import select_execution_path

    out = set()
    for spec in all_processes():
        for metric in spec.capabilities - {"multi_source"}:
            try:
                select_execution_path(spec, metric, strategy="vectorized")
            except ValueError:
                continue
            out.add(f"{spec.name}/{metric}")
    return out


class TestBenchRegressionGate:
    """The engine benchmark's gate, offline: `compare(baseline, fresh)`
    on synthetic documents, and the committed baseline's coverage."""

    BASE_RATIO = 5.0

    @pytest.fixture(scope="class")
    def bench(self):
        return load_script("benchmarks/bench.py")

    @pytest.fixture(scope="class")
    def committed(self):
        return json.loads((REPO / "BENCH_engines.json").read_text(encoding="utf-8"))

    def _doc(self, hostname="ci-a", **csr):
        """A two-case document: a CSR case with a serial side and an
        oracle case without one."""
        return {
            "hostname": hostname, "cpu_count": 2, "machine": "x86_64",
            "python": "3.11.7", "numpy_version": "2.4.6",
            "cases": [
                {
                    "case": "cobra/cover@grid(16, 2)", "vectorized_ms": 10.0,
                    "serial_ms": 50.0, "ratio": self.BASE_RATIO,
                    "scaled_ns_per_trial_step": 100.0,
                    "serial_scaled_ns_per_trial_step": 500.0, **csr,
                },
                {
                    "case": "walt/cover@hypercube_oracle(17)", "vectorized_ms": 900.0,
                    "scaled_ns_per_trial_step": 9000.0,
                },
            ],
        }

    def test_passes_when_fresh_matches_baseline(self, bench):
        assert bench.compare(self._doc(), self._doc()) == []

    def test_fails_on_synthetic_25_percent_regression(self, bench):
        fresh = self._doc("ci-b", scaled_ns_per_trial_step=125.0)
        failures = bench.compare(self._doc(), fresh)
        assert len(failures) == 1
        assert "cobra/cover@grid(16, 2)" in failures[0]
        assert "scaled_ns_per_trial_step" in failures[0]
        within = self._doc("ci-b", scaled_ns_per_trial_step=119.0)
        assert bench.compare(self._doc(), within) == []

    def test_fails_on_a_serial_slowdown(self, bench):
        fresh = self._doc("ci-b", serial_scaled_ns_per_trial_step=650.0)
        assert bench.compare(self._doc(), fresh)

    def test_fails_on_a_ratio_drop_beyond_the_limit(self, bench):
        fresh = self._doc("ci-b", ratio=self.BASE_RATIO / 1.25)
        assert "ratio" in " ".join(bench.compare(self._doc(), fresh))
        fresh = self._doc("ci-b", ratio=self.BASE_RATIO / 1.15)
        assert bench.compare(self._doc(), fresh) == []

    def test_fails_when_a_case_newly_falls_under_the_bar(self, bench):
        base, fresh = self._doc(ratio=3.1), self._doc(ratio=2.9)
        failures = bench.compare(base, fresh)
        assert len(failures) == 1 and "bar" in failures[0]

    def test_passes_a_case_already_under_the_bar(self, bench):
        base, fresh = self._doc(ratio=2.6), self._doc(ratio=2.5)
        assert bench.compare(base, fresh) == []

    def test_compares_raw_ms_only_when_the_fingerprint_matches(self, bench):
        slower = dict(vectorized_ms=15.0, serial_ms=75.0)
        failures = bench.compare(self._doc(), self._doc(**slower))
        assert {f.split(":")[1].split()[0] for f in failures} == {
            "vectorized_ms", "serial_ms"}
        assert bench.compare(self._doc(), self._doc("ci-b", **slower)) == []

    def test_tracks_case_timings_and_skips_nulls(self, bench):
        """Every gated figure of every case is checked; figures a
        baseline case does not carry (an oracle case has no serial side)
        are skipped, but losing one the baseline has fails."""
        fresh = self._doc()
        fresh["cases"][1]["scaled_ns_per_trial_step"] = 12_000.0
        failures = bench.compare(self._doc(), fresh)
        assert len(failures) == 1 and "hypercube_oracle(17)" in failures[0]
        fresh = self._doc(ratio=None)
        assert bench.compare(self._doc(), fresh) == ["cobra/cover@grid(16, 2): ratio missing"]

    def test_missing_counterparts_fail(self, bench):
        fresh = self._doc()
        del fresh["cases"][1]
        assert bench.compare(self._doc(), fresh) == [
            "walt/cover@hypercube_oracle(17): no fresh measurement"]
        fresh = self._doc()
        fresh["cases"].append({"case": "new/cover@grid(16, 2)"})
        assert bench.compare(self._doc(), fresh) == [
            "new/cover@grid(16, 2): no committed baseline"]

    def test_empty_fresh_directory_fails_hard(self, bench):
        """A fresh run that measured no cases fails the gate."""
        assert bench.compare(self._doc(), {**self._doc(), "cases": []})

    def test_missing_fresh_directory_fails_hard(self, bench):
        """No fresh document at all fails the gate."""
        assert bench.compare(self._doc(), None)

    def test_unreadable_baseline_fails_before_measuring(self, bench, tmp_path, capsys):
        assert bench.main(["--against", str(tmp_path / "absent.json")]) == 1
        assert "cannot read the baseline" in capsys.readouterr().err
        old_style = tmp_path / "BENCH_facade_batch.json"
        old_style.write_text(json.dumps({"bench": "facade_batch", "serial_ms": 53.7}))
        assert bench.main(["--against", str(old_style)]) == 1
        assert "cannot read the baseline" in capsys.readouterr().err

    def test_measures_a_case_with_engine_counters(self, bench, tmp_path):
        """One case end to end, written the way `main` writes a run."""
        case = bench.Case("cobra", "cover", "grid(16, 2)", 2)
        path = bench.emit_bench_json(
            "engines", bench.measure([case], rounds=1), out_dir=str(tmp_path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        (row,) = doc["cases"]
        assert row["case"] == "cobra/cover@grid(16, 2)"
        assert row["trial_steps"] > 0 and row["rng_draws"] > 0
        assert row["serial_trial_steps"] > 0 and row["ratio"] > 0
        assert row["scaled_ns_per_trial_step"] > 0 and doc["probe_ms"] > 0
        for key in bench.FINGERPRINT:
            assert doc[key] is not None

    def test_committed_baseline_covers_every_batched_engine(self, committed):
        """A newly registered batched engine cannot ship without a
        baseline row, and every such row carries its ratio."""
        rows = {c["case"]: c for c in committed["cases"]}
        for pair in sorted(_registry_batched_cases()):
            row = rows.get(f"{pair}@grid(16, 2)")
            assert row is not None, f"BENCH_engines.json has no row for {pair}"
            assert row["ratio"] > 0 and row["scaled_ns_per_trial_step"] > 0

    def test_committed_baselines_cover_the_hypercube_engines(self, committed):
        rows = {c["case"]: c for c in committed["cases"]}
        for process in ("cobra/cover", "parallel/cover", "walt/cover", "simple/hit"):
            row = rows[f"{process}@hypercube_oracle(17)"]
            assert row["trials"] == 64 and row["scaled_ns_per_trial_step"] > 0

    def test_committed_baseline_keeps_the_other_gated_cells(self, committed):
        rows = {c["case"]: c for c in committed["cases"]}
        cobra = rows["cobra/cover@grid(32, 2)"]
        assert cobra["serial_ms"] > 0 and cobra["vectorized_ms"] > 0
        for oracle in ("torus_oracle(99, 2)", "hypercube_oracle(13)",
                       "circulant_oracle(10001, (1, 2, 5))", "kronecker_oracle(K3, 8)"):
            assert rows[f"cobra/cover@{oracle}"]["scaled_ns_per_trial_step"] > 0


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
