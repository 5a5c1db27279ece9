"""The ``python -m repro.lint`` CLI: exit codes, JSON, explain, and the
acceptance fixture (a file holding ``np.random.seed(0)`` must fail)."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import Finding, all_rules
from repro.lint.cli import KNOWN_RULE_IDS, main

REPO = Path(__file__).resolve().parent.parent.parent

VIOLATION = "import numpy as np\nnp.random.seed(0)\n"
CLEAN = "from repro.sim.rng import resolve_rng\nrng = resolve_rng(0)\n"


def run_cli(*argv: str):
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text(CLEAN)
        status, text = run_cli(str(target))
        assert status == 0
        assert "0 error(s)" in text

    def test_np_random_seed_fixture_exits_one_with_rpl100(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(VIOLATION)
        status, text = run_cli(str(target))
        assert status == 1
        assert "RPL100" in text
        assert "dirty.py:2:" in text

    def test_warnings_alone_exit_zero(self, monkeypatch):
        # the contract audit's only findings on the live registry are
        # RPL121 warnings (docs anchors resolve from the repo root)
        monkeypatch.chdir(REPO)
        status, text = run_cli("--contracts")
        assert status == 0
        assert "RPL121" in text and "0 error(s), 3 warning(s)" in text

    def test_no_paths_no_contracts_is_a_usage_error(self):
        status, _ = run_cli()
        assert status == 2

    def test_missing_path_is_a_usage_error(self, tmp_path):
        status, _ = run_cli(str(tmp_path / "no-such-dir"))
        assert status == 2


class TestJsonFormat:
    def test_json_round_trips_through_finding_from_dict(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(VIOLATION)
        status, text = run_cli(str(target), "--format=json")
        assert status == 1
        doc = json.loads(text)
        assert doc["errors"] == 1 and doc["warnings"] == 0
        findings = [Finding.from_dict(entry) for entry in doc["findings"]]
        assert [f.rule for f in findings] == ["RPL100"]
        assert findings[0].to_dict() == doc["findings"][0]

    def test_clean_json_document(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text(CLEAN)
        status, text = run_cli(str(target), "--format=json")
        assert status == 0
        assert json.loads(text) == {"findings": [], "errors": 0, "warnings": 0}


class TestExplainAndList:
    def test_explain_prints_invariant_and_fix(self):
        status, text = run_cli("--explain", "RPL100")
        assert status == 0
        assert "RPL100" in text and "Invariant:" in text and "Fix:" in text

    def test_explain_is_case_insensitive(self):
        status, _ = run_cli("--explain", "rpl103")
        assert status == 0

    def test_explain_unknown_rule_is_a_usage_error(self):
        status, _ = run_cli("--explain", "RPL999")
        assert status == 2

    def test_list_names_every_registered_rule(self):
        status, text = run_cli("--list")
        assert status == 0
        for rule in all_rules():
            assert rule.id in text

    def test_known_rule_ids_cover_the_registry(self):
        assert set(KNOWN_RULE_IDS) == {rule.id for rule in all_rules()}


class TestCommittedTreeIsClean:
    """The acceptance criterion: the merged tree lints clean."""

    @pytest.mark.parametrize(
        "paths",
        [("src",), ("src", "benchmarks", "examples", "ci")],
        ids=["src", "all-ci-paths"],
    )
    def test_module_invocation_exits_zero(self, paths):
        env_src = str(REPO / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", *paths],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": env_src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_the_linter_lints_itself(self):
        status, text = run_cli(str(REPO / "src" / "repro" / "lint"))
        assert status == 0, text
