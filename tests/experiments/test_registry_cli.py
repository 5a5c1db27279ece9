"""Tests for the experiment registry and CLI plumbing."""

import pytest

from repro.analysis import Table
from repro.experiments import ExperimentResult, all_experiments, get
from repro.experiments.cli import main


EXPECTED_IDS = {
    "ACTIVE_growth",
    "BASE_compare",
    "C9_expander",
    "GRIDCHAIN_drift",
    "KCOBRA_k",
    "L10_walt",
    "L11_tensor",
    "STAR_lb",
    "T13_biased",
    "T15_regular",
    "T1_matthews",
    "T20_general",
    "T3_grid",
    "T8_conductance",
    "T8_epochs",
    "TREES_kary",
}


class TestRegistry:
    def test_all_claims_registered(self):
        ids = {e.id for e in all_experiments()}
        assert ids == EXPECTED_IDS

    def test_get_known(self):
        exp = get("T3_grid")
        assert exp.id == "T3_grid"
        assert "O(n)" in exp.claim

    def test_get_unknown_lists_options(self):
        with pytest.raises(KeyError, match="T3_grid"):
            get("nope")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            get("L10_walt").run(scale="huge")

    def test_every_experiment_has_claim(self):
        for exp in all_experiments():
            assert exp.claim


class TestResultRendering:
    def test_render_contains_tables_and_findings(self):
        t = Table(["a"], title="demo")
        t.add_row([1])
        res = ExperimentResult(
            experiment_id="X", tables=[t], findings={"y": 1.5}, notes="hello"
        )
        out = res.render()
        assert "### X" in out
        assert "demo" in out
        assert "y = 1.5" in out
        assert "hello" in out


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPECTED_IDS:
            assert exp_id in out

    def test_run_single(self, capsys):
        assert main(["run", "L10_walt", "--scale", "quick", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "L10_walt" in out
        assert "finished in" in out

    def test_run_json(self, capsys):
        import json

        assert main(["run", "TREES_kary", "--json", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert set(doc) == {"TREES_kary"}
        entry = doc["TREES_kary"]
        assert entry["scale"] == "quick" and entry["seed"] == 1
        assert isinstance(entry["findings"], dict) and entry["findings"]

    def test_processes_command(self, capsys):
        assert main(["processes"]) == 0
        out = capsys.readouterr().out
        assert "cobra" in out and "walt" in out and "push_pull" in out
        assert "branching_minima" in out


class TestSweepCli:
    def test_sweep_list(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("T3_grid", "TREES_kary", "KCOBRA_k", "BASE_compare",
                     "BRW_minima"):
            assert name in out

    def test_sweep_run_status_show_roundtrip(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        # interrupt after 2 cells, then resume to completion
        assert main(["sweep", "run", "BRW_minima", "--store", store,
                     "--max-cells", "2"]) == 0
        out = capsys.readouterr().out
        assert "ran 2" in out and "pending 2" in out

        assert main(["sweep", "status", "BRW_minima", "--store", store]) == 0
        assert "2/4 cells stored" in capsys.readouterr().out

        assert main(["sweep", "run", "BRW_minima", "--store", store]) == 0
        assert "ran 2, cached 2" in capsys.readouterr().out

        # completed sweep: the third run is pure cache
        assert main(["sweep", "run", "BRW_minima", "--store", store]) == 0
        assert "ran 0, cached 4" in capsys.readouterr().out

        assert main(["sweep", "show", "BRW_minima", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "BRW_minima" in out and "generations" in out
        assert "(pending)" not in out

    def test_sweep_show_marks_pending_cells(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", "BRW_minima", "--store", store,
                     "--max-cells", "1"]) == 0
        capsys.readouterr()
        assert main(["sweep", "show", "BRW_minima", "--store", store]) == 0
        assert "(pending)" in capsys.readouterr().out

    def test_sweep_unknown_name(self, capsys, tmp_path):
        # the unified exit-code contract: usage errors are exit 2 with
        # one `error:` line on stderr, never a traceback
        assert main(["sweep", "run", "nope", "--store", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown sweep") and "nope" in err
