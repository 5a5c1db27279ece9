"""The CLI exit-code contract: 2 = usage error, 1 = integrity failure.

Every ``sweep`` verb (and the ``run`` experiment runner) fails the
same way: one line on stderr, no traceback, exit 2 when the *request*
was wrong and exit 1 when the *store* is unhealthy or unreachable.
This matrix pins the contract the docs promise.
"""

import json

import pytest

from repro.experiments.cli import main
from repro.store import ClaimLedger


def _seed_store(tmp_path, monkeypatch):
    """A drained DEMO_grid2x2 store directory (4 cells)."""
    store = tmp_path / "store"
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "run", "DEMO_grid2x2", "--store", str(store)]) == 0
    return store


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: "), err
    assert "\n" not in err, f"expected one line, got: {err!r}"
    assert "Traceback" not in err
    return err


class TestUsageErrorsExit2:
    def test_unknown_sweep(self, tmp_path, capsys):
        code = main(
            ["sweep", "run", "NOPE", "--store", str(tmp_path / "s")]
        )
        assert code == 2
        assert "unknown sweep" in _one_error_line(capsys)

    @pytest.mark.parametrize("verb", ["status", "show", "work", "report"])
    def test_unknown_sweep_every_verb(self, verb, tmp_path, capsys):
        code = main(["sweep", verb, "NOPE", "--store", str(tmp_path / "s")])
        assert code == 2
        assert "unknown sweep" in _one_error_line(capsys)

    def test_unknown_declare(self, tmp_path, capsys):
        code = main(
            ["sweep", "declare", "NOPE", "--store", str(tmp_path / "s")]
        )
        assert code == 2
        assert "unknown sweep" in _one_error_line(capsys)

    def test_work_needs_name_or_loop(self, tmp_path, capsys):
        code = main(["sweep", "work", "--store", str(tmp_path / "s")])
        assert code == 2
        assert "--loop" in _one_error_line(capsys)

    def test_workers_conflicts_with_max_cells(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "run", "DEMO_grid2x2", "--store", str(tmp_path / "s"),
                "--workers", "2", "--max-cells", "1",
            ]
        )
        assert code == 2
        assert "mutually exclusive" in _one_error_line(capsys)

    def test_memory_store_only_for_serve(self, capsys):
        code = main(["sweep", "status", "DEMO_grid2x2", "--store", ":memory:"])
        assert code == 2
        assert "serve" in _one_error_line(capsys)

    def test_unknown_experiment(self, capsys):
        assert main(["run", "NOPE"]) == 2
        assert "unknown experiment" in _one_error_line(capsys)

    def test_argparse_usage_is_exit_2(self):
        # argparse's own rejection path already honours the contract
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "bogus-verb"])
        assert exc.value.code == 2


class TestIntegrityErrorsExit1:
    def test_fsck_unclean(self, tmp_path, monkeypatch, capsys):
        store = _seed_store(tmp_path, monkeypatch)
        shard = next((store / "shards").glob("*.jsonl"))
        with shard.open("a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        code = main(["sweep", "fsck", "--store", str(store)])
        assert code == 1
        out = capsys.readouterr()
        assert "NOT CLEAN" in out.out
        assert out.err.strip().startswith("error: ")

    def test_compact_refused_on_live_lease(self, tmp_path, monkeypatch, capsys):
        store = _seed_store(tmp_path, monkeypatch)
        ClaimLedger(store).try_claim(["ab" * 32], owner="w-live")
        code = main(["sweep", "compact", "--store", str(store)])
        assert code == 1
        assert "compact refused" in _one_error_line(capsys)

    def test_unreachable_backend(self, capsys):
        # port 9 (discard) refuses connections immediately on loopback
        code = main(
            ["sweep", "status", "DEMO_grid2x2", "--store", "http://127.0.0.1:9"]
        )
        assert code == 1
        assert "cannot reach" in _one_error_line(capsys)


class TestSuccessPaths:
    def test_fsck_clean_exit_0(self, tmp_path, monkeypatch, capsys):
        store = _seed_store(tmp_path, monkeypatch)
        assert main(["sweep", "fsck", "--store", str(store)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_show_json_is_canonical_frame(self, tmp_path, monkeypatch, capsys):
        from repro.store import FRAME_SCHEMA, Frame

        store = _seed_store(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(
            ["sweep", "show", "DEMO_grid2x2", "--store", str(store), "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == FRAME_SCHEMA
        frame = Frame.from_json(json.dumps(doc))
        assert len(frame) == 4
        assert set(frame.column("process")) == {"cobra"}
