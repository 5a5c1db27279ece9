"""The import-time contract audit (RPL200/201/121/202/203).

Positive direction: the live registries and the committed docs must
audit clean — this is the same check CI runs via ``--contracts``.
Negative direction: injected broken specs / a stripped docs tree must
produce the right findings.
"""

from pathlib import Path

from repro.lint.contracts import (
    DOC_ANCHORS,
    audit_docs,
    audit_hit_engines,
    audit_implicit_oracles,
    audit_process_engines,
    audit_sweeps,
    run_contract_audit,
)
from repro.sim.processes import ProcessSpec

REPO = Path(__file__).resolve().parent.parent.parent


class TestLiveRegistriesAuditClean:
    def test_every_registered_sweep_expands(self):
        assert audit_sweeps() == []

    def test_every_registered_engine_binds_the_protocol(self):
        assert audit_process_engines() == []

    def test_committed_docs_resolve_every_anchor(self):
        assert audit_docs(REPO) == []

    def test_every_implicit_topology_binds_the_oracle_contract(self):
        assert audit_implicit_oracles() == []

    def test_full_audit_is_clean(self):
        # RPL121 is a warning that keeps the serial hit gap visible
        assert run_contract_audit(REPO) == audit_hit_engines()
        assert {f.severity for f in audit_hit_engines()} == {"warning"}


class TestEngineAuditNegative:
    def test_factory_missing_protocol_keywords_is_flagged(self):
        def bad_factory(graph):  # no start/seed/target
            return None

        spec = ProcessSpec(
            name="broken",
            factory=bad_factory,
            capabilities=frozenset({"cover"}),
            default_metric="cover",
            default_budget=10,
            batch=lambda *, trials, start, seed, max_steps: None,
        )
        findings = audit_process_engines([spec])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "RPL201"
        assert "factory" in finding.message
        assert "process:broken" in finding.path

    def test_batch_engine_missing_keywords_is_flagged(self):
        spec = ProcessSpec(
            name="broken",
            factory=lambda *, start, seed, target=None: None,
            capabilities=frozenset({"cover"}),
            default_metric="cover",
            default_budget=10,
            batch=lambda trials: None,  # cannot bind start/seed/max_steps
        )
        findings = audit_process_engines([spec])
        assert [f.rule for f in findings] == ["RPL201"]
        assert "batch" in findings[0].message

    def test_hit_engine_missing_protocol_keywords_is_flagged(self):
        spec = ProcessSpec(
            name="broken",
            factory=lambda *, start, seed, target=None: None,
            capabilities=frozenset({"cover", "hit"}),
            default_metric="cover",
            default_budget=10,
            batch=lambda g, target=None, *, trials: None,
        )
        assert spec.batch_metrics == {"cover", "hit"}
        (finding,) = audit_process_engines([spec])
        assert "['max_steps', 'seed', 'start']" in finding.message

    def test_var_keyword_engines_pass(self):
        spec = ProcessSpec(
            name="kwargs-ok",
            factory=lambda **kwargs: None,
            capabilities=frozenset({"cover", "hit"}),
            default_metric="cover",
            default_budget=10,
            batch=lambda **kwargs: None,
        )
        assert audit_process_engines([spec]) == []


class TestDocsAuditNegative:
    def test_missing_page_is_flagged(self, tmp_path):
        findings = audit_docs(tmp_path)
        flagged_pages = {f.path for f in findings}
        assert flagged_pages == set(DOC_ANCHORS)
        assert all(f.rule == "RPL202" for f in findings)

    def test_missing_anchor_is_flagged_by_name(self, tmp_path):
        page = tmp_path / "docs" / "static-analysis.md"
        page.parent.mkdir(parents=True)
        anchors = DOC_ANCHORS["docs/static-analysis.md"]
        page.write_text("\n".join(anchors[:-1]), encoding="utf-8")
        findings = [
            f for f in audit_docs(tmp_path) if f.path == "docs/static-analysis.md"
        ]
        assert len(findings) == 1
        assert anchors[-1] in findings[0].message


class TestSweepAuditNegative:
    """A registered sweep whose graph builder is gone, or names a
    ``repro.graphs`` helper that builds no graph, is an RPL200 finding."""

    def test_unknown_graph_builder_is_flagged(self, monkeypatch):
        import repro.store.sweeps as sweeps
        from repro.store import SweepSpec

        for graph in ("erdos_renyi_gone", "diameter"):

            def gone(scale, seed, graph=graph):
                return [
                    SweepSpec(
                        name="GONE/cobra",
                        process="cobra",
                        graph=graph,
                        graph_grid={"n": [16], "p": [0.5]},
                    )
                ]

            monkeypatch.setitem(sweeps._SWEEPS, "GONE", gone)
            findings = [f for f in audit_sweeps() if f.path == "sweep:GONE"]
            assert [f.rule for f in findings] == ["RPL200", "RPL200"], graph
            assert all(
                f"unknown graph builder {graph!r}" in f.message for f in findings
            )
            assert [("scale='quick'" in f.message) for f in findings] == [True, False]


class TestImplicitAuditNegative:
    """Injected broken registry entries produce RPL203 findings."""

    def _findings_for(self, monkeypatch, entry):
        import repro.graphs.implicit as implicit

        monkeypatch.setitem(implicit.IMPLICIT_TOPOLOGIES, "bogus", entry)
        return [f for f in audit_implicit_oracles() if f.path == "implicit:bogus"]

    def test_unexported_builder_is_flagged(self, monkeypatch):
        findings = self._findings_for(monkeypatch, ("no_such_builder", {}))
        assert [f.rule for f in findings] == ["RPL203"]
        assert "not exported" in findings[0].message

    def test_non_oracle_builder_is_flagged(self, monkeypatch):
        # cycle_graph resolves and builds, but returns a CSR Graph
        findings = self._findings_for(monkeypatch, ("cycle_graph", {"n": 8}))
        assert [f.rule for f in findings] == ["RPL203"]
        assert "not a NeighborOracle" in findings[0].message

    def test_broken_example_params_are_flagged(self, monkeypatch):
        findings = self._findings_for(monkeypatch, ("torus_oracle", {"n": 0}))
        assert [f.rule for f in findings] == ["RPL203"]
        assert "build/round-trip failed" in findings[0].message


class TestAnchorHygiene:
    def test_anchor_lists_are_non_empty_and_unique(self):
        for page, anchors in DOC_ANCHORS.items():
            assert anchors, page
            assert len(anchors) == len(set(anchors)), page
