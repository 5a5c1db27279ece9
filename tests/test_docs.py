"""Generated-checked docs: ``docs/processes.md`` vs the live registry.

The page claims to document every registered ``ProcessSpec``; this
test regenerates the mechanical lines (metrics, multi-source,
parameters, engines, description) from ``repro.sim.processes`` and
fails if the page drifted — adding, removing, or changing a spec
without updating the docs is a test failure, not a silent lie.
"""

import re
from pathlib import Path

import pytest

from repro.lint.contracts import DOC_ANCHORS
from repro.sim import all_processes

DOCS = Path(__file__).resolve().parent.parent / "docs"


@pytest.fixture(scope="module")
def processes_md() -> str:
    return (DOCS / "processes.md").read_text(encoding="utf-8")


def _sections(text: str) -> dict[str, str]:
    """Map section name -> body for every ``## `name``` heading."""
    parts = re.split(r"^## `([^`]+)`$", text, flags=re.MULTILINE)
    return {
        name: body for name, body in zip(parts[1::2], parts[2::2])
    }


class TestProcessesPage:
    def test_exactly_one_section_per_registered_process(self, processes_md):
        names = {spec.name for spec in all_processes()}
        sections = set(_sections(processes_md))
        assert sections == names, (
            f"missing sections: {sorted(names - sections)}; "
            f"stale sections: {sorted(sections - names)}"
        )

    @pytest.mark.parametrize("spec", all_processes(), ids=lambda s: s.name)
    def test_section_matches_registry(self, processes_md, spec):
        body = _sections(processes_md)[spec.name]
        # description is the section's lead paragraph
        assert spec.description in body

        metrics = sorted(spec.capabilities - {"multi_source"})
        assert (
            f"- **metrics:** {', '.join(metrics)} (default `{spec.default_metric}`)"
            in body
        )

        multi = "yes" if spec.supports("multi_source") else "no"
        assert f"- **multi-source start:** {multi}" in body

        params = ", ".join(
            f"`{k}={v!r}`" for k, v in sorted(spec.default_params.items())
        ) or "—"
        assert f"- **parameters:** {params}" in body

        engines = "serial"
        if spec.batch_metrics:
            engines += f", batch ({', '.join(sorted(spec.batch_metrics))})"
        assert f"- **engines:** {engines}" in body

    @pytest.mark.parametrize("spec", all_processes(), ids=lambda s: s.name)
    def test_section_has_paper_reference(self, processes_md, spec):
        body = _sections(processes_md)[spec.name]
        m = re.search(r"- \*\*reference:\*\* (.+)", body)
        assert m, f"no reference line for {spec.name}"
        assert len(m.group(1)) > 20, f"reference for {spec.name} looks empty"


class TestAnchoredPages:
    """Anchor coverage for every page ``DOC_ANCHORS`` names.

    The anchor lists live in :mod:`repro.lint.contracts` — the single
    source of truth shared with the linter's RPL202 contract audit, so
    CI's ``repro.lint --contracts`` and this test can never drift.
    """

    @pytest.mark.parametrize("page", sorted(DOC_ANCHORS))
    def test_page_exists_and_covers_the_contracts(self, page):
        text = (DOCS.parent / page).read_text(encoding="utf-8")
        for anchor in DOC_ANCHORS[page]:
            assert anchor in text, f"{page} lost its {anchor!r} section"

    def test_readme_links_the_docs_pages(self):
        readme = (DOCS.parent / "README.md").read_text(encoding="utf-8")
        assert "docs/architecture.md" in readme
        assert "docs/processes.md" in readme
        assert "docs/sweeps.md" in readme
        assert "docs/static-analysis.md" in readme


class TestStaticAnalysisPage:
    @pytest.fixture(scope="class")
    def static_md(self) -> str:
        return (DOCS / "static-analysis.md").read_text(encoding="utf-8")

    def test_rule_table_matches_the_live_registry(self, static_md):
        from repro.lint import all_rules

        for rule in all_rules():
            assert f"`{rule.id}`" in static_md, (
                f"static-analysis.md rule table is missing {rule.id}"
            )
            assert rule.severity in static_md
            assert rule.title in static_md, (
                f"static-analysis.md does not state {rule.id}'s title "
                f"({rule.title!r})"
            )

    def test_no_stale_rule_ids_documented(self, static_md):
        import re as _re

        from repro.lint import all_rules

        documented = set(_re.findall(r"`(RPL\d+)`", static_md))
        registered = {rule.id for rule in all_rules()}
        assert documented == registered, (
            f"stale ids documented: {sorted(documented - registered)}; "
            f"undocumented ids: {sorted(registered - documented)}"
        )


class TestSweepsPage:
    @pytest.fixture(scope="class")
    def sweeps_md(self) -> str:
        return (DOCS / "sweeps.md").read_text(encoding="utf-8")

    def test_lease_ops_match_the_code(self, sweeps_md):
        from repro.store.dispatch import _CLAIM_OPS

        for op in _CLAIM_OPS:
            assert f'"op": "{op}"' in sweeps_md, (
                f"sweeps.md does not document ledger op {op!r}"
            )

    def test_schema_table_matches_sweepspec_fields(self, sweeps_md):
        import dataclasses

        from repro.store import SweepSpec

        for field in dataclasses.fields(SweepSpec):
            assert f"`{field.name}`" in sweeps_md, (
                f"sweeps.md schema table is missing SweepSpec.{field.name}"
            )

    def test_every_registered_sweep_is_documented(self, sweeps_md):
        from repro.store import sweep_names

        for name in sweep_names():
            assert name in sweeps_md, f"registered sweep {name!r} not documented"

    def test_target_rules_match_the_code(self, sweeps_md):
        from repro.store.spec import _TARGET_RULES

        for rule in _TARGET_RULES:
            assert f'"{rule}"' in sweeps_md
