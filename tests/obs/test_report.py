"""Straggler-report math and the live top snapshot.

One small traced campaign (and one dispatch drain) per fixture; the
report must attribute every cell to a worker, group percentiles
correctly, and read ledger/event health from the store directory.
"""

import pytest

from repro.obs import build_report, live_top, render_top, tracer_for_store
from repro.store import Campaign, ResultStore, SeedPolicy, SweepSpec, drain


def make_spec(**over):
    base = dict(
        name="obs",
        process="cobra",
        graph="grid",
        graph_grid={"n": [6, 8], "d": [2]},
        params_grid={"k": [1, 2]},
        trials=3,
        seed=SeedPolicy(root=5),
    )
    base.update(over)
    return SweepSpec(**base)


@pytest.fixture()
def traced_store(tmp_path):
    store = ResultStore(tmp_path)
    spec = make_spec()
    tracer = tracer_for_store(tmp_path, worker="tester")
    Campaign(spec, store, tracer=tracer).run()
    return store, spec


class TestBuildReport:
    def test_every_cell_attributed_slowest_first(self, traced_store):
        store, spec = traced_store
        report = build_report(store, [spec])
        assert len(report.cells) == 4
        assert all(row["worker"] == "tester" for row in report.cells)
        walls = [row["wall_s"] for row in report.cells]
        assert walls == sorted(walls, reverse=True)
        # per-phase columns surfaced from provenance phase_s
        assert all("t_engine_s" in row for row in report.cells)

    def test_group_percentiles(self, traced_store):
        store, spec = traced_store
        report = build_report(store, [spec])
        (group,) = report.groups
        assert group["process"] == "cobra" and group["cells"] == 4
        assert group["p50_s"] <= group["p95_s"] <= group["max_s"]
        assert group["max_worker"] == "tester"

    def test_worker_rollup(self, traced_store):
        store, spec = traced_store
        report = build_report(store, [spec])
        (worker,) = report.workers
        assert worker["worker"] == "tester" and worker["cells"] == 4
        assert worker["max_s"] <= worker["total_s"]

    def test_event_health_counted(self, traced_store):
        store, spec = traced_store
        report = build_report(store, [spec])
        # 4 cells x 4 phases + 4 cell spans + 1 campaign span
        assert report.events == {"records": 21, "torn": 0}

    def test_no_ledger_for_single_process_campaigns(self, traced_store):
        store, spec = traced_store
        report = build_report(store, [spec])
        assert report.ledger == {}
        assert "single-process campaign" in report.render()

    def test_render_sections(self, traced_store):
        store, spec = traced_store
        text = build_report(store, [spec]).render()
        assert "stragglers" in text
        assert "wall time by process/graph_kind/engine" in text
        assert "worker attribution" in text
        assert "21 record(s), 0 torn line(s)" in text

    def test_empty_store_renders_gracefully(self, tmp_path):
        report = build_report(ResultStore(tmp_path))
        assert report.render() == "no stored cells to report on"

    def test_whole_store_when_specs_omitted(self, traced_store):
        store, _ = traced_store
        assert len(build_report(store).cells) == 4


class TestLedgerStats:
    def test_drain_fills_ledger_health(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        tracer = tracer_for_store(tmp_path, worker="w1")
        drain(spec, store, owner="w1", tracer=tracer)
        report = build_report(store, [spec])
        led = report.ledger
        assert led["claims"] == 4 and led["done"] == 4
        assert led["reclaimed"] == 0 and led["abandoned"] == 0
        assert led["stale"] == 0 and led["live"] == 0
        assert led["double_computed"] == 0
        assert "4 claim(s)" in report.render()

    def test_lease_events_attributed(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        tracer = tracer_for_store(tmp_path, worker="w1")
        drain(spec, store, owner="w1", tracer=tracer)
        from repro.obs import load_events

        phases = load_events(tmp_path).filter(kind="phase")
        assert len(phases) == 16
        assert all(r.get("lease") for r in phases.rows)
        # lease lands in provenance too
        for key in spec.expand():
            prov = store.get(key)["provenance"]
            assert prov["worker"] == "w1" and prov["lease"]


class TestTop:
    def test_snapshot_shows_progress_and_stragglers(self, traced_store):
        store, spec = traced_store
        text = render_top(store, [spec])
        assert "4/4 cells stored" in text
        assert "live leases: 0" in text
        assert "recent events" in text
        assert "slowest cells so far:" in text

    def test_live_top_polls_until_complete(self, traced_store):
        store, spec = traced_store
        screens, naps = [], []
        rc = live_top(
            store, [spec], interval=0.1, out=screens.append, sleep=naps.append
        )
        assert rc == 0
        assert len(screens) == 1 and naps == []  # already drained: one screen

    def test_live_top_iteration_budget(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()  # nothing stored: would poll forever
        screens, naps = [], []
        rc = live_top(
            store,
            [spec],
            interval=0.5,
            iterations=3,
            out=screens.append,
            sleep=naps.append,
        )
        assert rc == 0
        assert len(screens) == 3 and naps == [0.5, 0.5]


class TestProfile:
    def test_profile_records_peak_rss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        Campaign(spec, store, profile=True).run()
        for key in spec.expand():
            prov = store.get(key)["provenance"]
            assert prov["peak_rss_mb"] > 0
        assert all(
            row["peak_rss_mb"] > 0 for row in store.frame().rows
        )
