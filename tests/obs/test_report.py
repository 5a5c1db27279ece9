"""Straggler-report math and the live top snapshot.

One small traced campaign (and one dispatch drain) per fixture; the
report must attribute every cell to a worker, group percentiles
correctly, and read ledger/event health from the store directory.
"""

import re
import warnings

import pytest

from repro.obs import build_report, live_top, render_top, tracer_for_store
from repro.store import (
    Campaign,
    ClaimLedger,
    ResultStore,
    SeedPolicy,
    SweepSpec,
    compact,
    drain,
    fsck,
)


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

    def test_service_section_from_http_spans(self, traced_store, tmp_path):
        from repro.store.service import SweepService

        store, spec = traced_store
        assert build_report(store).service == []
        service = SweepService(
            ResultStore(tmp_path), tracer=tracer_for_store(tmp_path, worker="srv")
        )
        h = spec.expand()[0].hash
        _, headers, _ = service.handle("GET", "/frame?groupby=g_n")
        service.handle(
            "GET", "/frame?groupby=g_n", headers={"If-None-Match": headers["ETag"]}
        )
        service.handle("GET", "/frame?g_n=6&g_n=8")  # 400
        service.handle("GET", "/frame")
        service.handle("GET", f"/cell/{h}")
        service.handle("GET", "/cell/00ff")  # 404
        service.handle("GET", "/nowhere")  # 404, no route
        report = build_report(store)
        rows = {row["route"]: row for row in report.service}
        assert sorted(rows) == ["(unrouted)", "/cell", "/frame"]
        frame = rows["/frame"]
        assert frame["requests"] == 4 and frame["rate_304"] == 0.25
        assert (frame["4xx"], frame["5xx"]) == (1, 0)
        assert 0 <= frame["p50_ms"] <= frame["p95_ms"] <= frame["max_ms"]
        assert (rows["/cell"]["requests"], rows["/cell"]["4xx"]) == (2, 1)
        assert rows["(unrouted)"]["4xx"] == 1
        assert "service requests by route" in report.render()


def damage(store, spec):
    """Give a traced store one of each fault its readers must count: a
    duplicated cell, a misplaced record, a torn shard line, and a torn
    line in ``claims.jsonl`` and ``events.jsonl``."""
    root = store.root
    first, second, third, fourth = (key.hash for key in spec.expand())
    assert len({first[:2], second[:2], third[:2]}) == 3

    def shard(h):
        return root / "shards" / f"{h[:2]}.jsonl"

    def append(path, text):
        with path.open("a", encoding="utf-8") as fh:
            fh.write(text)

    (line,) = shard(first).read_text(encoding="utf-8").splitlines()
    append(shard(first), line + "\n")  # the cell stored twice
    (moved,) = shard(second).read_text(encoding="utf-8").splitlines()
    shard(second).write_text("", encoding="utf-8")
    append(shard(third), moved + "\n")  # filed under the wrong prefix
    append(shard(third), '{"hash": "ab", "key": {torn\n')
    ledger = ClaimLedger(root)
    ledger.try_claim([fourth], owner="w", ttl=10.0, now=1000.0)
    ledger.release(fourth, owner="w")
    append(root / "claims.jsonl", '{"op": "claim", "hash": torn\n')
    append(root / "events.jsonl", '{"kind": "phase", torn\n')
    return third[:2]


class TestReadersAgree:
    def test_every_reader_counts_the_same_faults(self, traced_store):
        torn_prefix = damage(*traced_store)
        root = traced_store[0].root
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(ResultStore(root)) == 4
        load_torn = sum(
            int(m.group(1))
            for w in caught
            if (m := re.search(r"had (\d+) corrupt", str(w.message)))
        )
        health = fsck(ResultStore(root), now=2000.0)
        with pytest.warns(UserWarning, match=f"had {load_torn} corrupt"):
            report = build_report(ResultStore(root), now=2000.0)
        compacted = compact(ResultStore(root), now=2000.0)

        assert load_torn == 1
        assert health.corrupt_lines == {torn_prefix: load_torn}
        assert compacted.corrupt_dropped == load_torn
        assert len(health.duplicates) == 1
        assert report.ledger["double_computed"] == len(health.duplicates)
        assert compacted.duplicates_dropped == len(health.duplicates)
        assert len(health.misplaced) == 1
        assert compacted.relocated == len(health.misplaced)
        assert health.events_corrupt == 1
        assert report.events["torn"] == health.events_corrupt
        assert report.events["records"] == health.events_records == 21
        # the torn claim line replays to nothing on either reader
        assert (report.ledger["claims"], report.ledger["done"]) == (1, 1)
        assert compacted.claims_dropped == 2
        after = fsck(ResultStore(root), now=2000.0)
        assert after.corrupt_lines == {} and after.misplaced == []
        assert after.duplicates == {} and after.cells == 4


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
