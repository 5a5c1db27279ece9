"""Campaign cache correctness: zero recompute, resume parity, provenance.

These are the acceptance tests of the sweep store: a completed
``SweepSpec`` re-runs with **zero** ``run_batch`` calls (counted by
monkeypatching the campaign's ``run_batch`` binding), a corrupted
shard forces exactly the affected cell to re-run, and an interrupted
campaign resumed in a fresh process state is seed-for-seed identical
to an uninterrupted one.
"""

import pytest

import repro.store.campaign as campaign_mod
from repro.store import (
    Campaign,
    ResultStore,
    SeedPolicy,
    SweepSpec,
)


def make_spec(**over):
    base = dict(
        name="camp",
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
def run_counter(monkeypatch):
    """Count (and pass through) the campaign's run_batch calls."""
    calls = []
    real = campaign_mod.run_batch

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(campaign_mod, "run_batch", counting)
    return calls


class TestZeroRecompute:
    def test_second_run_is_pure_cache(self, run_counter):
        store = ResultStore()
        spec = make_spec()
        first = Campaign(spec, store).run()
        assert len(run_counter) == 4 and len(first.ran) == 4
        second = Campaign(spec, store).run()
        assert len(run_counter) == 4, "re-running a completed sweep recomputed"
        assert second.ran == [] and len(second.cached) == 4
        assert second.complete

    def test_cross_sweep_sharing(self, run_counter):
        # same cells under a different sweep name: still zero recompute
        store = ResultStore()
        Campaign(make_spec(name="one"), store).run()
        second = Campaign(make_spec(name="two"), store)
        report = second.run()
        assert len(run_counter) == 4
        assert report.ran == []
        # frame() addresses cells by content, so the deduped results
        # still surface under THIS campaign's name
        frame = second.frame()
        assert len(frame) == 4
        assert set(frame.column("sweep")) == {"two"}

    def test_changed_trials_recomputes(self, run_counter):
        store = ResultStore()
        Campaign(make_spec(), store).run()
        Campaign(make_spec(trials=4), store).run()
        assert len(run_counter) == 8

    def test_changed_seed_policy_recomputes(self, run_counter):
        store = ResultStore()
        Campaign(make_spec(), store).run()
        Campaign(make_spec(seed=SeedPolicy(root=5, kind="fixed")), store).run()
        assert len(run_counter) == 8

    def test_corrupted_cell_reruns_only_itself(self, run_counter, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path / "s")
        Campaign(spec, store).run()
        victim = spec.expand()[1]
        shard = tmp_path / "s" / "shards" / f"{victim.hash[:2]}.jsonl"
        text = [
            line
            for line in shard.read_text(encoding="utf-8").splitlines()
            if victim.hash not in line
        ]
        shard.write_text("\n".join(text + ["{torn"]) + "\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="corrupt"):
            report = Campaign(spec, ResultStore(tmp_path / "s")).run()
        assert report.ran == [victim.hash]
        assert len(run_counter) == 5


class TestResumeParity:
    def test_interrupted_resume_is_seed_for_seed_identical(self, tmp_path):
        spec = make_spec()
        cells = spec.expand()

        # uninterrupted reference
        reference = ResultStore()
        Campaign(spec, reference).run()

        # killed after 1 cell, resumed after 2 more, finished after the rest
        store_path = tmp_path / "s"
        for budget in (1, 2, None):
            Campaign(spec, ResultStore(store_path)).run(max_cells=budget)
        resumed = ResultStore(store_path)
        for cell in cells:
            a = reference.get(cell)["result"]["values"]
            b = resumed.get(cell)["result"]["values"]
            assert a == b, "resume changed a cell's trial values"

    def test_expansion_order_does_not_shift_streams(self):
        # a cell's values are identical whether it is swept alone or as
        # part of a bigger grid (content-derived seeds)
        lone = make_spec(graph_grid={"n": [8], "d": [2]}, params_grid={"k": [2]})
        grid = make_spec()
        store = ResultStore()
        Campaign(grid, store).run()
        lone_store = ResultStore()
        Campaign(lone, lone_store).run()
        cell = lone.expand()[0]
        assert (
            store.get(cell)["result"]["values"]
            == lone_store.get(cell)["result"]["values"]
        )

    def test_max_cells_zero_runs_nothing(self):
        store = ResultStore()
        report = Campaign(make_spec(), store).run(max_cells=0)
        assert report.ran == [] and len(report.pending) == 4


class TestStatusAndProvenance:
    def test_status_counts(self):
        spec = make_spec()
        store = ResultStore()
        campaign = Campaign(spec, store)
        assert campaign.status().pending == 4
        campaign.run(max_cells=3)
        status = campaign.status()
        assert (status.total, status.done, status.pending) == (4, 3, 1)
        assert not status.complete
        campaign.run()
        assert campaign.status().complete

    def test_provenance_fields(self):
        spec = make_spec()
        store = ResultStore()
        Campaign(spec, store).run()
        record = store.get(spec.expand()[0])
        prov = record["provenance"]
        assert prov["sweep"] == "camp"
        assert prov["engine"] == "vectorized"
        assert prov["wall_time_s"] >= 0
        assert prov["graph_name"].startswith("grid")
        assert prov["graph_n"] == 49
        assert prov["graph_kind"] == "csr"
        assert prov["seed_entropy"][0] == 5
        # observability additions: worker/per-phase timings ride along
        # even for untraced runs, and surface as Frame columns; the
        # engine label alone records which path ran
        assert "backend" not in prov
        assert prov["worker"]
        assert set(prov["phase_s"]) == {"build_graph", "lower", "engine"}
        row = store.frame().rows[0]
        assert row["engine"] == "vectorized" and row["t_engine_s"] >= 0

    def test_oracle_cells_record_their_topology_kind(self):
        spec = SweepSpec(
            name="implicit",
            process="cobra",
            graph="torus_oracle",
            graph_grid={"n": [4], "d": [2]},
            trials=2,
            max_steps=2000,
        )
        store = ResultStore()
        report = Campaign(spec, store).run()
        assert report.complete
        record = store.get(spec.expand()[0])
        prov = record["provenance"]
        assert prov["graph_kind"] == "torus"
        assert prov["graph_n"] == 25
        # the kind is queryable through the Frame row schema
        assert store.frame().column("graph_kind") == ["torus"]

    def test_serial_engine_label_for_min_metric(self):
        spec = SweepSpec(
            name="minima",
            process="branching_minima",
            graph="path_graph",
            graph_grid={"n": [65]},
            params_grid={"generations": [6]},
            trials=2,
        )
        store = ResultStore()
        Campaign(spec, store).run()
        record = store.get(spec.expand()[0])
        assert record["provenance"]["engine"] == "serial"
        assert record["key"]["metric"] == "min"
        # generation-6 minimum of a supercritical BRW is within [-6, 0]
        values = record["result"]["values"]
        assert all(-6 <= v <= 0 for v in values)

    def test_hit_sweep_with_target_rule(self):
        spec = SweepSpec(
            name="hits",
            process="cobra",
            graph="cycle_graph",
            graph_grid={"n": [16, 24]},
            metric="hit",
            target="center",
            trials=3,
        )
        store = ResultStore()
        report = Campaign(spec, store).run()
        assert report.complete and len(report.ran) == 2
        frame = store.frame()
        assert set(frame.column("target")) == {"center"}
        assert all(v is not None for v in frame.column("mean"))


class TestStoresWithBackendProvenance:
    """Stores written while provenance still carried a ``backend`` key
    (and engine labels this code no longer produces) keep working:
    they load, report, pass ``fsck`` and stay cached, and no cell key
    moves."""

    #: cell hashes of ``make_spec()``, computed before ``backend`` left
    #: provenance and ``SweepSpec``
    HASHES = [
        "04dab35233672e1e8ccae2db47977290066751f61cf0482bb722a7af62c13b30",
        "47313a942cf8803a0b5f27696150abfb72d4dfe621e6e9b8db5faaa938d059f3",
        "bfe917b1c0fc56abc425429a4b13a60498566f72cfc27d47c9081557454c6249",
        "0c82f94a1e280130dd34aa470637b03e2cbbec602f82685b62fd47ad8fe4ec35",
    ]
    LEGACY_ENGINE = "vectorized[compiled]"
    #: label of the removed sharded executor, still present in old stores
    SHARDED_ENGINE = "sharded(shards=2)"
    LEGACY_ENGINES = {LEGACY_ENGINE, SHARDED_ENGINE}

    @pytest.fixture()
    def old_store(self, tmp_path):
        import json

        root = tmp_path / "store"
        Campaign(make_spec(), ResultStore(root)).run()
        for shard in sorted((root / "shards").glob("*.jsonl")):
            records = [json.loads(line) for line in shard.read_text().splitlines()]
            for record in records:
                record["provenance"]["backend"] = "numpy"
                if record["hash"] == self.HASHES[0]:
                    record["provenance"]["engine"] = self.LEGACY_ENGINE
                if record["hash"] == self.HASHES[1]:
                    record["provenance"]["engine"] = self.SHARDED_ENGINE
            shard.write_text(
                "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
            )
        return root

    def test_cell_keys_are_unchanged(self):
        assert [key.hash for key in make_spec().expand()] == self.HASHES

    def test_loads_in_frame(self, old_store):
        frame = ResultStore(old_store).frame()
        assert sorted(frame.column("hash")) == sorted(self.HASHES)
        assert set(frame.column("engine")) == {"vectorized"} | self.LEGACY_ENGINES

    def test_renders_in_sweep_report(self, old_store):
        from repro.obs.report import build_report

        report = build_report(ResultStore(old_store), [make_spec()])
        assert {g["engine"] for g in report.groups} == (
            {"vectorized"} | self.LEGACY_ENGINES
        )
        rendered = report.render()
        assert all(label in rendered for label in self.LEGACY_ENGINES)

    def test_fsck_is_clean(self, old_store):
        from repro.store import fsck

        report = fsck(ResultStore(old_store))
        assert report.clean and report.cells == 4

    def test_campaign_reports_every_cell_cached(self, old_store, run_counter):
        report = Campaign(make_spec(), ResultStore(old_store)).run()
        assert sorted(report.cached) == sorted(self.HASHES)
        assert report.ran == [] and run_counter == []


class TestPoolContext:
    """The start method ``Campaign(workers=N)`` spawns its workers with."""

    def test_without_fork(self, monkeypatch):
        # platforms without fork (Windows/macOS-spawn) must fall back to
        # the default context instead of raising
        import multiprocessing as mp

        monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
        ctx = campaign_mod._pool_context()
        assert hasattr(ctx, "Pool")

    def test_prefers_fork(self):
        import multiprocessing as mp

        if "fork" in mp.get_all_start_methods():
            assert campaign_mod._pool_context().get_start_method() == "fork"
