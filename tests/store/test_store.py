"""ResultStore persistence, corruption tolerance, and the Frame API."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.sim.montecarlo import summarize_trials
import repro.store.store as store_mod
from repro.store import LocalBackend, ResultStore, SeedPolicy, SweepSpec


@pytest.fixture()
def cells():
    return SweepSpec(
        name="demo",
        process="cobra",
        graph="grid",
        graph_grid={"n": [6, 8], "d": [2]},
        params_grid={"k": [1, 2]},
        trials=3,
        seed=SeedPolicy(root=3),
    ).expand()


def put_fake(store, key, values, **provenance):
    return store.put(
        key,
        summarize_trials(np.asarray(values, dtype=np.float64)),
        {"sweep": "demo", "engine": "vectorized", "wall_time_s": 0.1,
         "graph_name": "g", "graph_n": 49, **provenance},
    )


class TestRoundTrip:
    def test_memory_store(self, cells):
        store = ResultStore()
        assert not store.has(cells[0])
        put_fake(store, cells[0], [1.0, 2.0, 3.0])
        assert store.has(cells[0])
        assert store.get(cells[0].hash)["result"]["mean"] == 2.0
        assert len(store) == 1

    def test_disk_store_survives_reopen(self, cells, tmp_path):
        store = ResultStore(tmp_path / "s")
        for i, c in enumerate(cells):
            put_fake(store, c, [float(i)] * 3)
        again = ResultStore(tmp_path / "s")
        assert len(again) == len(cells)
        for i, c in enumerate(cells):
            assert again.get(c)["result"]["mean"] == float(i)
        assert (tmp_path / "s" / "meta.json").exists()

    def test_nan_values_roundtrip(self, cells, tmp_path):
        store = ResultStore(tmp_path / "s")
        put_fake(store, cells[0], [1.0, float("nan")])
        rec = ResultStore(tmp_path / "s").get(cells[0])
        assert rec["result"]["failures"] == 1
        values = np.asarray(rec["result"]["values"])
        assert np.isnan(values).sum() == 1

    def test_summary_rehydrates(self, cells):
        store = ResultStore()
        put_fake(store, cells[0], [2.0, 4.0, 6.0])
        summary = store.summary(cells[0])
        assert summary.mean == 4.0 and summary.trials == 3
        assert store.summary(cells[1]) is None

    def test_point_lookup_loads_one_shard(self, cells, tmp_path):
        store = ResultStore(tmp_path / "s")
        for c in cells:
            put_fake(store, c, [1.0])
        again = ResultStore(tmp_path / "s")
        again.get(cells[0])
        assert len(again._loaded_shards) == 1


class TestCorruption:
    def test_corrupt_line_is_skipped_and_cell_rerenders_as_missing(
        self, cells, tmp_path
    ):
        store = ResultStore(tmp_path / "s")
        put_fake(store, cells[0], [1.0, 2.0])
        shard = tmp_path / "s" / "shards" / f"{cells[0].hash[:2]}.jsonl"
        # simulate a torn write: truncate the record mid-JSON
        text = shard.read_text(encoding="utf-8")
        shard.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.warns(UserWarning, match="corrupt"):
            fresh = ResultStore(tmp_path / "s")
            assert not fresh.has(cells[0])

    def test_partial_trailing_line_keeps_earlier_records(self, cells, tmp_path):
        store = ResultStore(tmp_path / "s")
        a, b = cells[0], cells[1]
        put_fake(store, a, [1.0])
        record = put_fake(store, b, [2.0])
        if a.hash[:2] != b.hash[:2]:
            # force both into one shard file to model the torn tail
            shard = tmp_path / "s" / "shards" / f"{a.hash[:2]}.jsonl"
            with shard.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record)[:40])
            with pytest.warns(UserWarning, match="corrupt"):
                fresh = ResultStore(tmp_path / "s")
                assert fresh.has(a)
        else:
            shard = tmp_path / "s" / "shards" / f"{a.hash[:2]}.jsonl"
            with shard.open("a", encoding="utf-8") as fh:
                fh.write("{\"hash\": \"zz\", broken")
            with pytest.warns(UserWarning, match="corrupt"):
                fresh = ResultStore(tmp_path / "s")
                assert fresh.has(a) and fresh.has(b)

    def test_record_missing_result_fields_is_corrupt(self, cells, tmp_path):
        store = ResultStore(tmp_path / "s")
        put_fake(store, cells[0], [1.0])
        shard = tmp_path / "s" / "shards" / f"{cells[0].hash[:2]}.jsonl"
        record = json.loads(shard.read_text(encoding="utf-8"))
        del record["result"]["mean"]
        shard.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="corrupt"):
            assert not ResultStore(tmp_path / "s").has(cells[0])

    def test_last_write_wins_on_duplicates(self, cells, tmp_path):
        store = ResultStore(tmp_path / "s")
        put_fake(store, cells[0], [1.0])
        put_fake(store, cells[0], [9.0])
        assert ResultStore(tmp_path / "s").get(cells[0])["result"]["mean"] == 9.0


class TestFrame:
    def test_rows_filter_sort_column(self, cells):
        store = ResultStore()
        for i, c in enumerate(cells):
            put_fake(store, c, [10.0 * (i + 1)])
        frame = store.frame()
        assert len(frame) == 4
        k2 = frame.filter(k=2)
        assert len(k2) == 2
        assert set(k2.column("k")) == {2}
        ordered = k2.sort_by("g_n").column("g_n")
        assert ordered == sorted(ordered)
        assert len(frame.filter(process="nope")) == 0

    def test_frame_prefilter_kwargs(self, cells):
        store = ResultStore()
        for c in cells:
            put_fake(store, c, [1.0])
        assert len(store.frame(k=1, g_n=6)) == 1

    def test_summarize_and_fit(self, cells):
        store = ResultStore()
        for c in cells:
            n = dict(c.graph_params)["n"]
            put_fake(store, c, [float(n) * 2])
        frame = store.frame(k=2).sort_by("g_n")
        summary = frame.summarize("mean")
        assert summary.n == 2
        fit = frame.fit_power_law(x="g_n")
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)

    def test_to_table_renders_missing_as_dash(self, cells):
        store = ResultStore()
        put_fake(store, cells[0], [1.0])
        table = store.frame().to_table(["g_n", "k", "mean", "absent"], title="t")
        text = table.render()
        assert "t" in text and "-" in text

    def test_groupby_single_column(self, cells):
        store = ResultStore()
        for i, c in enumerate(cells):
            put_fake(store, c, [float(i)])
        groups = dict(store.frame().groupby("k"))
        assert set(groups) == {1, 2}
        assert all(len(sub) == 2 for sub in groups.values())
        assert set(groups[1].column("k")) == {1}

    def test_groupby_multiple_columns_keys_are_tuples(self, cells):
        store = ResultStore()
        for c in cells:
            put_fake(store, c, [1.0])
        groups = store.frame().groupby("k", "g_n")
        assert len(groups) == 4
        assert all(isinstance(key, tuple) and len(sub) == 1
                   for key, sub in groups)

    def test_groupby_preserves_first_appearance_order(self, cells):
        store = ResultStore()
        for c in cells:
            put_fake(store, c, [1.0])
        keys = [key for key, _ in store.frame().sort_by("g_n").groupby("g_n")]
        assert keys == sorted(keys)

    def test_groupby_needs_a_column(self, cells):
        with pytest.raises(ValueError, match="at least one column"):
            ResultStore().frame().groupby()

    def test_aggregate_mean_per_group(self, cells):
        store = ResultStore()
        for c in cells:
            n = dict(c.graph_params)["n"]
            put_fake(store, c, [float(n), float(n) + 2.0])
        rows = store.frame().aggregate("g_n")
        assert {r["g_n"]: r["mean"] for r in rows} == {6: 7.0, 8: 9.0}
        assert all(r["rows"] == 2 for r in rows)

    def test_aggregate_count_and_max(self, cells):
        store = ResultStore()
        for i, c in enumerate(cells):
            put_fake(store, c, [float(i)])
        counts = store.frame().aggregate("k", agg="count")
        assert all(r["count"] == 2 for r in counts)
        peaks = store.frame().aggregate("k", column="mean", agg="max")
        assert all(r["max"] >= 0.0 for r in peaks)

    def test_aggregate_rejects_unknown_reduction(self, cells):
        store = ResultStore()
        put_fake(store, cells[0], [1.0])
        with pytest.raises(ValueError, match="unknown aggregation"):
            store.frame().aggregate("k", agg="mode")


class TestWarmStore:
    """A reader that refreshes sees every change another writer makes,
    while an unchanged shard costs one read and no parse."""

    @pytest.fixture()
    def pair(self, tmp_path):
        backend = LocalBackend(tmp_path / "s")
        return ResultStore(backend=backend), ResultStore(backend=backend)

    @staticmethod
    def _row(store, cell):
        store.refresh()
        (row,) = [r for r in store.frame() if r["hash"] == cell.hash]
        return row

    def test_unchanged_shards_are_read_but_not_parsed(
        self, cells, pair, monkeypatch
    ):
        reader, writer = pair
        for c in cells:
            put_fake(writer, c, [1.0])
        first = reader.frame()
        calls = {"read_blob": 0, "parse_record": 0, "record_row": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        backend = reader.backend
        monkeypatch.setattr(
            backend, "read_blob", counting("read_blob", backend.read_blob)
        )
        for name in ("parse_record", "record_row"):
            monkeypatch.setattr(
                store_mod, name, counting(name, getattr(store_mod, name))
            )
        reader.refresh()
        assert reader.frame().rows == first.rows
        assert calls == {
            "read_blob": len(reader.shard_keys()),
            "parse_record": 0,
            "record_row": 0,
        }

    def test_new_cell_from_another_writer(self, cells, pair):
        reader, writer = pair
        put_fake(writer, cells[0], [1.0])
        assert len(reader.frame()) == 1
        put_fake(writer, cells[1], [2.0])
        assert self._row(reader, cells[1])["mean"] == 2.0
        assert len(reader.frame()) == 2

    def test_duplicate_shows_the_last_write(self, cells, pair):
        reader, writer = pair
        put_fake(writer, cells[0], [1.0])
        assert self._row(reader, cells[0])["engine"] == "vectorized"
        put_fake(writer, cells[0], [1.0], engine="serial")
        assert self._row(reader, cells[0])["engine"] == "serial"
        assert reader.get(cells[0])["provenance"]["engine"] == "serial"

    def test_compare_and_swap_rewrite_shows_up(self, cells, pair):
        reader, writer = pair
        put_fake(writer, cells[0], [1.0])
        assert self._row(reader, cells[0])["worker"] is None
        key = f"shards/{cells[0].hash[:2]}.jsonl"
        data, etag = writer.backend.read_blob(key)
        record = json.loads(data)
        record["provenance"]["worker"] = "compacted"
        assert writer.backend.compare_and_swap(
            key, (json.dumps(record, sort_keys=True) + "\n").encode(), etag
        )
        assert self._row(reader, cells[0])["worker"] == "compacted"

    def test_mutating_a_row_leaves_the_next_frame_alone(self, cells, pair):
        reader, writer = pair
        put_fake(writer, cells[0], [1.0])
        row = reader.frame().rows[0]
        pristine = dict(row)
        row["mean"] = -1.0
        row["extra"] = "scribble"
        assert reader.frame().rows == [pristine]
        reader.refresh()
        assert reader.frame().rows == [pristine]

    def test_torn_tail_is_parsed_once_complete(self, cells, pair, tmp_path):
        reader, writer = pair
        put_fake(writer, cells[0], [1.0])
        assert len(reader.frame()) == 1
        line = json.dumps(
            put_fake(ResultStore(), cells[1], [2.0]), sort_keys=True
        ) + "\n"
        shard = tmp_path / "s" / "shards" / f"{cells[1].hash[:2]}.jsonl"
        with shard.open("a", encoding="utf-8") as fh:
            fh.write(line[:40])
        reader.refresh()
        with pytest.warns(UserWarning, match="corrupt"):
            assert not reader.has(cells[1])
        with shard.open("a", encoding="utf-8") as fh:
            fh.write(line[40:])
        assert self._row(reader, cells[1])["mean"] == 2.0

    # a reader can catch an append mid-write and skip its torn tail;
    # the final assertion is what proves that heals
    @pytest.mark.filterwarnings("ignore:store shard .* corrupt:UserWarning")
    def test_concurrent_frames_end_on_the_last_write(self, cells, pair):
        # the service answers from a thread per connection: loaders
        # racing a writer must never leave an older parse under the
        # newest shard ETag
        reader, writer = pair
        put_fake(writer, cells[0], [1.0], worker="w0")
        stop = threading.Event()

        def frames():
            while not stop.is_set():
                reader.refresh()
                reader.frame()

        threads = [threading.Thread(target=frames) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for i in range(1, 40):
                put_fake(writer, cells[0], [1.0], worker=f"w{i}")
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert self._row(reader, cells[0])["worker"] == "w39"
