"""Lease/claim dispatch over a shared store: parity, fsck, compaction.

The acceptance test of the dispatcher is :class:`TestWorkerPool`: a
2-worker concurrent drain of a sweep stores values **identical** to an
uninterrupted single-worker ``Campaign.run()`` for every cell, and
``fsck`` reports a clean store afterward (the CI dispatch smoke proves
the same thing with two separate ``sweep work`` OS processes).
"""

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.store import (
    Campaign,
    ClaimLedger,
    InMemoryCASBackend,
    ResultStore,
    SeedPolicy,
    SweepSpec,
    compact,
    drain,
    fsck,
)
from repro.store.dispatch import CLAIMS_FILE
from repro.store.sweeps import build_sweep


def make_spec(**over):
    base = dict(
        name="dispatch",
        process="cobra",
        graph="grid",
        graph_grid={"n": [6, 8], "d": [2]},
        params_grid={"k": [1, 2]},
        trials=3,
        seed=SeedPolicy(root=5),
    )
    base.update(over)
    return SweepSpec(**base)


def live_leases(ledger):
    """The ledger's leases that have not expired by now."""
    now = time.time()
    return {h: ls for h, ls in ledger.leases().items() if not ls.expired(now)}


def full_replay(ledger):
    """The lease state of every record in the ledger, replayed at once."""
    state = {}
    ClaimLedger._apply(state, ledger.records())
    return state


@pytest.fixture()
def reference():
    """Uninterrupted single-worker values for the 2x2 spec."""
    store = ResultStore()
    Campaign(make_spec(), store).run()
    return store


@pytest.fixture()
def drained_memory_store():
    """The DEMO_grid2x2 sweep drained by one worker into ``ResultStore()``."""
    (spec,) = build_sweep("DEMO_grid2x2")
    store = ResultStore()
    report = drain(spec, store, owner="w1")
    return spec, store, report


class TestClaimLedger:
    def test_hash_released_done_since_the_last_read_is_not_claimed(
        self, tmp_path
    ):
        a = ClaimLedger(tmp_path)
        b = ClaimLedger(tmp_path)
        assert a.try_claim(["h1", "h2"], owner="A", limit=None) == ["h1", "h2"]
        b._read()  # B last saw both leased to A
        a.release("h1", owner="A")
        a.release("h2", owner="A", op="abandon")
        # B's claim read is the first to show h1 stored: B must look in
        # the store, not claim it; an abandoned cell is claimable at once
        assert b.try_claim(["h1", "h2"], owner="B", limit=None) == ["h2"]
        # once B has read the release, h1 is free to claim again (a cell
        # whose record went missing after its release)
        assert b.try_claim(["h1"], owner="B") == ["h1"]

    def test_claim_is_exclusive(self, tmp_path):
        a = ClaimLedger(tmp_path)
        b = ClaimLedger(tmp_path)
        assert a.try_claim(["h1", "h2"], owner="A") == ["h1"]
        # a second worker (separate handle) cannot win a live lease
        assert b.try_claim(["h1"], owner="B") == []
        assert b.try_claim(["h1", "h2"], owner="B") == ["h2"]
        leases = live_leases(a)
        assert leases["h1"].owner == "A" and leases["h2"].owner == "B"

    def test_release_clears_the_lease(self, tmp_path):
        ledger = ClaimLedger(tmp_path)
        ledger.try_claim(["h1"], owner="A")
        ledger.release("h1", owner="A")
        assert live_leases(ledger) == {}
        # and the cell is claimable again
        assert ledger.try_claim(["h1"], owner="B") == ["h1"]

    def test_expired_lease_is_reclaimable(self, tmp_path):
        ledger = ClaimLedger(tmp_path)
        t0 = 1000.0
        ledger.try_claim(["h1"], owner="A", ttl=10.0, now=t0)
        # still live at t0+5: the claim is refused
        assert ledger.try_claim(["h1"], owner="B", now=t0 + 5) == []
        # expired at t0+11: worker B takes over
        assert ledger.try_claim(["h1"], owner="B", now=t0 + 11) == ["h1"]
        assert ledger.leases()["h1"].owner == "B"

    def test_limit_one_claims_in_preference_order(self, tmp_path):
        ledger = ClaimLedger(tmp_path)
        assert ledger.try_claim(["h3", "h1"], owner="A", limit=1) == ["h3"]
        assert ledger.try_claim(["h3", "h1"], owner="A", limit=None) == ["h1"]

    def test_torn_ledger_lines_are_skipped(self, tmp_path):
        ledger = ClaimLedger(tmp_path)
        ledger.try_claim(["h1"], owner="A")
        with (tmp_path / CLAIMS_FILE).open("a", encoding="utf-8") as fh:
            fh.write('{"op": "claim", "hash": "h2", torn')
        assert set(ledger.leases()) == {"h1"}

    def test_claim_after_a_torn_tail_is_seen_by_other_workers(self, tmp_path):
        a, b = ClaimLedger(tmp_path), ClaimLedger(tmp_path)
        a.try_claim(["h1"], owner="A")
        with (tmp_path / CLAIMS_FILE).open("a", encoding="utf-8") as fh:
            fh.write('{"op": "claim", "hash": "h9", torn')
        assert a.try_claim(["h2"], owner="A") == ["h2"]
        # the claim starts its own line instead of gluing onto the tail
        assert b.try_claim(["h2"], owner="B") == []
        assert set(live_leases(b)) == {"h1", "h2"}

    def test_release_after_a_torn_tail_is_seen(self, tmp_path):
        ledger = ClaimLedger(tmp_path)
        ledger.try_claim(["h1"], owner="A")
        with (tmp_path / CLAIMS_FILE).open("a", encoding="utf-8") as fh:
            fh.write('{"op": "claim", "hash": "h9", torn')
        ledger.release("h1", owner="A")
        assert live_leases(ClaimLedger(tmp_path)) == {}

    def test_release_validates_op(self, tmp_path):
        with pytest.raises(ValueError, match="done/abandon"):
            ClaimLedger(tmp_path).release("h1", owner="A", op="lost")

    def test_claims_parse_only_the_new_lines(self, tmp_path, monkeypatch):
        ledger = ClaimLedger(tmp_path)
        for i in range(30):
            ledger.try_claim([f"h{i}"], owner="A")
            ledger.release(f"h{i}", owner="A")
        parsed = []
        real = ClaimLedger._parse

        def counting(text):
            parsed.append(len(text.splitlines()))
            return real(text)

        monkeypatch.setattr(ClaimLedger, "_parse", staticmethod(counting))
        assert ledger.try_claim(["h30"], owner="A") == ["h30"]
        # only h29's claim and release are new since the previous read
        assert parsed == [2]
        # a fresh handle (or a rewritten ledger) replays everything
        parsed.clear()
        assert ClaimLedger(tmp_path).try_claim(["h30"], owner="B") == []
        assert parsed == [61]


#: one step of the incremental-replay property: (worker, action, cell)
_LEDGER_STEPS = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.sampled_from(
            ["claim", "claim_expired", "done", "abandon", "compact", "torn",
             "unterminated", "torn_then_claim"]
        ),
        st.integers(0, 4),
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(steps=_LEDGER_STEPS)
def test_incremental_replay_equals_full_replay(steps):
    """After any mix of claims, releases, compaction and torn tails, the
    lease state a claim decides on is the full replay of the ledger, and
    a lease won right after a torn tail is visible to the other worker."""
    backend = InMemoryCASBackend()
    ledgers = [ClaimLedger(backend), ClaimLedger(backend)]
    for worker, action, cell in steps:
        ledger, h = ledgers[worker], f"h{cell}"
        if action == "claim":
            ledger.try_claim([h], owner=f"w{worker}", ttl=3600.0)
        elif action == "claim_expired":
            ledger.try_claim([h], owner=f"w{worker}", ttl=0.0)
        elif action in ("done", "abandon"):
            ledger.release(h, owner=f"w{worker}", op=action)
        elif action == "compact":
            compact(ResultStore(backend=backend), force=True)
        else:
            blob = backend.read_blob(CLAIMS_FILE)
            data, etag = blob if blob is not None else (b"", None)
            tail = (
                json.dumps({"op": "done", "hash": h, "owner": "x"}).encode()
                if action == "unterminated"
                else b'{"op": "claim", "hash": "h'
            )
            backend.compare_and_swap(CLAIMS_FILE, data + tail, etag)
            if action == "torn_then_claim" and ledger.try_claim(
                [h], owner=f"w{worker}", ttl=3600.0
            ):
                _, _, seen = ledgers[1 - worker]._read()
                assert seen[h].owner == f"w{worker}"
        for each in ledgers:
            _, _, state = each._read()
            assert state == full_replay(each)


class _CommitBeforeClaimRead:
    """Backend proxy on which a rival worker claims, stores and releases
    *spec*'s one cell ``done`` just before the first ledger read that
    follows the drain's store scan — the window between a worker's scan
    and its first claim."""

    def __init__(self, inner, spec, rival_hash):
        self.inner = inner
        self.spec = spec
        self.rival_hash = rival_hash
        self.scanned = False
        self.committed = False

    def read_blob(self, key):
        if key.startswith("shards/"):
            self.scanned = True
        elif key == CLAIMS_FILE and self.scanned and not self.committed:
            self.committed = True
            rival = ClaimLedger(self.inner)
            assert rival.try_claim([self.rival_hash], owner="A")
            Campaign(self.spec, ResultStore(backend=self.inner)).run()
            rival.release(self.rival_hash, owner="A")
        return self.inner.read_blob(key)

    def append_line(self, key, line):
        self.inner.append_line(key, line)

    def list_prefix(self, prefix):
        return self.inner.list_prefix(prefix)

    def compare_and_swap(self, key, data, etag):
        return self.inner.compare_and_swap(key, data, etag)


class TestDrain:
    def test_cell_stored_between_scan_and_claim_is_not_reclaimed(self):
        """A cell another worker stores and releases after this worker's
        store scan is settled from the store, not claimed a second time:
        the ledger keeps one claim and one release per cell."""
        spec = make_spec(graph_grid={"n": [6], "d": [2]}, params_grid={"k": [1]})
        (cell,) = spec.expand()
        inner = InMemoryCASBackend()
        proxy = _CommitBeforeClaimRead(inner, spec, cell.hash)
        report = drain(spec, ResultStore(backend=proxy), owner="B")
        assert proxy.committed
        assert report.ran == [] and report.cached == [cell.hash]
        assert report.complete
        ops = [(r["op"], r["owner"]) for r in ClaimLedger(inner).records()]
        assert ops == [("claim", "A"), ("done", "A")]

    def test_cell_released_done_but_missing_from_the_store_is_run(
        self, tmp_path
    ):
        """A ``done`` whose record never landed (or was lost) does not
        strand the cell: a fresh worker skips it on its first claim,
        finds it missing from the store, and then claims and runs it."""
        spec = make_spec(graph_grid={"n": [6], "d": [2]}, params_grid={"k": [1]})
        (cell,) = spec.expand()
        store = ResultStore(tmp_path / "s")
        ledger = ClaimLedger(store.backend)
        assert ledger.try_claim([cell.hash], owner="A") == [cell.hash]
        ledger.release(cell.hash, owner="A")
        report = drain(spec, store, owner="B")
        assert report.ran == [cell.hash] and report.complete

    def test_single_drain_matches_campaign_values(self, tmp_path, reference):
        spec = make_spec()
        store = ResultStore(tmp_path / "s")
        report = drain(spec, store, owner="w1")
        assert len(report.ran) == 4 and report.complete
        for cell in spec.expand():
            assert (
                store.get(cell)["result"] == reference.get(cell)["result"]
            ), "a dispatched cell diverged from Campaign.run()"
            assert store.get(cell)["provenance"]["worker"] == "w1"

    def test_drain_on_complete_store_is_pure_cache(self, tmp_path):
        spec = make_spec()
        drain(spec, ResultStore(tmp_path / "s"), owner="w1")
        report = drain(spec, ResultStore(tmp_path / "s"), owner="w2")
        assert report.ran == [] and len(report.cached) == 4

    def test_max_cells_defers_the_rest(self, tmp_path):
        spec = make_spec()
        report = drain(spec, ResultStore(tmp_path / "s"), owner="w1", max_cells=1)
        assert len(report.ran) == 1 and len(report.deferred) == 3
        assert not report.complete
        # the claim ledger holds no leases for the deferred cells
        assert live_leases(ClaimLedger(tmp_path / "s")) == {}

    def test_cells_leased_elsewhere_are_deferred_not_stolen(self, tmp_path):
        spec = make_spec()
        cells = spec.expand()
        store = ResultStore(tmp_path / "s")
        ledger = ClaimLedger(tmp_path / "s")
        ledger.try_claim([cells[0].hash], owner="other", ttl=3600)
        report = drain(spec, store, owner="w1")
        assert len(report.ran) == 3
        assert report.deferred == [cells[0].hash]
        assert live_leases(ledger)[cells[0].hash].owner == "other"

    def test_expired_foreign_lease_is_reclaimed(self, tmp_path, reference):
        # a worker "crashed" mid-cell: its lease expired without release
        spec = make_spec()
        cells = spec.expand()
        store = ResultStore(tmp_path / "s")
        ledger = ClaimLedger(tmp_path / "s")
        ledger.try_claim([cells[0].hash], owner="dead", ttl=0.0)
        report = drain(spec, store, owner="rescue")
        assert len(report.ran) == 4 and report.complete
        assert store.get(cells[0])["result"] == reference.get(cells[0])["result"]
        assert ledger.leases() == {}  # the reclaim superseded the dead lease

    def test_failed_cell_abandons_its_lease(self, tmp_path, monkeypatch):
        import repro.store.dispatch as dispatch_mod

        spec = make_spec()
        store = ResultStore(tmp_path / "s")

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(dispatch_mod, "run_cell", boom)
        with pytest.raises(RuntimeError, match="exploded"):
            drain(spec, store, owner="w1")
        ledger = ClaimLedger(tmp_path / "s")
        assert ledger.leases() == {}  # abandoned, not leaked
        assert any(r["op"] == "abandon" for r in ledger.records())

    def test_memory_store_drains_every_cell(self, drained_memory_store):
        spec, store, report = drained_memory_store
        cells = spec.expand()
        assert report.complete and report.ran == [cell.hash for cell in cells]
        reference = ResultStore()
        Campaign(spec, reference).run()
        for cell in cells:
            assert store.get(cell)["result"] == reference.get(cell)["result"]

    def test_cell_committed_between_scan_and_claim_is_not_recomputed(
        self, tmp_path, monkeypatch
    ):
        # the claim/commit race: another worker commits a cell after our
        # pending scan; winning the claim must not recompute it
        import repro.store.dispatch as dispatch_mod
        from repro.store.campaign import run_cell

        spec = make_spec()
        cells = spec.expand()
        store = ResultStore(tmp_path / "s")
        other = ResultStore(tmp_path / "s")
        real = dispatch_mod.ClaimLedger.try_claim
        fired = []

        def racy(self, hashes, **kwargs):
            won = real(self, hashes, **kwargs)
            if won and not fired:
                fired.append(won[0])
                key = next(c for c in cells if c.hash == won[0])
                run_cell(key, other, sweep="other-worker")
            return won

        monkeypatch.setattr(dispatch_mod.ClaimLedger, "try_claim", racy)
        report = drain(spec, store, owner="w1")
        assert len(report.ran) == 3 and report.cached == fired
        assert fsck(store).duplicates == {}

    def test_cells_finished_elsewhere_are_not_claimed(
        self, tmp_path, monkeypatch
    ):
        # a rival worker claims and finishes cells while this one runs:
        # they must be found stored through the ledger's done releases,
        # not claimed (and then found stored) one by one
        import repro.store.dispatch as dispatch_mod
        from repro.store.campaign import run_cell

        spec = make_spec()
        cells = spec.expand()
        root = tmp_path / "s"
        rival, rival_store = ClaimLedger(root), ResultStore(root)
        assert rival.try_claim([cells[3].hash], owner="rival") == [cells[3].hash]

        def finish(key):
            run_cell(key, rival_store, sweep="rival")
            rival.release(key.hash, owner="rival")

        def racing(key, store, **kwargs):
            if key.hash == cells[0].hash:
                for other in cells[1:3]:
                    assert rival.try_claim([other.hash], owner="rival")
                    finish(other)
                finish(cells[3])
            return run_cell(key, store, **kwargs)

        monkeypatch.setattr(dispatch_mod, "run_cell", racing)
        report = drain(spec, ResultStore(root), owner="w1")
        assert report.ran == [cells[0].hash]
        assert sorted(report.cached) == sorted(c.hash for c in cells[1:])
        claimed = [
            r["hash"] for r in ClaimLedger(root).records()
            if r["op"] == "claim" and r["owner"] == "w1"
        ]
        assert claimed == [cells[0].hash]

    def test_multi_spec_drain_dedups_shared_cells(self, tmp_path):
        one = make_spec(name="one")
        two = make_spec(name="two")  # same cells, different sweep label
        report = drain([one, two], ResultStore(tmp_path / "s"), owner="w1")
        assert len(report.ran) == 4  # not 8


class TestWorkerPool:
    """The acceptance criterion: concurrent drain == single-worker run."""

    def test_two_worker_drain_is_value_identical_and_fsck_clean(
        self, tmp_path, reference
    ):
        spec = make_spec()
        store = ResultStore(tmp_path / "s")
        report = Campaign(spec, store, workers=2).run()
        assert report.complete and len(report.ran) == 4
        for cell in spec.expand():
            assert (
                store.get(cell)["result"] == reference.get(cell)["result"]
            ), "2-worker drain diverged from single-worker Campaign.run()"
        check = fsck(store)
        assert check.clean, check.summary()
        assert check.cells == 4 and not check.live_leases

    def test_pool_resumes_a_partial_store(self, tmp_path, reference):
        spec = make_spec()
        drain(spec, ResultStore(tmp_path / "s"), owner="w0", max_cells=2)
        store = ResultStore(tmp_path / "s")
        report = Campaign(spec, store, workers=2).run()
        assert len(report.cached) == 2 and len(report.ran) == 2
        for cell in spec.expand():
            assert store.get(cell)["result"] == reference.get(cell)["result"]

    def test_workers_require_disk_store(self):
        with pytest.raises(ValueError, match="disk-backed"):
            Campaign(make_spec(), ResultStore(), workers=2)

    def test_workers_reject_per_process_hooks(self, tmp_path):
        campaign = Campaign(
            make_spec(), ResultStore(tmp_path / "s"), workers=2
        )
        with pytest.raises(ValueError, match="max_cells"):
            campaign.run(max_cells=1)


class TestFsck:
    def test_clean_store(self, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path / "s")
        drain(spec, store, owner="w1")
        report = fsck(store)
        assert report.clean
        assert report.records == 4 and report.cells == 4
        assert report.duplicates == {}

    def test_torn_line_is_flagged(self, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path / "s")
        drain(spec, store, owner="w1")
        shard = store.root / store.shard_keys()[0]
        with shard.open("a", encoding="utf-8") as fh:
            fh.write('{"hash": "abc", "key": {torn')
        report = fsck(store)
        assert not report.clean
        assert report.corrupt_lines == {shard.stem: 1}

    def test_tampered_key_fails_the_rehash(self, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path / "s")
        drain(spec, store, owner="w1")
        victim = spec.expand()[0]
        shard = store.root / "shards" / f"{victim.hash[:2]}.jsonl"
        lines = shard.read_text(encoding="utf-8").splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record["hash"] == victim.hash:
                record["key"]["trials"] = 999  # silent result inflation
            doctored.append(json.dumps(record, sort_keys=True))
        shard.write_text("\n".join(doctored) + "\n", encoding="utf-8")
        report = fsck(store)
        assert report.hash_mismatches == [victim.hash]
        assert not report.clean

    def test_misplaced_record_is_flagged(self, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path / "s")
        drain(spec, store, owner="w1")
        cell = spec.expand()[0]
        record_line = json.dumps(store.get(cell), sort_keys=True)
        wrong_prefix = "00" if cell.hash[:2] != "00" else "ff"
        orphan_shard = store.root / "shards" / f"{wrong_prefix}.jsonl"
        with orphan_shard.open("a", encoding="utf-8") as fh:
            fh.write(record_line + "\n")
        report = fsck(store)
        assert (wrong_prefix, cell.hash) in report.misplaced
        assert not report.clean

    def test_duplicates_are_hygiene_not_errors(self, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path / "s")
        drain(spec, store, owner="w1")
        cell = spec.expand()[0]
        # a second (identical) commit — the benign lease-expiry overlap
        shard = store.root / "shards" / f"{cell.hash[:2]}.jsonl"
        first = [
            line
            for line in shard.read_text(encoding="utf-8").splitlines()
            if json.loads(line)["hash"] == cell.hash
        ][0]
        with shard.open("a", encoding="utf-8") as fh:
            fh.write(first + "\n")
        report = fsck(store)
        assert report.duplicates == {cell.hash: 2}
        assert report.clean  # duplicates are legal (last-write-wins)

    def test_stale_lease_is_flagged_live_is_not(self, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path / "s")
        drain(spec, store, owner="w1")
        ledger = ClaimLedger(store.root)
        t0 = time.time()
        ledger.try_claim(["dead-hash"], owner="crashed", ttl=-1.0, now=t0)
        report = fsck(store, now=t0)
        assert [ls.owner for ls in report.stale_leases] == ["crashed"]
        assert not report.clean
        # a live lease (worker still running) keeps the store clean
        compact(store, force=True)
        ledger.try_claim(["busy-hash"], owner="active", ttl=3600.0)
        report = fsck(store)
        assert [ls.owner for ls in report.live_leases] == ["active"]
        assert report.clean

    def test_memory_store_is_clean(self, drained_memory_store):
        _, store, _ = drained_memory_store
        report = fsck(store)
        assert report.clean, report.summary()
        assert report.records == 4 and report.cells == 4


class TestCompact:
    def test_drops_duplicates_keeps_last_write_and_live_cells(self, tmp_path):
        spec = make_spec()
        cells = spec.expand()
        store = ResultStore(tmp_path / "s")
        drain(spec, store, owner="w1")
        # hand-append a superseding record for cell 0 with a sentinel mean
        doctored = dict(store.get(cells[0]))
        doctored["result"] = dict(doctored["result"], mean=1234.5)
        shard = store.root / "shards" / f"{cells[0].hash[:2]}.jsonl"
        with shard.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(doctored, sort_keys=True) + "\n")
        # and a torn line
        with shard.open("a", encoding="utf-8") as fh:
            fh.write("{torn")

        report = compact(store)
        assert report.duplicates_dropped == 1
        assert report.corrupt_dropped == 1
        assert report.records_out == 4

        fresh = ResultStore(tmp_path / "s")
        assert fresh.get(cells[0])["result"]["mean"] == 1234.5  # last write won
        for cell in cells[1:]:
            assert fresh.get(cell) is not None  # live cells survived
        assert fsck(fresh).clean
        assert fsck(fresh).duplicates == {}

    def test_relocates_misplaced_records(self, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path / "s")
        drain(spec, store, owner="w1")
        cell = spec.expand()[0]
        record_line = json.dumps(store.get(cell), sort_keys=True)
        wrong_prefix = "00" if cell.hash[:2] != "00" else "ff"
        (store.root / "shards" / f"{wrong_prefix}.jsonl").write_text(
            record_line + "\n", encoding="utf-8"
        )
        report = compact(store)
        # the emptied shard stays as a zero-byte file (unlinking would
        # race a blocked appender onto an orphaned inode)
        orphan = store.root / "shards" / f"{wrong_prefix}.jsonl"
        assert orphan.read_text(encoding="utf-8") == ""
        fresh = ResultStore(tmp_path / "s")
        assert fsck(fresh).clean
        assert fresh.get(cell) is not None

    def test_prunes_the_ledger(self, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path / "s")
        drain(spec, store, owner="w1")  # 4 claims + 4 dones
        report = compact(store)
        assert report.claims_dropped == 8
        assert ClaimLedger(store.root).records() == []

    def test_refuses_live_leases_without_force(self, tmp_path):
        spec = make_spec()
        store = ResultStore(tmp_path / "s")
        drain(spec, store, owner="w1")
        ClaimLedger(store.root).try_claim(["h"], owner="busy", ttl=3600.0)
        with pytest.raises(RuntimeError, match="live lease"):
            compact(store)
        report = compact(store, force=True)
        assert report.records_out == 4
        # the live lease survives the forced compaction
        assert set(live_leases(ClaimLedger(store.root))) == {"h"}

    def test_memory_store_keeps_every_record(self, drained_memory_store):
        spec, store, _ = drained_memory_store
        before = {cell.hash: store.get(cell) for cell in spec.expand()}
        report = compact(store)
        assert report.records_in == report.records_out == 4
        assert report.claims_dropped == 8
        assert {h: store.get(h) for h in before} == before

    def test_concurrent_lease_less_writer_loses_nothing(self, tmp_path):
        # a plain Campaign.run() holds no lease; its locked appends must
        # serialize with the in-place shard rewrites, never vanish
        import threading

        spec = make_spec()
        store_path = tmp_path / "s"
        drain(make_spec(graph_grid={"n": [6], "d": [2]}), ResultStore(store_path))

        def writer():
            Campaign(spec, ResultStore(store_path)).run()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            while thread.is_alive():
                compact(ResultStore(store_path), force=True)
        finally:
            thread.join()
        compact(ResultStore(store_path), force=True)
        fresh = ResultStore(store_path)
        for cell in spec.expand():
            assert fresh.get(cell) is not None, "compaction lost a committed cell"
        assert fsck(fresh).clean
