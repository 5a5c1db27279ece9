"""Backend conformance: every ``StorageBackend`` honours the same seam.

Three pillars:

* a parametric contract suite — ``LocalBackend`` (flock over a
  directory) and ``InMemoryCASBackend`` (conditional-put fake) must be
  observationally identical through the four protocol operations,
  including the zero-byte-blob-is-absent rule compaction relies on;
* the lost-CAS-race path: a claim loser must re-read (seeing the
  winner's line) and retry without ever double-appending;
* the dispatch acceptance bar, lifted to the CAS seam: N workers
  draining one shared ``InMemoryCASBackend`` store value-for-value
  identical to a single local ``Campaign.run()``, and ``fsck`` clean
  on both backends afterward.
"""

import json
import threading

import pytest

from repro.store import (
    BackendError,
    Campaign,
    ClaimLedger,
    InMemoryCASBackend,
    LocalBackend,
    ResultStore,
    SeedPolicy,
    StorageBackend,
    SweepSpec,
    drain,
    fsck,
)
from repro.store.dispatch import CLAIMS_FILE

BACKENDS = ["local", "memory"]


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    if request.param == "local":
        return LocalBackend(tmp_path / "store")
    return InMemoryCASBackend()


class TestProtocolConformance:
    """The four operations, identical over both backends."""

    def test_satisfies_the_protocol(self, backend):
        assert isinstance(backend, StorageBackend)

    def test_absent_blob_reads_none(self, backend):
        assert backend.read_blob("claims.jsonl") is None

    def test_append_then_read_round_trips(self, backend):
        backend.append_line("claims.jsonl", '{"op": "claim"}')
        backend.append_line("claims.jsonl", '{"op": "done"}')
        data, etag = backend.read_blob("claims.jsonl")
        assert data == b'{"op": "claim"}\n{"op": "done"}\n'
        assert etag

    def test_etag_moves_when_content_changes(self, backend):
        backend.append_line("a.jsonl", "one")
        _, before = backend.read_blob("a.jsonl")
        backend.append_line("a.jsonl", "two")
        data, after = backend.read_blob("a.jsonl")
        assert before != after
        assert data == b"one\ntwo\n"

    def test_list_prefix_sorted_and_filtered(self, backend):
        backend.append_line("shards/ff.jsonl", "x")
        backend.append_line("shards/00.jsonl", "y")
        backend.append_line("claims.jsonl", "z")
        assert backend.list_prefix("shards/") == [
            "shards/00.jsonl",
            "shards/ff.jsonl",
        ]
        assert "claims.jsonl" in backend.list_prefix("")

    def test_cas_create_only_if_absent(self, backend):
        etag = backend.compare_and_swap("meta.json", b'{"v": 1}', None)
        assert etag is not None
        # a second create-only put loses: the blob already exists
        assert backend.compare_and_swap("meta.json", b'{"v": 2}', None) is None
        data, _ = backend.read_blob("meta.json")
        assert data == b'{"v": 1}'

    def test_cas_with_matching_etag_replaces(self, backend):
        first = backend.compare_and_swap("meta.json", b"old", None)
        second = backend.compare_and_swap("meta.json", b"new", first)
        assert second is not None and second != first
        data, etag = backend.read_blob("meta.json")
        assert data == b"new" and etag == second

    def test_cas_with_stale_etag_fails(self, backend):
        stale = backend.compare_and_swap("meta.json", b"old", None)
        backend.compare_and_swap("meta.json", b"mid", stale)
        assert backend.compare_and_swap("meta.json", b"new", stale) is None
        data, _ = backend.read_blob("meta.json")
        assert data == b"mid"

    def test_zero_byte_blob_is_absent(self, backend):
        # compaction may truncate a shard to nothing; both backends
        # must then report it absent, hide it from listings, and let a
        # create-only CAS through (the post-compaction append path)
        etag = backend.compare_and_swap("shards/00.jsonl", b"row\n", None)
        assert backend.compare_and_swap("shards/00.jsonl", b"", etag) is not None
        assert backend.read_blob("shards/00.jsonl") is None
        assert backend.list_prefix("shards/") == []
        assert backend.compare_and_swap("shards/00.jsonl", b"back\n", None)
        data, _ = backend.read_blob("shards/00.jsonl")
        assert data == b"back\n"

    def test_append_after_a_torn_tail_starts_a_new_line(self, backend):
        backend.compare_and_swap("shards/00.jsonl", b'row\n{"hash": "ab', None)
        backend.append_line("shards/00.jsonl", "next")
        data, _ = backend.read_blob("shards/00.jsonl")
        assert data == b'row\n{"hash": "ab\nnext\n'

    def test_append_after_truncation(self, backend):
        etag = backend.compare_and_swap("claims.jsonl", b"old\n", None)
        backend.compare_and_swap("claims.jsonl", b"", etag)
        backend.append_line("claims.jsonl", "fresh")
        data, _ = backend.read_blob("claims.jsonl")
        assert data == b"fresh\n"


class TestLocalKeyContainment:
    """``LocalBackend`` refuses every key whose real path leaves the root."""

    OPERATIONS = {
        "read_blob": lambda b, key: b.read_blob(key),
        "append_line": lambda b, key: b.append_line(key, "x"),
        "compare_and_swap": lambda b, key: b.compare_and_swap(key, b"x", None),
    }

    @pytest.fixture()
    def layout(self, tmp_path):
        root = tmp_path / "store"
        outside = tmp_path / "outside"
        (root / "shards").mkdir(parents=True)
        outside.mkdir()
        (root / "shards" / "link").symlink_to(outside, target_is_directory=True)
        return LocalBackend(root), root, outside

    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    @pytest.mark.parametrize(
        "kind", ["parent", "absolute", "symlink", "file_symlink"]
    )
    def test_escaping_keys_are_refused(self, layout, operation, kind):
        backend, root, outside = layout
        secret = outside / "secret.jsonl"
        secret.write_bytes(b"secret\n")
        (root / "shards" / "ab.jsonl").symlink_to(secret)
        key = {
            "parent": "../x",
            "absolute": str(outside / "x"),
            "symlink": "shards/link/x.jsonl",
            "file_symlink": "shards/ab.jsonl",
        }[kind]
        with pytest.raises(BackendError, match="escapes the store root"):
            self.OPERATIONS[operation](backend, key)
        assert not (outside / "x").exists()
        assert not (outside / "x.jsonl").exists()
        assert secret.read_bytes() == b"secret\n"

    def test_symlink_within_the_root_still_works(self, layout):
        backend, root, _ = layout
        (root / "real.jsonl").write_bytes(b"row\n")
        (root / "shards" / "ab.jsonl").symlink_to(root / "real.jsonl")
        assert backend.read_blob("shards/ab.jsonl")[0] == b"row\n"

    def test_nested_key_still_works(self, layout):
        backend, root, _ = layout
        backend.append_line("shards/ab.jsonl", "row")
        data, etag = backend.read_blob("shards/ab.jsonl")
        assert data == b"row\n"
        assert backend.compare_and_swap("shards/ab.jsonl", b"new\n", etag)
        assert (root / "shards" / "ab.jsonl").read_bytes() == b"new\n"


def _rglob_listing(root, prefix):
    """The reference ``LocalBackend.list_prefix``: a walk of the whole store."""
    keys = []
    if not root.is_dir():
        return keys
    for path in root.rglob("*"):
        if not path.is_file():
            continue
        key = path.relative_to(root).as_posix()
        if key.startswith(prefix) and path.stat().st_size > 0:
            keys.append(key)
    return sorted(keys)


class TestLocalListPrefix:
    """``list_prefix`` scans one directory yet lists what a full walk does."""

    @pytest.fixture()
    def tree(self, tmp_path):
        root = tmp_path / "store"
        outside = tmp_path / "outside"
        (outside / "dir").mkdir(parents=True)
        (outside / "file.jsonl").write_text("far\n")
        (outside / "dir" / "inner.jsonl").write_text("far\n")
        files = {
            "meta.json": "{}\n",
            "claims.jsonl": "c\n",
            "claims.jsonl.bak": "",
            "claimsX/nested.jsonl": "n\n",
            "events.jsonl": "e\n",
            "shards/ab.jsonl": "r\n",
            "shards/a0.jsonl": "",
            "shards/b1.jsonl": "r\n",
            "shards/a/deep/x.jsonl": "r\n",
            "shards/a/empty.jsonl": "",
            "shards/b/a.jsonl": "r\n",
        }
        for key, text in files.items():
            (root / key).parent.mkdir(parents=True, exist_ok=True)
            (root / key).write_text(text)
        (root / "shards" / "empty_dir").mkdir()
        (root / "shards" / "ac.jsonl").symlink_to(outside / "file.jsonl")
        (root / "shards" / "a_dir").symlink_to(
            outside / "dir", target_is_directory=True
        )
        (root / "shards" / "ad.jsonl").symlink_to(outside / "missing")
        return LocalBackend(root), root.resolve()

    @pytest.mark.parametrize(
        "prefix",
        ["", "shards/", "shards/a", "claims", "shards/a/", "shards/a_dir/",
         "shards/ab.jsonl/", "missing/", "./shards/", "shards//", "../"],
    )
    def test_matches_a_full_walk(self, tree, prefix):
        backend, root = tree
        assert backend.list_prefix(prefix) == _rglob_listing(root, prefix)

    def test_reference_sees_the_interesting_entries(self, tree):
        _, root = tree
        keys = _rglob_listing(root, "")
        assert "shards/ac.jsonl" in keys  # a symlinked file is listed
        assert "shards/a/deep/x.jsonl" in keys
        assert not any(k.startswith("shards/a_dir") for k in keys)
        assert "shards/a0.jsonl" not in keys and "shards/ad.jsonl" not in keys

    def test_fresh_store_lists_nothing(self, tmp_path):
        assert LocalBackend(tmp_path / "absent").list_prefix("") == []


class TestLocalRootAfterChdir:
    """A relative root is resolved once: a later ``chdir`` must not
    redirect the I/O to a different directory than containment checked."""

    def test_io_stays_in_the_original_store(self, tmp_path, monkeypatch):
        (tmp_path / "home").mkdir()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(tmp_path / "home")
        backend = LocalBackend("store")
        monkeypatch.chdir(elsewhere)

        backend.append_line("shards/ab.jsonl", "row")
        data, etag = backend.read_blob("shards/ab.jsonl")
        assert data == b"row\n"
        assert backend.compare_and_swap("shards/ab.jsonl", b"new\n", etag)
        assert backend.list_prefix("shards/") == ["shards/ab.jsonl"]

        store = tmp_path / "home" / "store"
        assert (store / "shards" / "ab.jsonl").read_bytes() == b"new\n"
        assert not (elsewhere / "store").exists()


class RacingBackend:
    """Proxy that injects a rival append just before the first CAS on
    the claim ledger — a deterministic re-enactment of two workers
    racing ``try_claim``."""

    def __init__(self, inner, rival_line: str) -> None:
        self.inner = inner
        self.rival_line = rival_line
        self.cas_calls = 0

    def read_blob(self, key):
        return self.inner.read_blob(key)

    def append_line(self, key, line):
        self.inner.append_line(key, line)

    def list_prefix(self, prefix):
        return self.inner.list_prefix(prefix)

    def compare_and_swap(self, key, data, etag):
        self.cas_calls += 1
        if key == CLAIMS_FILE and self.cas_calls == 1:
            # the rival's claim lands first: our ETag is now stale
            self.inner.append_line(key, self.rival_line)
        return self.inner.compare_and_swap(key, data, etag)


class TestLostCASRace:
    def test_loser_rereads_and_retries_without_double_append(self, backend):
        rival = json.dumps(
            {
                "op": "claim",
                "hash": "h1",
                "owner": "rival",
                "expires_unix": 9e12,
                "ts": 0.0,
            },
            sort_keys=True,
        )
        racing = RacingBackend(backend, rival)
        ledger = ClaimLedger(racing)
        won = ledger.try_claim(["h1", "h2"], owner="loser", limit=None)
        # first swap failed against the rival's append; the retry saw
        # the rival holding h1 and claimed only h2
        assert racing.cas_calls == 2
        assert won == ["h2"]
        leases = ledger.active(now=1.0)
        assert leases["h1"].owner == "rival"
        assert leases["h2"].owner == "loser"
        # exactly one claim line per hash: nothing double-appended
        claims = [r["hash"] for r in ledger.records() if r["op"] == "claim"]
        assert sorted(claims) == ["h1", "h2"]


def _spec(**over):
    base = dict(
        name="backend-drain",
        process="cobra",
        graph="grid",
        graph_grid={"n": [6, 8], "d": [2]},
        params_grid={"k": [1, 2]},
        trials=3,
        seed=SeedPolicy(root=5),
    )
    base.update(over)
    return SweepSpec(**base)


class CountingBackend:
    """Proxy that counts ``read_blob`` calls per key."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.reads: dict[str, int] = {}

    def read_blob(self, key):
        self.reads[key] = self.reads.get(key, 0) + 1
        return self.inner.read_blob(key)

    def append_line(self, key, line):
        self.inner.append_line(key, line)

    def list_prefix(self, prefix):
        return self.inner.list_prefix(prefix)

    def compare_and_swap(self, key, data, etag):
        return self.inner.compare_and_swap(key, data, etag)


class TestDrainReadCount:
    def test_single_worker_drain_reads_linearly(self, tmp_path):
        """One scan, one ledger read per claim, one shard read per
        post-claim check: at most 3 reads per cell.  Re-scanning every
        pending cell per claim round made this quadratic."""
        spec = _spec(
            graph="cycle_graph", graph_grid={"n": list(range(5, 25))},
            params_grid={"k": [2, 3]}, trials=2,
        )
        cells = spec.expand()
        assert len(cells) == 40
        counting = CountingBackend(LocalBackend(tmp_path / "s"))
        report = drain(spec, ResultStore(backend=counting), owner="w1")
        assert len(report.ran) == len(cells) and report.complete
        assert sum(counting.reads.values()) <= 3 * len(cells), counting.reads
        assert counting.reads[CLAIMS_FILE] == len(cells)
        assert counting.reads["meta.json"] <= 2
        # one claim and one done line per cell, as before
        ops = [r["op"] for r in ClaimLedger(tmp_path / "s").records()]
        assert ops == ["claim", "done"] * len(cells)


class TestDispatchOverCAS:
    """The acceptance bar every storage layer met before this one:
    concurrent drain == single-worker local run, value for value."""

    def test_n_worker_cas_drain_matches_local_campaign(self):
        spec = _spec()
        reference = ResultStore()
        Campaign(spec, reference).run()

        shared = ResultStore(backend=InMemoryCASBackend())
        reports = {}

        def worker(name: str) -> None:
            # each worker gets its own store handle onto one backend,
            # like separate processes sharing one object store
            handle = ResultStore(backend=shared.backend)
            reports[name] = drain(spec, handle, owner=name)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        ran = [h for r in reports.values() for h in r.ran]
        assert len(ran) == 4 and len(set(ran)) == 4, (
            "claim exclusivity broke: a cell ran twice or not at all"
        )
        shared.refresh()
        for cell in spec.expand():
            assert (
                shared.get(cell)["result"] == reference.get(cell)["result"]
            ), "a CAS-drained cell diverged from Campaign.run()"

    def test_two_waiting_workers_split_the_cells(self):
        spec = _spec(graph_grid={"n": [4, 5, 6, 7], "d": [2]})
        cells = {c.hash for c in spec.expand()}
        reference = ResultStore()
        Campaign(spec, reference).run()

        backend = InMemoryCASBackend()
        reports = {}

        def worker(name: str) -> None:
            handle = ResultStore(backend=backend)
            reports[name] = drain(spec, handle, owner=name, wait=True,
                                  poll_s=0.001)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        a, b = reports["w0"], reports["w1"]
        assert not set(a.ran) & set(b.ran), "a cell ran on both workers"
        assert set(a.ran) | set(b.ran) == cells
        for report in (a, b):
            assert set(report.ran) | set(report.cached) == cells
            assert not set(report.ran) & set(report.cached)
            assert report.complete
        store = ResultStore(backend=backend)
        for cell in spec.expand():
            assert store.get(cell)["result"] == reference.get(cell)["result"]

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_fsck_clean_on_both_backends(self, kind, tmp_path):
        spec = _spec()
        backend = (
            LocalBackend(tmp_path / "s") if kind == "local"
            else InMemoryCASBackend()
        )
        store = ResultStore(backend=backend)
        report = drain(spec, store, owner="w1")
        assert report.complete
        check = fsck(store)
        assert check.clean, check.summary()
        assert check.cells == 4 and not check.live_leases
