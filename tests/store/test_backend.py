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

import builtins
import contextlib
import hashlib
import json
import os
import sys
import threading

import pytest

from repro.obs.trace import Tracer, activate

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
from repro.store import backend as backend_module
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


class TestResolveBackend:
    def test_resolves_paths_and_backends_and_refuses_none(self, tmp_path):
        assert isinstance(backend_module.resolve_backend(tmp_path), LocalBackend)
        memory = InMemoryCASBackend()
        assert backend_module.resolve_backend(memory) is memory
        with pytest.raises(TypeError, match="got None"):
            ClaimLedger(None)


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


class TestLocalRevalidation:
    """A settled blob is served again after one ``lstat``; any change to
    the file — or to what the key names — reads it again."""

    KEY = "shards/ab.jsonl"

    @pytest.fixture()
    def store(self, tmp_path):
        backend = LocalBackend(tmp_path / "store")
        backend.append_line(self.KEY, "row")
        return backend, tmp_path / "store" / self.KEY

    @pytest.fixture()
    def opens(self, monkeypatch):
        """Paths passed to ``open`` while the test runs."""
        seen = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            seen.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        return seen

    @staticmethod
    def _settled_clock(path, after=60.0):
        """A tracer whose "now" lies *after* seconds past the file's
        newest timestamp."""
        st = os.stat(path)
        newest = max(st.st_mtime_ns, st.st_ctime_ns) / 1e9
        return activate(Tracer(walltime=lambda: newest + after, worker="t"))

    def test_second_read_opens_no_file(self, store, opens):
        backend, path = store
        with self._settled_clock(path):
            first = backend.read_blob(self.KEY)
            assert len(opens) == 1
            second = backend.read_blob(self.KEY)
        assert len(opens) == 1
        assert second == first == (b"row\n", hashlib.sha256(b"row\n").hexdigest())

    def _append(self, path):
        with open(path, "ab") as handle:
            handle.write(b"more\n")
        return b"row\nmore\n"

    def _truncate(self, path):
        os.truncate(path, 0)

    def _delete(self, path):
        os.unlink(path)

    def _replace(self, path):
        fresh = path.with_name("fresh.tmp")
        fresh.write_bytes(b"new\n")  # same size, new inode
        os.replace(fresh, path)
        return b"new\n"

    def _rewrite(self, path):
        st = os.stat(path)
        with open(path, "r+b") as handle:
            handle.write(b"wow\n")
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 5_000_000_000))
        return b"wow\n"

    @pytest.mark.parametrize(
        "change", ["_append", "_truncate", "_delete", "_replace", "_rewrite"]
    )
    def test_the_next_read_sees_a_change(self, store, opens, change):
        backend, path = store
        with self._settled_clock(path):
            backend.read_blob(self.KEY)
            backend.read_blob(self.KEY)
            assert len(opens) == 1  # remembered
            want = getattr(self, change)(path)
            got = backend.read_blob(self.KEY)
        if want is None:
            assert got is None
        else:
            assert got == (want, hashlib.sha256(want).hexdigest())

    @pytest.mark.parametrize(("after", "reads"), [(1.9, 3), (2.1, 1)])
    def test_a_blob_inside_the_settle_window_is_read_every_time(
        self, store, opens, after, reads
    ):
        backend, path = store
        with self._settled_clock(path, after=after):
            for _ in range(3):
                assert backend.read_blob(self.KEY)[0] == b"row\n"
        assert len(opens) == reads

    def test_a_symlink_out_of_the_root_is_still_refused(self, store, tmp_path):
        backend, path = store
        secret = tmp_path / "secret.jsonl"
        secret.write_bytes(b"row\n")
        with self._settled_clock(path):
            assert backend.read_blob(self.KEY)[0] == b"row\n"
            path.unlink()
            path.symlink_to(secret)
            with pytest.raises(BackendError, match="escapes the store root"):
                backend.read_blob(self.KEY)

    def test_own_writes_are_seen(self, store):
        backend, path = store
        with self._settled_clock(path):
            _, etag = backend.read_blob(self.KEY)
            backend.append_line(self.KEY, "two")
            assert backend.read_blob(self.KEY)[0] == b"row\ntwo\n"
            _, etag = backend.read_blob(self.KEY)
            assert backend.compare_and_swap(self.KEY, b"swapped\n", etag)
            assert backend.read_blob(self.KEY)[0] == b"swapped\n"

    def test_concurrent_readers_see_whole_current_blobs(self, store):
        backend, path = store
        writer = LocalBackend(path.parent.parent)  # another handle
        lines = 200
        written = [1]  # lines on disk once the last append returned
        errors = []

        def read_loop():
            while written[0] < lines:
                floor = written[0]
                try:
                    data, etag = backend.read_blob(self.KEY)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append((floor, exc))
                    return
                got = data.decode().splitlines()
                if not (
                    data.endswith(b"\n")
                    and etag == hashlib.sha256(data).hexdigest()
                    and got == ["row"] + [str(i) for i in range(1, len(got))]
                    and len(got) >= floor
                ):
                    errors.append((floor, data))
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with activate(Tracer(walltime=lambda: 1e12, worker="t")):
                readers = [threading.Thread(target=read_loop) for _ in range(4)]
                for thread in readers:
                    thread.start()
                for i in range(1, lines):
                    writer.append_line(self.KEY, str(i))
                    written[0] = i + 1
                for thread in readers:
                    thread.join(timeout=60)
                final = backend.read_blob(self.KEY)[0].decode().splitlines()
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        assert final == ["row"] + [str(i) for i in range(1, lines)]


class _SpyHandle:
    """The locked file handle, recording what ``compare_and_swap`` does
    with it."""

    def __init__(self, handle, log) -> None:
        self._handle = handle
        self._log = log

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def truncate(self, size=None):
        self._log.append(("truncate", size))
        return self._handle.truncate(size)

    def write(self, data):
        self._log.append(("write", bytes(data)))
        return self._handle.write(data)


class TestLocalCompareAndSwap:
    """``LocalBackend`` appends a payload that extends the file and
    rewrites every other one; the bytes, the ETag and the inode come out
    the same either way."""

    @pytest.fixture()
    def spied(self, tmp_path, monkeypatch):
        log = []
        real = backend_module.locked

        @contextlib.contextmanager
        def spying(path):
            with real(path) as handle:
                yield _SpyHandle(handle, log)

        monkeypatch.setattr(backend_module, "locked", spying)
        return LocalBackend(tmp_path / "store"), tmp_path / "store", log

    def test_extending_swap_appends_only_the_tail(self, spied, tmp_path):
        backend, root, log = spied
        base = b'{"op": "claim", "hash": "a"}\n'
        etag = backend.compare_and_swap(CLAIMS_FILE, base, None)
        inode = (root / CLAIMS_FILE).stat().st_ino
        log.clear()
        grown = base + b'{"op": "claim", "hash": "b"}\n'
        new_etag = backend.compare_and_swap(CLAIMS_FILE, grown, etag)
        assert log == [("write", grown[len(base):])]
        assert (root / CLAIMS_FILE).read_bytes() == grown
        assert (root / CLAIMS_FILE).stat().st_ino == inode
        # the ETag a full write of the same bytes gets
        rewritten = LocalBackend(tmp_path / "other")
        assert new_etag == rewritten.compare_and_swap(CLAIMS_FILE, grown, None)
        assert backend.read_blob(CLAIMS_FILE) == (grown, new_etag)

    def test_unchanged_payload_appends_nothing(self, spied):
        backend, root, log = spied
        etag = backend.compare_and_swap(CLAIMS_FILE, b"a\n", None)
        log.clear()
        assert backend.compare_and_swap(CLAIMS_FILE, b"a\n", etag) == etag
        assert log == [("write", b"")]
        assert (root / CLAIMS_FILE).read_bytes() == b"a\n"

    @pytest.mark.parametrize(
        "data",
        [b"b\nc\n", b"a\n", b"c\nb\na\n", b"a\nb\nx\n", b""],
        ids=["prune", "shrink", "compact", "diverge", "truncate"],
    )
    def test_non_extending_swap_rewrites(self, spied, data):
        backend, root, log = spied
        etag = backend.compare_and_swap(CLAIMS_FILE, b"a\nb\nc\n", None)
        inode = (root / CLAIMS_FILE).stat().st_ino
        log.clear()
        new_etag = backend.compare_and_swap(CLAIMS_FILE, data, etag)
        assert log == [("truncate", 0), ("write", data)]
        assert (root / CLAIMS_FILE).read_bytes() == data
        assert (root / CLAIMS_FILE).stat().st_ino == inode
        if data:
            assert backend.read_blob(CLAIMS_FILE) == (data, new_etag)
        else:
            assert new_etag is not None
            assert backend.read_blob(CLAIMS_FILE) is None

    def test_claim_after_a_torn_tail_appends_exactly(self, spied):
        backend, root, log = spied
        torn = b'{"op": "done", "hash": "x", "owner": "w"}\n{"op": "claim", "hash": "h'
        backend.compare_and_swap(CLAIMS_FILE, torn, None)
        log.clear()
        ledger = ClaimLedger(backend)
        assert ledger.try_claim(["h1"], owner="w1", now=0.0) == ["h1"]
        (claim,) = [r for r in ledger.records() if r["op"] == "claim"]
        line = json.dumps(claim, sort_keys=True).encode() + b"\n"
        assert log == [("write", b"\n" + line)]
        assert (root / CLAIMS_FILE).read_bytes() == torn + b"\n" + line

    @pytest.mark.parametrize(
        "current", [b"a\r\n", b'{"op": "claim", "owner": "\xe2\x82'],
        ids=["crlf", "torn_utf8"],
    )
    def test_swaps_against_the_raw_bytes(self, spied, current):
        """The ETag a swap checks is the one ``read_blob`` returned, even
        for bytes a text decode would alter or reject."""
        backend, root, _ = spied
        backend.compare_and_swap(CLAIMS_FILE, current, None)
        data, etag = backend.read_blob(CLAIMS_FILE)
        assert data == current
        assert backend.compare_and_swap(CLAIMS_FILE, data + b"\nb\n", etag)
        assert backend.compare_and_swap(CLAIMS_FILE, b"c\r\n", etag) is None
        assert (root / CLAIMS_FILE).read_bytes() == current + b"\nb\n"

    def test_stale_etag_leaves_the_file_untouched(self, spied):
        backend, root, log = spied
        stale = backend.compare_and_swap(CLAIMS_FILE, b"a\n", None)
        backend.append_line(CLAIMS_FILE, "b")
        log.clear()
        assert backend.compare_and_swap(CLAIMS_FILE, b"a\nc\n", stale) is None
        assert backend.compare_and_swap(CLAIMS_FILE, b"", stale) is None
        assert log == []
        assert (root / CLAIMS_FILE).read_bytes() == b"a\nb\n"

    def test_concurrent_appends_and_extending_swaps_keep_every_line(
        self, tmp_path
    ):
        backend = LocalBackend(tmp_path / "store")
        rounds = 150

        def appender() -> None:
            for i in range(rounds):
                backend.append_line(CLAIMS_FILE, f"append-{i}")

        thread = threading.Thread(target=appender)
        thread.start()
        for i in range(rounds):
            while True:
                blob = backend.read_blob(CLAIMS_FILE)
                data, etag = blob if blob is not None else (b"", None)
                line = f"swap-{i}\n".encode()
                if backend.compare_and_swap(CLAIMS_FILE, data + line, etag):
                    break
        thread.join()
        lines = backend.read_blob(CLAIMS_FILE)[0].decode().splitlines()
        expected = [f"append-{i}" for i in range(rounds)] + [
            f"swap-{i}" for i in range(rounds)
        ]
        assert sorted(lines) == sorted(expected)
        # each writer's own lines stay in its order
        assert [x for x in lines if x.startswith("swap-")] == expected[rounds:]
        assert [x for x in lines if x.startswith("append-")] == expected[:rounds]

    @pytest.mark.parametrize("operation", ["append_line", "compare_and_swap"])
    def test_missing_nested_directories_are_created(self, tmp_path, operation):
        backend = LocalBackend(tmp_path / "store")
        key = "shards/deep/er/ab.jsonl"
        if operation == "append_line":
            backend.append_line(key, "row")
        else:
            assert backend.compare_and_swap(key, b"row\n", None)
        assert (tmp_path / "store" / key).read_bytes() == b"row\n"


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
        leases = ledger.leases()
        assert not any(lease.expired(1.0) for lease in leases.values())
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
