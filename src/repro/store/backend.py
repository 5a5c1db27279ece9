"""The store's I/O seam: the :class:`StorageBackend` protocol.

Everything the sweep store persists — shards, the claim ledger, the
telemetry log, ``meta.json`` — is a named **blob** of JSONL lines
addressed by a relative key (``"shards/3f.jsonl"``,
``"claims.jsonl"``, …).  This module names the four operations the
whole store layer reduces to, so that the lease/claim dispatcher
(:mod:`repro.store.dispatch`) works identically over a shared
filesystem and over an object store:

* ``read_blob(key)`` — whole-blob read, returning the bytes *and* a
  strong ETag (an opaque version token);
* ``append_line(key, line)`` — merge-safe whole-line append: any
  number of concurrent writers interleave complete records, never
  bytes;
* ``list_prefix(prefix)`` — enumerate existing keys (the raw material
  of ``fsck``/``compact``);
* ``compare_and_swap(key, data, etag)`` — replace the blob only if it
  still carries *etag* (``None`` = create only if absent).  The loser
  of a race gets ``None`` back, re-reads, and retries — the object
  store analogue of holding a ``flock`` across read-modify-append.

:class:`LocalBackend` is the flock path of PRs 4–5 refactored behind
the seam — byte-for-byte the same on-disk layout, same advisory
``flock`` discipline (:mod:`repro.store.locking`).
:class:`CASBackend` implements ``append_line`` as a conditional-put
retry loop over two primitives (``_get``/``_put``), and
:class:`InMemoryCASBackend` and :class:`HTTPCASBackend` supply those
primitives for tests and for the ``sweep serve`` blob API.  See
``docs/service.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import threading
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path
from typing import Protocol, runtime_checkable

from ..obs.trace import current_tracer
from .locking import append_line as _locked_append
from .locking import locked

__all__ = [
    "BackendError",
    "StorageBackend",
    "LocalBackend",
    "CASBackend",
    "InMemoryCASBackend",
    "HTTPCASBackend",
    "resolve_backend",
]

#: retry ceiling for optimistic CAS loops — contention between N
#: workers resolves in O(N) rounds; hitting this means the remote end
#: is returning inconsistent ETags, not that the store is busy
_CAS_MAX_RETRIES = 10_000

#: key parts that make ``realpath`` move a path (``""`` also marks an
#: absolute key)
_SPECIAL_PARTS = frozenset(("", ".", ".."))

#: seconds a file's newest timestamp must lie in the past before
#: :meth:`LocalBackend.read_blob` remembers its bytes — the racy-git
#: rule: a later write then always moves the mtime or ctime, even on a
#: filesystem that keeps timestamps to 1–2 s
_SETTLE_S = 2.0


class BackendError(RuntimeError):
    """A backend operation failed for good (network, auth, protocol).

    Raised instead of the transport's native error so callers (the
    CLI's integrity handling, the dispatch loop) need one except
    clause per seam, not one per backend.
    """


@runtime_checkable
class StorageBackend(Protocol):
    """The four operations every store backend provides.

    Keys are relative POSIX-style paths (``"shards/3f.jsonl"``).
    ETags are opaque strings: equal tag ⇔ identical blob version.
    """

    def read_blob(self, key: str) -> tuple[bytes, str] | None:
        """The blob's bytes and current ETag, or ``None`` if absent."""
        ...  # pragma: no cover - protocol

    def append_line(self, key: str, line: str) -> None:
        """Append ``line + "\\n"`` merge-safely (whole-line granularity)."""
        ...  # pragma: no cover - protocol

    def list_prefix(self, prefix: str) -> list[str]:
        """Sorted existing keys starting with *prefix*."""
        ...  # pragma: no cover - protocol

    def compare_and_swap(
        self, key: str, data: bytes, etag: str | None
    ) -> str | None:
        """Replace the blob iff its version still matches *etag*.

        Parameters
        ----------
        key : str
            Blob to replace.
        data : bytes
            The full new contents.
        etag : str or None
            The version the caller read (``None`` = create only if
            the blob does not exist yet).

        Returns
        -------
        str or None
            The new ETag on success; ``None`` when the precondition
            failed — the caller lost a race and must re-read.
        """
        ...  # pragma: no cover - protocol


def _content_etag(data: bytes) -> str:
    """Content-derived strong ETag (SHA-256) for filesystem blobs."""
    return hashlib.sha256(data).hexdigest()


def _signature(st: os.stat_result) -> tuple[int, int, int, int, int]:
    """What must stay equal for a file to still hold the bytes last read."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


class LocalBackend:
    """The shared-filesystem backend: one directory, advisory ``flock``.

    Exactly the on-disk layout :class:`~repro.store.store.ResultStore`
    has always written — ``root/meta.json``, ``root/shards/*.jsonl``,
    ``root/claims.jsonl`` — with appends through the merge-safe locked
    writer and compare-and-swap holding the *same* per-file lock the
    appenders take, so a CAS and a concurrent append serialize instead
    of corrupting.  ETags are content hashes: the filesystem keeps no
    version counter, and content equality is exactly the invariant the
    CAS loops need.  A swap whose payload extends the file (a claim
    appended to the ledger) writes only the new bytes; any other payload
    rewrites the file in place.  A zero-byte file reads as absent
    (``locked`` creates empty files as a side effect of lock
    acquisition).

    A read of a file whose mtime and ctime are both at least
    :data:`_SETTLE_S` old (on ``current_tracer().walltime()``) is
    remembered with the file's ``(st_dev, st_ino, st_size,
    st_mtime_ns, st_ctime_ns)``.  The next read of that key is one
    ``lstat``: the same signature on a regular file returns the
    remembered bytes and ETag with no open, read or hash; anything
    else — a write, a replace, a symlink — reads the file again.

    The root is resolved once, at construction: every read and write
    goes to that directory even if the process changes its working
    directory afterwards.

    Parameters
    ----------
    root : str or Path
        The store directory (created on first write).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._real_root = os.path.realpath(self.root)
        self._real_prefix = os.path.join(self._real_root, "")
        self._base = Path(self._real_root)
        # key -> (signature, (bytes, etag)) of its last settled read
        self._settled: dict[str, tuple[tuple[int, ...], tuple[bytes, str]]] = {}

    def _path(self, key: str) -> Path:
        # containment on the real path, so ``..``, absolute keys and
        # symlinks that lead out of the store are all refused
        if not self._plain(key):
            real = os.path.realpath(os.path.join(self._real_root, key))
            if real != self._real_root and not real.startswith(self._real_prefix):
                raise BackendError(f"key {key!r} escapes the store root")
        return self._base / key

    def _plain(self, key: str) -> bool:
        """Whether *key* is relative, has no empty, ``.`` or ``..`` part
        and meets no symlink beneath the resolved root — so ``realpath``
        would leave it where it is, at one ``lstat`` per key part."""
        parts = key.split("/")
        if not _SPECIAL_PARTS.isdisjoint(parts):
            return False
        path = self._real_root
        for part in parts:
            path = os.path.join(path, part)
            try:
                mode = os.lstat(path).st_mode
            except OSError:  # nothing below it exists to resolve
                return True
            if stat.S_ISLNK(mode):
                return False
        return True

    def read_blob(self, key: str) -> tuple[bytes, str] | None:
        """The file's bytes + content ETag (``None`` if absent/empty).

        An unchanged settled file costs one ``lstat`` (see the class
        docstring); every other read opens, reads and hashes the file.
        """
        remembered = self._settled.get(key)
        if remembered is not None:
            try:
                st = os.lstat(os.path.join(self._real_root, key))
            except OSError:
                pass
            else:
                if stat.S_ISREG(st.st_mode) and _signature(st) == remembered[0]:
                    return remembered[1]
        path = self._path(key)
        self._settled.pop(key, None)
        try:
            with open(path, "rb") as handle:
                st = os.fstat(handle.fileno())
                data = handle.read()
        except (FileNotFoundError, IsADirectoryError):
            return None
        if not data:
            return None
        blob = data, _content_etag(data)
        newest = max(st.st_mtime_ns, st.st_ctime_ns) / 1e9
        if (
            st.st_size == len(data)
            and newest <= current_tracer().walltime() - _SETTLE_S
        ):
            self._settled[key] = _signature(st), blob
        return blob

    def append_line(self, key: str, line: str) -> None:
        """One whole-line append under the file's exclusive ``flock``."""
        _locked_append(self._path(key), line)
        self._settled.pop(key, None)

    def list_prefix(self, prefix: str) -> list[str]:
        """Sorted relative keys of non-empty files under *prefix*.

        Scans only the directory the prefix names.  Files reached
        through a symlink are listed; symlinked directories are not
        descended into.
        """
        head, _, stem = prefix.rpartition("/")
        if head and not self._plain(head):
            return []  # no listed key has an odd part or a symlinked dir
        keys = []
        rel = f"{head}/" if head else ""
        pending = [(os.path.join(self._real_root, head), rel, stem)]
        while pending:
            directory, rel, stem = pending.pop()
            try:
                entries = os.scandir(directory)
            except OSError:  # absent (a fresh store) or unreadable
                continue
            with entries:
                for entry in entries:
                    if not entry.name.startswith(stem):
                        continue
                    key = rel + entry.name
                    if entry.is_dir(follow_symlinks=False):
                        pending.append((entry.path, key + "/", ""))
                    elif entry.is_file() and entry.stat().st_size > 0:
                        keys.append(key)
        return sorted(keys)

    def compare_and_swap(
        self, key: str, data: bytes, etag: str | None
    ) -> str | None:
        """Swap the file's bytes for *data* under its writer lock iff the
        ETag matches.

        A payload that extends the current bytes — every ledger claim —
        is written as just its new tail at EOF, so a claim costs its own
        lines, not a rewrite of the whole ledger; a crash mid-write then
        leaves the old bytes plus a torn tail, which replay skips.  Any
        other payload (compaction, a pruned ledger, truncation to zero
        bytes) truncates the file and rewrites it, where a crash can
        leave it cut short.  Either way the file ends up holding exactly
        *data*, in the same inode, and the ETag returned is its content
        hash.
        """
        path = self._path(key)
        self._settled.pop(key, None)
        with locked(path) as handle:
            handle.seek(0)
            current = handle.read()
            hasher = hashlib.sha256(current)
            if (hasher.hexdigest() if current else None) != etag:
                return None
            if data.startswith(current):
                # "a+b" mode: the tail lands at EOF, right after *current*
                tail = memoryview(data)[len(current):]
                handle.write(tail)
                hasher.update(tail)
                return hasher.hexdigest()
            handle.truncate(0)
            # the write lands at EOF, which truncate just moved to 0 —
            # same inode concurrent appenders block on
            handle.write(data)
            return _content_etag(data)


class CASBackend:
    """Object-store backend over a conditional-put/ETag API.

    Subclasses provide three primitives —

    * ``_get(key) -> (bytes, etag) | None``
    * ``_put(key, data, *, if_match=None, if_none_match=False)
      -> etag | None`` (``None`` = precondition failed)
    * ``_list(prefix) -> list[str]``

    — and inherit the seam: ``compare_and_swap`` is one conditional
    put, and ``append_line`` is the optimistic read-extend-put loop
    (lose the race → re-read → retry), which is how an append-only
    JSONL ledger lives on a store with no append primitive.  No shared
    filesystem, no locks: the ETag precondition is the only
    synchronization.
    """

    def _get(self, key: str) -> tuple[bytes, str] | None:
        raise NotImplementedError

    def _put(
        self, key: str, data: bytes, *, if_match: str | None = None,
        if_none_match: bool = False,
    ) -> str | None:
        raise NotImplementedError

    def _list(self, prefix: str) -> list[str]:
        raise NotImplementedError

    # -- the StorageBackend surface ------------------------------------
    def read_blob(self, key: str) -> tuple[bytes, str] | None:
        """One conditional-get: bytes + ETag, or ``None`` if absent.

        A zero-byte blob reads as absent, matching
        :class:`LocalBackend` (compaction may leave a shard empty).
        """
        current = self._get(key)
        if current is None or not current[0]:
            return None
        return current

    def list_prefix(self, prefix: str) -> list[str]:
        """Sorted existing keys under *prefix*."""
        return sorted(self._list(prefix))

    def compare_and_swap(
        self, key: str, data: bytes, etag: str | None
    ) -> str | None:
        """One conditional put (``If-Match`` / ``If-None-Match: *``)."""
        if etag is None:
            result = self._put(key, data, if_none_match=True)
            if result is not None:
                return result
            current = self._get(key)
            if current is not None and not current[0]:
                # zero-byte blob ≡ absent (see read_blob): swap against
                # its real version instead of the failed create
                return self._put(key, data, if_match=current[1])
            return None
        return self._put(key, data, if_match=etag)

    def append_line(self, key: str, line: str) -> None:
        """Optimistic whole-line append: read, extend, conditional-put.

        The loser of a concurrent append gets a precondition failure,
        re-reads the blob *including the winner's line*, and retries —
        so lines are never lost and never doubled, the same whole-record
        guarantee the flock appender gives locally.  A blob that ends in
        a torn tail gets a newline before the line, as locally.
        """
        payload = (line + "\n").encode("utf-8")
        for _ in range(_CAS_MAX_RETRIES):
            current = self._get(key)
            if current is None:
                if self.compare_and_swap(key, payload, None) is not None:
                    return
            else:
                data, etag = current
                sep = b"\n" if data and not data.endswith(b"\n") else b""
                if self.compare_and_swap(key, data + sep + payload, etag) is not None:
                    return
        raise BackendError(
            f"append_line({key!r}) lost {_CAS_MAX_RETRIES} CAS races; the "
            "backend is returning inconsistent ETags"
        )


class InMemoryCASBackend(CASBackend):
    """In-process conditional-put store: the memory store's backend.

    A dict of ``key -> (bytes, etag)`` behind one mutex, with a
    monotonic version counter for ETags.  ``ResultStore()`` and
    ``sweep serve --store :memory:`` keep their blobs here, so a memory
    store takes the same load, commit, claim, ``fsck`` and ``compact``
    paths as a disk store.  Thread-safe: N drain threads sharing one
    instance exercise exactly the lost-race/retry paths an object store
    would, with zero I/O — the CI-friendly stand-in the conformance
    suite (``tests/store/test_backend.py``) runs against.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._blobs: dict[str, tuple[bytes, str]] = {}
        self._version = 0

    def _next_etag(self) -> str:
        self._version += 1
        return f"v{self._version}"

    def _get(self, key: str) -> tuple[bytes, str] | None:
        with self._lock:
            return self._blobs.get(key)

    def _put(
        self, key: str, data: bytes, *, if_match: str | None = None,
        if_none_match: bool = False,
    ) -> str | None:
        with self._lock:
            current = self._blobs.get(key)
            if if_none_match and current is not None:
                return None
            if if_match is not None and (
                current is None or current[1] != if_match
            ):
                return None
            etag = self._next_etag()
            self._blobs[key] = (bytes(data), etag)
            return etag

    def _list(self, prefix: str) -> list[str]:
        with self._lock:
            return [
                k
                for k, (data, _) in self._blobs.items()
                if k.startswith(prefix) and data
            ]


class HTTPCASBackend(CASBackend):
    """Client for the ``sweep serve`` blob API — CAS over plain HTTP.

    Speaks the conditional-request subset any object-store gateway
    understands: ``GET /blob/<key>`` (200 + ``ETag`` / 404),
    ``PUT /blob/<key>`` with ``If-Match: <etag>`` or
    ``If-None-Match: *`` (200 + new ``ETag`` / 412 Precondition
    Failed), and ``GET /blobs?prefix=`` returning a JSON key list.
    This is how ``sweep work --store http://host:port`` drains a
    campaign with **no shared filesystem**: every ledger claim and
    shard commit is a conditional request against the server's
    backend.

    Parameters
    ----------
    url : str
        Base URL of a running ``sweep serve`` (no trailing slash
        needed).
    timeout : float
        Per-request timeout in seconds.
    """

    def __init__(self, url: str, *, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    def _request(
        self, method: str, path: str, *, data: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        req = urllib.request.Request(
            f"{self.url}{path}", data=data, method=method,
            headers=headers or {},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, resp.read(), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            body = exc.read()
            if exc.code in (404, 412):
                return exc.code, body, dict(exc.headers)
            raise BackendError(
                f"{method} {path} failed: HTTP {exc.code}"
            ) from exc
        except urllib.error.URLError as exc:
            raise BackendError(
                f"cannot reach sweep service at {self.url}: {exc.reason}"
            ) from exc

    @staticmethod
    def _quote(key: str) -> str:
        return urllib.parse.quote(key, safe="/")

    def _get(self, key: str) -> tuple[bytes, str] | None:
        status, body, headers = self._request("GET", f"/blob/{self._quote(key)}")
        if status == 404:
            return None
        etag = headers.get("ETag", "").strip('"')
        if not etag:
            raise BackendError(f"GET /blob/{key} returned no ETag")
        return body, etag

    def _put(
        self, key: str, data: bytes, *, if_match: str | None = None,
        if_none_match: bool = False,
    ) -> str | None:
        headers = {"Content-Type": "application/octet-stream"}
        if if_none_match:
            headers["If-None-Match"] = "*"
        if if_match is not None:
            headers["If-Match"] = f'"{if_match}"'
        status, _, resp_headers = self._request(
            "PUT", f"/blob/{self._quote(key)}", data=data, headers=headers
        )
        if status == 412:
            return None
        etag = resp_headers.get("ETag", "").strip('"')
        if not etag:
            raise BackendError(f"PUT /blob/{key} returned no ETag")
        return etag

    def _list(self, prefix: str) -> list[str]:
        query = urllib.parse.urlencode({"prefix": prefix})
        status, body, _ = self._request("GET", f"/blobs?{query}")
        if status != 200:
            raise BackendError(f"GET /blobs returned HTTP {status}")
        keys = json.loads(body.decode("utf-8"))
        if not isinstance(keys, list):
            raise BackendError("GET /blobs did not return a JSON list")
        return [str(k) for k in keys]


def resolve_backend(store: str | Path | StorageBackend) -> StorageBackend:
    """Normalise a store argument into a backend.

    A backend passes through; a path becomes a :class:`LocalBackend`.

    Parameters
    ----------
    store : str, Path, or StorageBackend
        Whatever the caller holds.

    Returns
    -------
    StorageBackend
        The backend to persist through.

    Raises
    ------
    TypeError
        If *store* is ``None``: a ledger or registry needs a store to
        live in.
    """
    if store is None:
        raise TypeError("expected a store path or a StorageBackend, got None")
    if isinstance(store, (str, Path)):
        return LocalBackend(store)
    return store
