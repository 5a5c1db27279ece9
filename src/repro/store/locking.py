"""Advisory file locking for multi-process store writers.

Everything the dispatch layer guarantees reduces to two primitives on
a shared filesystem:

* :func:`locked` — hold an exclusive ``flock`` on a file for a
  read-modify-append critical section (the claim ledger's atomic
  "read the active leases, then claim" step);
* :func:`append_line` — append one self-contained JSONL line under an
  exclusive lock, so concurrent writers interleave *whole records*
  and never interleave bytes (the merge-safe shard writer).

``flock`` is advisory: correctness requires every writer to go through
these helpers, which :class:`~repro.store.store.ResultStore` and
:class:`~repro.store.dispatch.ClaimLedger` do.  On platforms without
``fcntl`` (Windows) the helpers degrade to unlocked appends — the
single-writer story of PR 4 — which is still torn-write tolerant.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from collections.abc import Iterator
from typing import IO, AnyStr

try:  # POSIX; absent on Windows
    import fcntl
except ImportError:  # pragma: no cover - exercised only off-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = ["locked", "append_line"]


@contextlib.contextmanager
def _flocked(handle: IO[AnyStr]) -> Iterator[IO[AnyStr]]:
    """Hold ``LOCK_EX`` on *handle* for the block; the release (after a
    flush, so other lockers read complete records) is in a ``finally``
    — no code path exits the block still holding the lock."""
    if fcntl is not None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield handle
    finally:
        handle.flush()
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def _open(path: Path) -> IO[bytes]:
    """*path* opened ``a+b``; its parent directories are created only
    when the open misses them, not with a ``mkdir`` on every write."""
    try:
        return path.open("a+b")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("a+b")


@contextlib.contextmanager
def locked(path: str | Path) -> Iterator[IO[bytes]]:
    """Exclusive advisory lock on *path* for a read+append critical section.

    The file is created (empty) if missing and opened ``a+b`` — reads
    see the full current bytes after a ``seek(0)``, writes always land
    at the end — and the ``flock`` is held until the ``with`` block
    exits, so a read-decide-write sequence inside the block is atomic
    against every other :func:`locked`/:func:`append_line` user of the
    same path.

    Parameters
    ----------
    path : str or Path
        File to lock (parent directories are created).

    Yields
    ------
    IO[bytes]
        The locked binary ``a+b`` handle.
    """
    with _open(Path(path)) as handle:
        with _flocked(handle):
            yield handle


def append_line(path: str | Path, line: str) -> None:
    """Append one line to *path* under an exclusive lock.

    One call writes one complete ``line + "\\n"`` while holding the
    lock, so concurrent appenders serialize at record granularity: a
    reader may see a *torn tail* (a crash mid-write) but never two
    writers' bytes interleaved.  A file that ends in a torn tail gets a
    newline first, so the torn bytes stay one bad line and never glue
    onto this record.

    Parameters
    ----------
    path : str or Path
        File to append to (created, with parents, if missing).
    line : str
        The record text, without a trailing newline.
    """
    record = (line + "\n").encode("utf-8")
    with _open(Path(path)) as handle:
        with _flocked(handle):
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    record = b"\n" + record
            # "a+" mode: the write lands at EOF whatever was just read
            handle.write(record)
