"""Multi-worker sweep dispatch: lease/claim over a shared result store.

PR 4 made a sweep cell's content hash its identity; this module makes
that hash a **work-item id**.  Any number of worker processes point at
one disk-backed :class:`~repro.store.store.ResultStore` and call
:func:`drain`: each worker repeatedly *claims* one pending cell in an
append-only JSONL ledger (``claims.jsonl``, beside the shards),
executes it through the exact same
:func:`~repro.store.campaign.run_cell` path a single-process
:class:`~repro.store.campaign.Campaign` uses, commits the record with
the store's merge-safe locked append, and *releases* the claim.

The protocol, in full:

* a **claim** is one ledger line ``{"op": "claim", "hash", "owner",
  "expires_unix", "ts"}``; it is acquired by an atomic
  read-replay-append on the ledger blob — a compare-and-swap through
  the store's :class:`~repro.store.backend.StorageBackend` seam
  (backed by an exclusive ``flock`` on a shared filesystem, by a
  conditional put with an ETag precondition on an object store) —
  so two workers can never both win one cell: the loser's swap fails,
  and it re-reads the ledger *including the winner's claim* before
  retrying;
* a **release** (``op: "done"`` after a commit, ``op: "abandon"`` on
  failure) clears the lease; replay order decides — the latest record
  per hash wins;
* every lease carries a **TTL**.  An expired lease is simply
  reclaimable: a worker that crashed mid-cell costs nothing but time.
  If the original worker *was* merely slow and finishes anyway, both
  workers commit **identical** records — cell seeds derive from
  ``[root, H(cell)]``, not from the worker — and last-write-wins
  resolves the benign duplicate (``sweep compact`` trims it later).

Because execution, seeding, and the stored schema are all shared with
``Campaign``, an N-worker drain is **value-for-value identical** to an
uninterrupted single-worker ``Campaign.run()`` — pinned by
``tests/store/test_dispatch.py`` and the CI dispatch smoke.

Store hygiene lives here too: :func:`fsck` re-hashes every stored key,
flags torn lines, misplaced records, and stale leases; :func:`compact`
rewrites shards keeping only the live last-write-wins record per cell
and prunes the ledger.  CLI: ``sweep work`` / ``sweep fsck`` /
``sweep compact``.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

from ..obs.trace import Tracer
from .backend import StorageBackend, resolve_backend
from .campaign import run_cell
from .spec import RunKey, SweepSpec, canonical_json
from .store import ResultStore, parse_record

__all__ = [
    "DEFAULT_TTL",
    "Lease",
    "ClaimLedger",
    "WorkerReport",
    "drain",
    "FsckReport",
    "fsck",
    "CompactReport",
    "compact",
    "declare_sweep",
    "declared_sweeps",
]

#: ledger file name, beside ``meta.json`` and ``shards/``
CLAIMS_FILE = "claims.jsonl"

#: declared-sweeps registry file name — what ``sweep work --loop``
#: daemons poll for newly announced campaigns
SWEEPS_FILE = "sweeps.jsonl"

#: default lease TTL (seconds) — generous against slow cells; a crashed
#: worker's cells become reclaimable after this long
DEFAULT_TTL = 900.0

_CLAIM_OPS = ("claim", "done", "abandon")


def default_owner() -> str:
    """A worker id unique across hosts and processes.

    Returns
    -------
    str
        ``host-pid-xxxxxx`` — readable in ledgers and fsck reports.
    """
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass(frozen=True)
class Lease:
    """One cell's active claim, as replayed from the ledger.

    Attributes
    ----------
    hash : str
        The claimed cell's content hash (the work-item id).
    owner : str
        Worker id that holds the lease.
    expires_unix : float
        Absolute expiry time; past it the lease is reclaimable.
    lease_id : str
        Short random token stamped by the claiming worker (empty for
        ledgers written before lease ids existed) — events in
        ``events.jsonl`` carry the same token, so telemetry attributes
        to the *claim*, not just the owner (one owner can claim a cell
        twice across TTL expiries).
    """

    hash: str
    owner: str
    expires_unix: float
    lease_id: str = ""

    def expired(self, now: float) -> bool:
        """Whether the lease has outlived its TTL at time *now*."""
        return now >= self.expires_unix


class ClaimLedger:
    """The append-only claim ledger of one store.

    All mutation is line appends; every decision is taken on the lease
    state of one blob version.  Replay is incremental, because a drain
    claims once per cell and the ledger grows by two lines per cell: a
    full re-parse per claim would make a drain quadratic in its cells.
    The ledger object keeps the bytes it has replayed so far (through
    the last complete line) and the lease state they left.  When the
    next read starts with those bytes, only the new complete lines are
    parsed; when it does not (``sweep compact`` rewrote the ledger), the
    blob is replayed from scratch.  A torn tail line is parsed for the
    decision at hand but never cached.  Either way the state is exactly
    what a full replay of the blob gives — a function of its bytes.

    What matters for exclusivity is that acquisition is an atomic
    read-replay-append: the whole candidate evaluation happens against
    one blob version, and the claim lands only if that version is still
    current.  On a shared filesystem the backend's compare-and-swap
    holds the same exclusive ``flock`` every appender takes; on an
    object store it is a conditional put — either way "check it is
    free, then claim it" is atomic against every other worker.

    Parameters
    ----------
    store : str, Path, or StorageBackend
        The store directory (the ledger is ``root/claims.jsonl``) or
        the backend it persists through.
    """

    def __init__(self, store: str | Path | StorageBackend) -> None:
        backend = resolve_backend(store)
        if backend is None:
            raise ValueError("ClaimLedger needs a store path or backend")
        self.backend = backend
        self.root = getattr(backend, "root", None)
        self.path = self.root / CLAIMS_FILE if self.root is not None else None
        # the incremental replay: ledger bytes replayed so far (ending at
        # a line boundary), the leases they leave, and every hash they
        # show released ``done`` — a cell some worker has stored
        self._replayed = b""
        self._leases: dict[str, Lease] = {}
        self._done: set[str] = set()

    # -- replay ---------------------------------------------------------
    @staticmethod
    def _parse(text: str) -> list[dict[str, Any]]:
        records = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail — same tolerance as shards
            if (
                isinstance(record, dict)
                and record.get("op") in _CLAIM_OPS
                and isinstance(record.get("hash"), str)
                and isinstance(record.get("owner"), str)
            ):
                records.append(record)
        return records

    def records(self) -> list[dict[str, Any]]:
        """All valid ledger records, in append order (torn lines skipped).

        Returns
        -------
        list of dict
            ``{"op", "hash", "owner", "expires_unix", "ts"}`` records.
        """
        blob = self.backend.read_blob(CLAIMS_FILE)
        if blob is None:
            return []
        return self._parse(blob[0].decode("utf-8"))

    @staticmethod
    def _apply(
        state: dict[str, Lease],
        records: Iterable[Mapping[str, Any]],
        done: set[str] | None = None,
    ) -> None:
        """Replay *records* onto *state*: claims set, releases clear.

        Hashes released ``done`` are added to *done* when it is given.
        """
        for record in records:
            h = record["hash"]
            if record["op"] == "claim":
                state[h] = Lease(
                    hash=h,
                    owner=record["owner"],
                    expires_unix=float(record.get("expires_unix", 0.0)),
                    lease_id=str(record.get("lease", "")),
                )
            else:  # done / abandon
                state.pop(h, None)
                if done is not None and record["op"] == "done":
                    done.add(h)

    @staticmethod
    def _replay(records: Iterable[Mapping[str, Any]]) -> dict[str, Lease]:
        """Final lease state per hash: claims set, releases clear."""
        state: dict[str, Lease] = {}
        ClaimLedger._apply(state, records)
        return state

    def _read(self) -> tuple[bytes, str | None, dict[str, Lease]]:
        """The ledger blob, its ETag, and the lease state it replays to.

        Parses only the complete lines appended since the last read
        (everything, if the blob no longer starts with the bytes
        replayed so far).  The returned state is the cached one unless
        a torn tail line parses; callers must not mutate it.
        """
        blob = self.backend.read_blob(CLAIMS_FILE)
        data, etag = blob if blob is not None else (b"", None)
        if not data.startswith(self._replayed):
            self._replayed, self._leases, self._done = b"", {}, set()
        cut = data.rfind(b"\n") + 1
        if cut > len(self._replayed):
            fresh = data[len(self._replayed):cut].decode("utf-8")
            self._apply(self._leases, self._parse(fresh), self._done)
            self._replayed = data[:cut]
        tail = self._parse(data[cut:].decode("utf-8")) if cut < len(data) else []
        if not tail:
            return data, etag, self._leases
        state = dict(self._leases)
        self._apply(state, tail)
        return data, etag, state

    def leases(self) -> dict[str, Lease]:
        """Unreleased leases, expired ones included.

        Returns
        -------
        dict
            hash → :class:`Lease` for every claim without a later
            release — **including** expired ones (fsck wants those;
            claim acquisition filters them itself via
            :meth:`Lease.expired`).
        """
        return self._replay(self.records())

    def active(self, now: float | None = None) -> dict[str, Lease]:
        """Live (unexpired, unreleased) leases.

        Parameters
        ----------
        now : float, optional
            Clock override (tests); defaults to ``time.time()``.

        Returns
        -------
        dict
            hash → :class:`Lease` for every lease still excluding
            other workers.
        """
        now = time.time() if now is None else now
        return {
            h: lease
            for h, lease in self.leases().items()
            if not lease.expired(now)
        }

    # -- mutation -------------------------------------------------------
    def try_claim(
        self,
        hashes: Sequence[str],
        *,
        owner: str,
        ttl: float = DEFAULT_TTL,
        limit: int | None = 1,
        now: float | None = None,
        lease: str | None = None,
    ) -> list[str]:
        """Atomically claim up to *limit* of *hashes* for *owner*.

        An optimistic read-replay-swap loop: replay the current ledger
        blob (incrementally, see the class notes), pick the free hashes,
        and compare-and-swap the extended blob back under the ETag that
        was read.  A hash is won only if
        no live lease covers it *in the version the swap committed
        against* — a contender that claimed concurrently moves the
        ETag, the swap fails, and this worker re-reads (now seeing the
        rival's claim) and retries.  No line is ever double-appended:
        a claim lands exactly once, in the one swap that succeeds.

        Parameters
        ----------
        hashes : sequence of str
            Candidate cell hashes, in the caller's preference order.
        owner : str
            The claiming worker's id.
        ttl : float
            Lease lifetime in seconds.
        limit : int or None
            Claim at most this many (default 1 — one cell at a time
            maximises overlap between workers); ``None`` = all free.
        now : float, optional
            Clock override (tests).
        lease : str, optional
            Lease-id token stamped on the claim line(s) — the
            attribution key telemetry events carry.  Additive field:
            old ledgers replay fine without it.

        Returns
        -------
        list of str
            The hashes won, in *hashes* order (may be empty).
        """
        t = time.time() if now is None else now
        while True:
            data, etag, state = self._read()
            won: list[str] = []
            lines: list[str] = []
            for h in hashes:
                if limit is not None and len(won) >= limit:
                    break
                existing = state.get(h)
                if existing is not None and not existing.expired(t):
                    continue
                won.append(h)
                record = {
                    "op": "claim",
                    "hash": h,
                    "owner": owner,
                    "expires_unix": round(t + ttl, 3),
                    "ts": round(t, 3),
                }
                if lease is not None:
                    record["lease"] = lease
                lines.append(json.dumps(record, sort_keys=True) + "\n")
            if not won:
                return []
            # a torn tail (a crash mid-line) must not swallow our first
            # line: start on a fresh line when the blob lacks its newline
            sep = b"\n" if data and not data.endswith(b"\n") else b""
            new_data = data + sep + "".join(lines).encode("utf-8")
            if self.backend.compare_and_swap(CLAIMS_FILE, new_data, etag) is not None:
                return won
            # lost the CAS race: another worker's claim moved the ETag
            # between our read and our swap — re-read and retry

    def release(self, h: str, *, owner: str, op: str = "done") -> None:
        """Append a release for *h* (``done`` on success, ``abandon`` else).

        Parameters
        ----------
        h : str
            The cell hash being released.
        owner : str
            The releasing worker's id (provenance; replay does not
            check it — the claim lock already guaranteed exclusivity).
        op : str
            ``"done"`` or ``"abandon"``.
        """
        if op not in ("done", "abandon"):
            raise ValueError(f"release op must be done/abandon, got {op!r}")
        self.backend.append_line(
            CLAIMS_FILE,
            json.dumps(
                {
                    "op": op,
                    "hash": h,
                    "owner": owner,
                    "ts": round(time.time(), 3),
                },
                sort_keys=True,
            ),
        )


@dataclass
class WorkerReport:
    """What one :func:`drain` call did.

    Attributes
    ----------
    owner : str
        The worker's id.
    ran : list of str
        Hashes this worker claimed, computed, and committed.
    cached : list of str
        Hashes found already stored when first encountered.
    deferred : list of str
        Hashes left to others: leased elsewhere when this worker gave
        up (``wait=False``), or beyond its ``max_cells`` budget.
    """

    owner: str
    ran: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    deferred: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every cell this worker saw ended up stored."""
        return not self.deferred


def _held_elsewhere(ledger: ClaimLedger, owner: str) -> set[str]:
    """Hashes under another owner's live lease, as of the last ledger read."""
    now = time.time()
    return {
        h for h, lease in ledger._leases.items()
        if lease.owner != owner and not lease.expired(now)
    }


def drain(
    specs: SweepSpec | Sequence[SweepSpec],
    store: ResultStore,
    *,
    owner: str | None = None,
    ttl: float = DEFAULT_TTL,
    max_cells: int | None = None,
    shards: int | None = None,
    max_workers: int | None = None,
    wait: bool = False,
    poll_s: float = 0.05,
    on_cell: Callable[[RunKey, dict[str, Any], bool], None] | None = None,
    tracer: Tracer | None = None,
    profile: bool = False,
) -> WorkerReport:
    """Drain a sweep's pending cells as one dispatch worker.

    The worker scans the store once for the cells not yet stored, then
    loops: claim **one** of them through the ledger → re-read the
    store for it (decisive against a rival's commit) → run it via
    :func:`~repro.store.campaign.run_cell` (content-derived seeds, so
    results are identical no matter which worker computes a cell) →
    locked-append the record → release the claim → repeat.  A cell
    leaves the pending list when this worker runs it or finds it
    stored; only cells the ledger shows released ``done`` by another
    worker are re-checked between claims (after one more ledger read
    while another worker holds a live lease), so a drain costs O(cells)
    store reads.  When no claim can be won the remaining cells are
    rescanned.  The loop ends when nothing is pending, or — with
    ``wait=False`` — when every pending cell is leased to someone else.

    Parameters
    ----------
    specs : SweepSpec or sequence of SweepSpec
        The campaign(s) to drain; cells are deduplicated by hash
        across specs, in expansion order.
    store : ResultStore
        A **disk-backed** store shared by all workers.
    owner : str, optional
        Worker id for the ledger (default :func:`default_owner`).
    ttl : float
        Lease TTL in seconds; make it comfortably longer than the
        slowest cell, or a slow cell gets benignly recomputed.
    max_cells : int, optional
        Stop after computing this many cells (the CLI's incremental
        mode); cached cells don't count.
    shards : int, optional
        Forwarded to ``run_batch(shards=)`` per cell.
    max_workers : int, optional
        Forwarded with *shards*.
    wait : bool
        When pending cells are all leased elsewhere: ``False`` (default)
        returns with them in ``deferred``; ``True`` polls until they
        are stored or their leases expire (what
        ``Campaign(workers=N)`` pool members use, so the pool returns
        only when the sweep is complete).
    poll_s : float
        Sleep between polls when *wait* is set.
    on_cell : callable, optional
        ``on_cell(key, record, cached)`` after every stored cell this
        worker observed (progress reporting).
    tracer : Tracer, optional
        Telemetry sink threaded into every computed cell (see
        :func:`repro.obs.events.tracer_for_store`).  The worker stamps
        each claim's lease id on the tracer while the cell runs, so
        every emitted event attributes to worker **and** lease.
    profile : bool
        Record per-cell peak-RSS provenance.

    Returns
    -------
    WorkerReport
        Hashes ran / cached / deferred by this worker.
    """
    if store.backend is None:
        raise ValueError(
            "dispatch needs a disk-backed or backend-backed store (the "
            "claim ledger lives beside the shards); pass ResultStore(path) "
            "or ResultStore(backend=...)"
        )
    spec_list = [specs] if isinstance(specs, SweepSpec) else list(specs)
    if not spec_list:
        raise ValueError("drain needs at least one SweepSpec")
    owner = owner if owner is not None else default_owner()
    ledger = ClaimLedger(store.backend)
    report = WorkerReport(owner=owner)

    # dedup cells across specs, remembering the first declaring sweep
    # (provenance only — the hash is the identity)
    cells: dict[str, RunKey] = {}
    sweep_of: dict[str, str] = {}
    for spec in spec_list:
        for key in spec.expand():
            if key.hash not in cells:
                cells[key.hash] = key
                sweep_of[key.hash] = spec.name

    graph_cache: dict[tuple, Any] = {}
    pending = dict(cells)  # not yet run or seen stored, in preference order

    def settle(hashes: Iterable[str]) -> None:
        """Re-read the store for *hashes*; report the stored ones cached."""
        store.refresh()
        for h in hashes:
            record = store.get(pending[h])
            if record is not None:
                key = pending.pop(h)
                report.cached.append(h)
                if on_cell is not None:
                    on_cell(key, record, True)

    settle(list(pending))
    while pending:
        if max_cells is not None and len(report.ran) >= max_cells:
            settle(list(pending))
            report.deferred.extend(pending)
            break
        if _held_elsewhere(ledger, owner):
            # another worker is live: catch up with the ledger first, so
            # a cell it finished since our last read is not claimed again
            ledger._read()
        # a ``done`` release is written only after its cell is stored, so
        # only the pending cells the ledger shows released need a re-check
        released = [h for h in pending if h in ledger._done]
        if released:
            settle(released)
            if not pending:
                break
        # cells under another worker's live lease go last
        busy = _held_elsewhere(ledger, owner)
        lease_token = uuid.uuid4().hex[:8]
        won = ledger.try_claim(
            sorted(pending, key=busy.__contains__), owner=owner, ttl=ttl,
            limit=1, lease=lease_token,
        )
        if not won:
            # nothing winnable: rescan what is left, then give up or poll
            settle(list(pending))
            if pending and wait:
                time.sleep(poll_s)
                continue
            report.deferred.extend(pending)
            break
        (h,) = won
        key = pending.pop(h)
        # close the claim/commit race: another worker may have committed
        # this cell after our last look and released its lease before
        # our claim.  A commit is durably stored before its release, so
        # re-reading the store *after* winning the claim is decisive.
        store.refresh()
        record = store.get(key)
        if record is not None:
            ledger.release(h, owner=owner, op="done")
            report.cached.append(h)
            if on_cell is not None:
                on_cell(key, record, True)
            continue
        if tracer is not None:
            tracer.lease = lease_token
        try:
            record = run_cell(
                key,
                store,
                sweep=sweep_of[h],
                shards=shards,
                max_workers=max_workers,
                graph_cache=graph_cache,
                tracer=tracer,
                worker=owner,
                lease=lease_token,
                profile=profile,
            )
        except BaseException:
            ledger.release(h, owner=owner, op="abandon")
            raise
        finally:
            if tracer is not None:
                tracer.lease = None
        ledger.release(h, owner=owner, op="done")
        report.ran.append(h)
        if on_cell is not None:
            on_cell(key, record, False)
    return report


# ----------------------------------------------------------------------
# the Campaign(workers=N) local pool plumbing
# ----------------------------------------------------------------------

def worker_payloads(
    spec: SweepSpec,
    root: str | Path,
    *,
    workers: int,
    ttl: float = DEFAULT_TTL,
    shards: int | None = None,
    max_workers: int | None = None,
    trace: bool = False,
    profile: bool = False,
) -> list[tuple]:
    """Picklable per-worker argument tuples for :func:`pool_worker`.

    Parameters
    ----------
    spec : SweepSpec
        The sweep every pool member drains.
    root : str or Path
        The shared store directory.
    workers : int
        Pool width (one payload per worker).
    ttl : float
        Lease TTL handed to each worker.
    shards : int, optional
        Forwarded to ``run_batch(shards=)`` per cell.
    max_workers : int, optional
        Forwarded with *shards*.
    trace : bool
        Each worker opens its own store-backed event tracer
        (a tracer object cannot cross the pool pickle boundary).
    profile : bool
        Forwarded to :func:`drain` (per-cell peak-RSS provenance).

    Returns
    -------
    list of tuple
        One ``(spec, root, owner, ttl, shards, max_workers, trace,
        profile)`` each.
    """
    return [
        (
            spec, str(root), f"{default_owner()}-w{i}", ttl, shards, max_workers,
            trace, profile,
        )
        for i in range(workers)
    ]


def pool_worker(payload: tuple) -> WorkerReport:
    """Entry point of one ``Campaign(workers=N)`` pool process.

    Opens a fresh store handle on the shared directory and drains with
    ``wait=True`` so the pool's ``map`` returns only once every cell of
    the sweep is stored (by *some* worker).  A tracing pool builds its
    own :func:`repro.obs.events.tracer_for_store` here, in the worker
    process, under the worker's owner id — every pool member appends
    to the same flock-guarded ``events.jsonl``.

    Parameters
    ----------
    payload : tuple
        One element of :func:`worker_payloads`.

    Returns
    -------
    WorkerReport
        This worker's share of the drain.
    """
    spec, root, owner, ttl, shards, max_workers, trace, profile = payload
    tracer = None
    if trace:
        from ..obs.events import tracer_for_store

        tracer = tracer_for_store(root, worker=owner)
    return drain(
        spec,
        ResultStore(root),
        owner=owner,
        ttl=ttl,
        shards=shards,
        max_workers=max_workers,
        wait=True,
        tracer=tracer,
        profile=profile,
    )


# ----------------------------------------------------------------------
# fsck — integrity check
# ----------------------------------------------------------------------

@dataclass
class FsckReport:
    """What ``sweep fsck`` found in one store directory.

    Integrity findings (any of these ⇒ not :attr:`clean`):

    Attributes
    ----------
    corrupt_lines : dict of str → int
        Shard name → number of unparseable (torn) lines.
    hash_mismatches : list of str
        Stored hashes whose key payload re-hashes to something else
        (bit rot, hand edits).
    misplaced : list of (str, str)
        ``(shard, hash)`` records filed in a shard whose prefix does
        not match their hash (orphaned records).
    stale_leases : list of Lease
        Claims that expired without a release — a worker died there.

    Hygiene findings (legal, compaction candidates, still clean):

    Attributes
    ----------
    duplicates : dict of str → int
        hash → record count, for cells stored more than once
        (last-write-wins; ``sweep compact`` trims them).
    live_leases : list of Lease
        Unexpired claims — workers are (or very recently were) active.

    Attributes
    ----------
    records : int
        Valid records seen (including duplicates).
    cells : int
        Distinct cell hashes.
    events_records : int
        Parseable telemetry events in ``events.jsonl`` (0 when the
        campaign never traced).
    events_corrupt : int
        Torn event lines — an integrity finding, same as shard tears.
    """

    records: int = 0
    cells: int = 0
    corrupt_lines: dict[str, int] = field(default_factory=dict)
    hash_mismatches: list[str] = field(default_factory=list)
    misplaced: list[tuple[str, str]] = field(default_factory=list)
    duplicates: dict[str, int] = field(default_factory=dict)
    stale_leases: list[Lease] = field(default_factory=list)
    live_leases: list[Lease] = field(default_factory=list)
    events_records: int = 0
    events_corrupt: int = 0

    @property
    def errors(self) -> int:
        """Count of integrity findings (0 for a healthy store)."""
        return (
            sum(self.corrupt_lines.values())
            + len(self.hash_mismatches)
            + len(self.misplaced)
            + len(self.stale_leases)
            + self.events_corrupt
        )

    @property
    def clean(self) -> bool:
        """No torn lines, bad hashes, orphans, or dead workers."""
        return self.errors == 0

    def summary(self) -> str:
        """One human-readable line per finding class.

        Returns
        -------
        str
            The ``sweep fsck`` CLI output.
        """
        lines = [
            f"records            {self.records} ({self.cells} distinct cells)",
            f"corrupt lines      {sum(self.corrupt_lines.values())}"
            + (f"  in {sorted(self.corrupt_lines)}" if self.corrupt_lines else ""),
            f"hash mismatches    {len(self.hash_mismatches)}",
            f"misplaced records  {len(self.misplaced)}",
            f"duplicate cells    {len(self.duplicates)} (last-write-wins; "
            "'sweep compact' trims)",
            f"stale leases       {len(self.stale_leases)}"
            + (
                "  owners: "
                + ", ".join(sorted({ls.owner for ls in self.stale_leases}))
                if self.stale_leases
                else ""
            ),
            f"live leases        {len(self.live_leases)}",
            f"events             {self.events_records} record(s), "
            f"{self.events_corrupt} torn line(s)",
            f"verdict            {'clean' if self.clean else 'NOT CLEAN'}",
        ]
        return "\n".join(lines)


def fsck(store: ResultStore, *, now: float | None = None) -> FsckReport:
    """Re-verify every record and lease of a disk-backed store.

    Reads the raw shard files (never the store's cache): each line must
    parse, its ``key`` payload must re-hash (SHA-256 of the canonical
    JSON) to the stored ``hash``, and the hash must belong in the shard
    file that holds it.  The claim ledger is replayed for leases that
    expired without a release, and the telemetry log (``events.jsonl``,
    if any) is scanned for torn lines.

    Parameters
    ----------
    store : ResultStore
        A disk-backed store (memory stores have nothing to check).
    now : float, optional
        Clock override for lease expiry (tests).

    Returns
    -------
    FsckReport
        Findings; ``report.clean`` is the CLI's exit status.
    """
    if store.backend is None:
        raise ValueError("fsck needs a disk-backed or backend-backed store")
    now = time.time() if now is None else now
    report = FsckReport()
    counts: dict[str, int] = {}
    for shard_key in store.shard_keys():
        prefix = shard_key.rsplit("/", 1)[-1].removesuffix(".jsonl")
        blob = store.backend.read_blob(shard_key)
        if blob is None:
            continue
        for line in blob[0].decode("utf-8").splitlines():
            if not line.strip():
                continue
            try:
                record = parse_record(line)
            except ValueError:
                report.corrupt_lines[prefix] = report.corrupt_lines.get(prefix, 0) + 1
                continue
            h = record["hash"]
            report.records += 1
            counts[h] = counts.get(h, 0) + 1
            recomputed = hashlib.sha256(
                canonical_json(record["key"]).encode()
            ).hexdigest()
            if recomputed != h:
                report.hash_mismatches.append(h)
            if not h.startswith(prefix):
                report.misplaced.append((prefix, h))
    report.cells = len(counts)
    report.duplicates = {h: c for h, c in counts.items() if c > 1}
    for lease in ClaimLedger(store.backend).leases().values():
        if lease.expired(now):
            report.stale_leases.append(lease)
        else:
            report.live_leases.append(lease)
    from ..obs.events import EventLog

    events = EventLog(store.backend)
    report.events_records = len(events.records())
    report.events_corrupt = events.torn_lines()
    return report


# ----------------------------------------------------------------------
# compaction — drop superseded duplicates, reroute orphans, prune leases
# ----------------------------------------------------------------------

@dataclass
class CompactReport:
    """What ``sweep compact`` rewrote.

    Attributes
    ----------
    records_in : int
        Valid records before compaction (duplicates included).
    records_out : int
        Live records after (one per cell).
    duplicates_dropped : int
        Superseded last-write-wins records removed.
    corrupt_dropped : int
        Torn lines removed.
    relocated : int
        Misplaced records rewritten into their correct shard.
    claims_dropped : int
        Ledger records pruned (everything but live leases).
    """

    records_in: int = 0
    records_out: int = 0
    duplicates_dropped: int = 0
    corrupt_dropped: int = 0
    relocated: int = 0
    claims_dropped: int = 0

    @property
    def removed(self) -> int:
        """Total shard lines dropped."""
        return self.duplicates_dropped + self.corrupt_dropped

    def summary(self) -> str:
        """One human-readable line per rewrite class.

        Returns
        -------
        str
            The ``sweep compact`` CLI output.
        """
        return "\n".join(
            [
                f"records            {self.records_in} -> {self.records_out}",
                f"duplicates dropped {self.duplicates_dropped}",
                f"corrupt dropped    {self.corrupt_dropped}",
                f"relocated          {self.relocated}",
                f"claims pruned      {self.claims_dropped}",
            ]
        )


def _cas_rewrite(
    backend: StorageBackend,
    key: str,
    transform: Callable[[str], tuple[str, Any]],
) -> Any:
    """Read one blob, transform its text, compare-and-swap it back.

    The optimistic analogue of "rewrite in place under the writer
    lock": *transform* runs against exactly one blob version, and the
    rewrite lands only if that version is still current — a concurrent
    commit moves the ETag, the swap fails, and the transform re-runs
    against the blob *including* that commit.  A committed record can
    therefore never be lost to a rewrite.  No-op transforms (output
    text == input text) skip the swap entirely.

    Returns whatever *transform* returned as its second element, from
    the attempt whose swap succeeded.
    """
    while True:
        blob = backend.read_blob(key)
        data, etag = blob if blob is not None else (b"", None)
        new_text, result = transform(data.decode("utf-8"))
        payload = new_text.encode("utf-8")
        if payload == data:
            return result
        if backend.compare_and_swap(key, payload, etag) is not None:
            return result


def compact(
    store: ResultStore, *, force: bool = False, now: float | None = None
) -> CompactReport:
    """Rewrite the store keeping one live record per cell.

    Per shard: drop torn lines, keep the **last** record per hash
    (exactly the load path's last-write-wins resolution, so the
    surviving values are identical to what reads already saw), and
    file misplaced records into the shard their hash names.  Each
    shard rewrite is one compare-and-swap through the store's
    backend — on a shared filesystem that holds the same ``flock``
    the merge-safe writer appends under; on an object store it is a
    conditional put — so a concurrent commit either lands before the
    rewrite (and is kept) or moves the ETag and forces the rewrite to
    re-read (and keep it).  Either way a committed record can never
    be lost to compaction, even from writers that hold no lease (a
    plain ``Campaign.run()``).  A crash *mid*-rewrite can tear the
    shard being written locally, which the load path already
    tolerates (the affected cells re-run; ``fsck`` flags it).  Shards
    left with no records become empty blobs (≡ absent at the seam).
    The claim ledger is rewritten the same way, keeping only live
    leases — done/abandoned/expired claims drop.

    Compaction is still an *offline* operation in intent: it refuses
    to run while live leases exist (a leased cell's commit would
    interleave with the rewrite — safely, but the report would be
    stale), unless *force* is set.

    Parameters
    ----------
    store : ResultStore
        A disk-backed or backend-backed store.
    force : bool
        Compact even with live leases (you know the workers are gone).
    now : float, optional
        Clock override for lease expiry (tests).

    Returns
    -------
    CompactReport
        What was dropped, kept, and relocated.
    """
    if store.backend is None:
        raise ValueError("compact needs a disk-backed or backend-backed store")
    now = time.time() if now is None else now
    ledger = ClaimLedger(store.backend)
    live = {
        h: lease
        for h, lease in ledger.leases().items()
        if not lease.expired(now)
    }
    if live and not force:
        raise RuntimeError(
            f"store has {len(live)} live lease(s) — workers may still be "
            "running; wait for them (or pass force=True / --force)"
        )
    report = CompactReport()

    # phase 1 — per shard, one CAS rewrite: drop torn lines, dedup in
    # line order (last write wins, as the load path resolves), pull out
    # strays whose hash belongs elsewhere.  Stats come from the attempt
    # that actually landed, so lost races never double-count.
    strays: dict[str, str] = {}
    kept_total = 0
    for shard_key in store.shard_keys():
        prefix = shard_key.rsplit("/", 1)[-1].removesuffix(".jsonl")

        def dedup(text: str, prefix: str = prefix) -> tuple[str, dict[str, Any]]:
            stats: dict[str, Any] = {
                "records_in": 0, "corrupt": 0, "dups": 0, "strays": {},
            }
            keep: dict[str, str] = {}
            for line in text.splitlines():
                if not line.strip():
                    continue
                try:
                    record = parse_record(line)
                except ValueError:
                    stats["corrupt"] += 1
                    continue
                stats["records_in"] += 1
                h = record["hash"]
                serialised = json.dumps(record, sort_keys=True)
                if h.startswith(prefix):
                    if h in keep:
                        stats["dups"] += 1
                    keep[h] = serialised
                else:
                    if h in stats["strays"]:
                        stats["dups"] += 1
                    stats["strays"][h] = serialised
            stats["kept"] = len(keep)
            return "".join(keep[h] + "\n" for h in sorted(keep)), stats

        stats = _cas_rewrite(store.backend, shard_key, dedup)
        report.records_in += stats["records_in"]
        report.corrupt_dropped += stats["corrupt"]
        report.duplicates_dropped += stats["dups"]
        report.relocated += len(stats["strays"])
        for h, serialised in stats["strays"].items():
            if h in strays:
                report.duplicates_dropped += 1
            strays[h] = serialised
        kept_total += stats["kept"]

    # phase 2 — refile each stray into the shard its hash names (one
    # CAS append each); if the target already holds the cell, the
    # in-place copy wins and the stray drops as one more duplicate —
    # value-irrelevant either way, duplicate records of a cell carry
    # identical values (content-derived seeds)
    for h in sorted(strays):
        target_key = f"shards/{h[:2]}.jsonl"

        def refile(text: str, h: str = h) -> tuple[str, bool]:
            present = False
            for line in text.splitlines():
                try:
                    present = present or parse_record(line)["hash"] == h
                except ValueError:
                    continue
            if present:
                return text, False
            return text + strays[h] + "\n", True

        if _cas_rewrite(store.backend, target_key, refile):
            kept_total += 1
        else:
            report.duplicates_dropped += 1
            report.relocated -= 1
    report.records_out = kept_total

    # phase 3 — prune the ledger down to live leases, one CAS rewrite
    def prune(text: str) -> tuple[str, int]:
        records = ledger._parse(text)
        state = ledger._replay(records)
        keep_lines = [
            json.dumps(r, sort_keys=True)
            for r in records
            if r["op"] == "claim"
            and r["hash"] in state
            and not state[r["hash"]].expired(now)
        ]
        return (
            "".join(line + "\n" for line in keep_lines),
            len(records) - len(keep_lines),
        )

    report.claims_dropped = _cas_rewrite(store.backend, CLAIMS_FILE, prune)

    store.refresh()
    return report


# ----------------------------------------------------------------------
# declared sweeps — the registry ``sweep work --loop`` daemons poll
# ----------------------------------------------------------------------

def declare_sweep(
    store: str | Path | StorageBackend,
    name: str,
    *,
    scale: str = "quick",
    seed: int = 0,
    by: str | None = None,
) -> dict[str, Any]:
    """Announce a sweep in the store's ``sweeps.jsonl`` registry.

    One merge-safe line append: ``{"name", "scale", "seed", "ts",
    "by"}``.  Looping workers (``sweep work --loop``) poll
    :func:`declared_sweeps` and drain anything new; declaring the same
    (name, scale, seed) twice is harmless — the registry deduplicates
    on read, and the cells are content-addressed anyway.

    Parameters
    ----------
    store : str, Path, or StorageBackend
        Where the registry lives (beside the shards).
    name : str
        A registered sweep name (see ``repro.store.spec.build_sweep``).
    scale : str
        Sweep scale preset forwarded to ``build_sweep``.
    seed : int
        Root seed forwarded to ``build_sweep``.
    by : str, optional
        Declaring principal for provenance (default
        :func:`default_owner`).

    Returns
    -------
    dict
        The registry record as appended.
    """
    backend = resolve_backend(store)
    if backend is None:
        raise ValueError("declare_sweep needs a store path or backend")
    record = {
        "name": name,
        "scale": scale,
        "seed": int(seed),
        "ts": round(time.time(), 3),
        "by": by if by is not None else default_owner(),
    }
    backend.append_line(SWEEPS_FILE, json.dumps(record, sort_keys=True))
    return record


def declared_sweeps(
    store: str | Path | StorageBackend,
) -> list[dict[str, Any]]:
    """All declared sweeps, deduplicated, in declaration order.

    Parameters
    ----------
    store : str, Path, or StorageBackend
        Where the registry lives.

    Returns
    -------
    list of dict
        One ``{"name", "scale", "seed", "ts", "by"}`` per distinct
        (name, scale, seed) declaration, first declaration wins;
        torn or malformed lines are skipped (same tolerance as every
        other ledger).
    """
    backend = resolve_backend(store)
    if backend is None:
        raise ValueError("declared_sweeps needs a store path or backend")
    blob = backend.read_blob(SWEEPS_FILE)
    if blob is None:
        return []
    out: list[dict[str, Any]] = []
    seen: set[tuple[str, str, int]] = set()
    for line in blob[0].decode("utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not (
            isinstance(record, dict)
            and isinstance(record.get("name"), str)
            and isinstance(record.get("scale"), str)
            and isinstance(record.get("seed"), int)
        ):
            continue
        ident = (record["name"], record["scale"], record["seed"])
        if ident in seen:
            continue
        seen.add(ident)
        out.append(record)
    return out