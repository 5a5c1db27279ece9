"""Multi-worker sweep dispatch: lease/claim over a shared result store.

PR 4 made a sweep cell's content hash its identity; this module makes
that hash a **work-item id**.  Any number of workers point at one
:class:`~repro.store.store.ResultStore` and call
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
from .store import ResultStore, _shard_key, _shard_prefix, scan_lines

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


def _claim_record(line: str) -> dict[str, Any]:
    """One ledger line; ``ValueError`` when torn or not a claim/release."""
    record = json.loads(line)
    if not (
        isinstance(record, dict)
        and record.get("op") in _CLAIM_OPS
        and isinstance(record.get("hash"), str)
        and isinstance(record.get("owner"), str)
    ):
        raise ValueError("not a claim-ledger record")
    return record


def _sweep_record(line: str) -> dict[str, Any]:
    """One registry line; ``ValueError`` when torn or not a declaration."""
    record = json.loads(line)
    if not (
        isinstance(record, dict)
        and isinstance(record.get("name"), str)
        and isinstance(record.get("scale"), str)
        and isinstance(record.get("seed"), int)
    ):
        raise ValueError("not a sweep declaration")
    return record


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
        self.backend = resolve_backend(store)
        # the incremental replay: ledger bytes replayed so far (ending at
        # a line boundary), the leases they leave, and every hash they
        # show released ``done`` — a cell some worker has stored
        self._replayed = b""
        self._leases: dict[str, Lease] = {}
        self._done: set[str] = set()

    # -- replay ---------------------------------------------------------
    @staticmethod
    def _parse(data: bytes | str) -> list[dict[str, Any]]:
        return scan_lines(data, _claim_record)[0]  # torn lines are skipped

    def records(self) -> list[dict[str, Any]]:
        """All valid ledger records, in append order (torn lines skipped).

        Returns
        -------
        list of dict
            ``{"op", "hash", "owner", "expires_unix", "ts"}`` records.
        """
        blob = self.backend.read_blob(CLAIMS_FILE)
        return [] if blob is None else self._parse(blob[0])

    @staticmethod
    def _apply(
        state: dict[str, Lease],
        records: Iterable[Mapping[str, Any]],
        done: set[str] | None = None,
    ) -> None:
        """Replay *records* onto *state*: claims set, releases clear.

        The one ledger replay: incremental reads, :meth:`leases`,
        ``sweep report`` and compaction's pruning all go through it.
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
            fresh = self._parse(data[len(self._replayed):cut])
            self._apply(self._leases, fresh, self._done)
            self._replayed = data[:cut]
        tail = self._parse(data[cut:]) if cut < len(data) else []
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
            :meth:`Lease.expired`).  A copy of the state the
            incremental replay holds for the current blob.
        """
        return dict(self._read()[2])

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

        A hash whose ``done`` release first shows up in this call's read
        is left out (a fresh handle has read nothing, so every ``done``
        not written through it is new to it): its cell was stored after
        this handle last looked, and a caller that checks the store
        between claims, as :func:`drain` does, finds it there instead of
        claiming it only to release it again.  Once read, a released
        hash is claimable as usual (a cell whose record went missing).

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
        known_done = set(self._done)
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
                if h in self._done and h not in known_done:
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
            ``"done"`` or ``"abandon"``.  A ``done`` written through
            this handle is known to it at once, so :meth:`try_claim`
            does not treat it as new.
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
        if op == "done":
            self._done.add(h)


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
        The store shared by all workers; separate processes reach one
        through a shared directory or a ``sweep serve`` URL.
    owner : str, optional
        Worker id for the ledger (default :func:`default_owner`).
    ttl : float
        Lease TTL in seconds; make it comfortably longer than the
        slowest cell, or a slow cell gets benignly recomputed.
    max_cells : int, optional
        Stop after computing this many cells (the CLI's incremental
        mode); cached cells don't count.
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
        done_seen = len(ledger._done)
        won = ledger.try_claim(
            sorted(pending, key=busy.__contains__), owner=owner, ttl=ttl,
            limit=1, lease=lease_token,
        )
        if not won:
            # nothing winnable: rescan what is left, then give up or poll
            settle(list(pending))
            if pending and len(ledger._done) > done_seen:
                continue  # the claim skipped releases this scan has now seen
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
    """Re-verify every record and lease of a store.

    Reads the raw shard files (never the store's cache): each line must
    parse, its ``key`` payload must re-hash (SHA-256 of the canonical
    JSON) to the stored ``hash``, and the hash must belong in the shard
    file that holds it.  The claim ledger is replayed for leases that
    expired without a release, and the telemetry log (``events.jsonl``,
    if any) is scanned for torn lines.

    Parameters
    ----------
    store : ResultStore
        The store to check, on any backend.
    now : float, optional
        Clock override for lease expiry (tests).

    Returns
    -------
    FsckReport
        Findings; ``report.clean`` is the CLI's exit status.
    """
    now = time.time() if now is None else now
    report = FsckReport()
    counts: dict[str, int] = {}
    for prefix, records, torn in store.scan_shards():
        if torn:
            report.corrupt_lines[prefix] = torn
        for record in records:
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

    events, report.events_corrupt = EventLog(store.backend)._scan()
    report.events_records = len(events)
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
        The store to compact, on any backend.
    force : bool
        Compact even with live leases (you know the workers are gone).
    now : float, optional
        Clock override for lease expiry (tests).

    Returns
    -------
    CompactReport
        What was dropped, kept, and relocated.
    """
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
    for key in store.shard_keys():

        def dedup(
            text: str, prefix: str = _shard_prefix(key)
        ) -> tuple[str, dict[str, Any]]:
            records, torn = scan_lines(text)
            keep: dict[str, str] = {}
            elsewhere: dict[str, str] = {}
            dups = 0
            for record in records:
                h = record["hash"]
                filed = keep if h.startswith(prefix) else elsewhere
                if h in filed:
                    dups += 1
                filed[h] = json.dumps(record, sort_keys=True)
            stats: dict[str, Any] = {
                "records_in": len(records), "corrupt": torn, "dups": dups,
                "strays": elsewhere, "kept": len(keep),
            }
            return "".join(keep[h] + "\n" for h in sorted(keep)), stats

        stats = _cas_rewrite(store.backend, key, dedup)
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

        def refile(text: str, h: str = h) -> tuple[str, bool]:
            if any(record["hash"] == h for record in scan_lines(text)[0]):
                return text, False
            return text + strays[h] + "\n", True

        if _cas_rewrite(store.backend, _shard_key(h[:2]), refile):
            kept_total += 1
        else:
            report.duplicates_dropped += 1
            report.relocated -= 1
    report.records_out = kept_total

    # phase 3 — prune the ledger down to live leases, one CAS rewrite
    def prune(text: str) -> tuple[str, int]:
        records = ledger._parse(text)
        state: dict[str, Lease] = {}
        ledger._apply(state, records)
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
    blob = resolve_backend(store).read_blob(SWEEPS_FILE)
    if blob is None:
        return []
    out: list[dict[str, Any]] = []
    seen: set[tuple[str, str, int]] = set()
    for record in scan_lines(blob[0], _sweep_record)[0]:
        ident = (record["name"], record["scale"], record["seed"])
        if ident in seen:
            continue
        seen.add(ident)
        out.append(record)
    return out