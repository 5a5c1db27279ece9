"""Content-addressed result store: JSONL shards + an in-memory index.

Layout on disk (``root`` is the directory handed to
:class:`ResultStore`)::

    root/
      meta.json          # store schema version, for humans/tools
      shards/
        3f.jsonl         # one append-only JSONL file per 2-hex-char
        a0.jsonl         # prefix of the cell hash

Each line of a shard is one **record**::

    {"hash": "...64 hex chars...",
     "key": {...RunKey.payload()...},
     "result": {"values": [...], "mean": ..., "std": ..., "median": ...,
                "ci95_half_width": ..., "failures": ...},
     "provenance": {"sweep": ..., "engine": ..., "wall_time_s": ...,
                    "seed_entropy": [...], "created_unix": ...}}

The hash is the record's address: ``get``/``has`` only ever load the
one shard the prefix names, so point lookups on a million-cell store
touch one small file.  Shards are append-only and lines are
self-contained, which makes the store crash-tolerant by construction —
a record torn by an interrupted write fails to parse, is skipped (with
a warning) at load time, and its cell simply re-runs.  Duplicate
hashes are last-write-wins.  Appends go through an advisory per-shard
``flock`` (:mod:`repro.store.locking`) writing one whole record per
lock hold, so any number of worker processes — the
:mod:`repro.store.dispatch` layer — can commit into one store
concurrently without interleaving bytes (the merge-safe writer).

``root=None`` gives a memory-only store with the same API (what the
migrated experiments use for their ephemeral sweeps).

Querying goes through :meth:`ResultStore.frame`: every record flattens
to one plain-dict row (axes + summary statistics + provenance) inside
a lightweight :class:`Frame` with ``filter``/``sort_by``/``column``/
``summarize``/``to_table``/``fit_power_law`` — the bridge into
:mod:`repro.analysis`.
"""

from __future__ import annotations

import json
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from .backend import LocalBackend, StorageBackend, resolve_backend
from .spec import STORE_SCHEMA_VERSION, RunKey, canonical_json

if TYPE_CHECKING:
    from ..sim.montecarlo import TrialSummary

__all__ = ["ResultStore", "Frame", "FRAME_SCHEMA", "record_row", "parse_record"]

#: schema tag stamped on every serialized Frame — the one canonical
#: wire format shared by ``Frame.to_json``, ``sweep show --json`` and
#: the ``sweep serve`` ``/frame`` endpoint
FRAME_SCHEMA = "repro.frame/1"

_RESULT_FIELDS = ("values", "mean", "std", "median", "ci95_half_width", "failures")


def parse_record(line: str) -> dict[str, Any]:
    """Parse and validate one shard line, raising on anything torn.

    The one definition of "a valid record" — shared by the load path
    (which skips invalid lines with a warning) and by ``sweep fsck``
    (which reports them).

    Parameters
    ----------
    line : str
        One line of a shard file.

    Returns
    -------
    dict
        The record (``hash``/``key``/``result``/``provenance``).

    Raises
    ------
    ValueError
        If the line is not valid JSON or lacks required fields.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"unparseable record line: {exc}") from exc
    if not isinstance(record, dict):
        raise ValueError("record line is not a JSON object")
    if not all(k in record for k in ("hash", "key", "result")):
        raise ValueError("missing record fields")
    if not isinstance(record["hash"], str) or len(record["hash"]) < 2:
        raise ValueError("record hash is not a hex string")
    if not isinstance(record["result"], dict) or any(
        f not in record["result"] for f in _RESULT_FIELDS
    ):
        raise ValueError("missing result fields")
    return record


def _summary_payload(summary: TrialSummary) -> dict[str, Any]:
    """JSON-safe form of a :class:`TrialSummary` (NaNs survive the
    round-trip via Python's JSON NaN extension)."""
    return {
        "values": [float(v) for v in np.asarray(summary.values).ravel()],
        "mean": float(summary.mean),
        "std": float(summary.std),
        "median": float(summary.median),
        "ci95_half_width": float(summary.ci95_half_width),
        "failures": int(summary.failures),
    }


def record_row(record: Mapping[str, Any]) -> dict[str, Any]:
    """Flatten a store record into one query row.

    Graph-builder arguments are prefixed ``g_`` (so a tree's ``k``
    never collides with cobra's ``k``); per-phase timings from the
    provenance ``phase_s`` dict become ``t_<phase>_s`` columns; process
    parameters keep their names; summary statistics and the remaining
    provenance (``engine``/``worker``/``peak_rss_mb``) ride
    along unprefixed.

    Parameters
    ----------
    record : Mapping
        A record as stored (``hash``/``key``/``result``/``provenance``).

    Returns
    -------
    dict
        The flat row :class:`Frame` exposes.
    """
    key = record["key"]
    result = record["result"]
    prov = record.get("provenance", {})
    row: dict[str, Any] = {
        "hash": record["hash"],
        "sweep": prov.get("sweep"),
        "process": key["process"],
        "metric": key["metric"],
        "graph": key["graph"]["builder"],
        "graph_name": prov.get("graph_name"),
        "graph_n": prov.get("graph_n"),
        "graph_kind": prov.get("graph_kind"),
        "target": key.get("target"),
        "trials": key["trials"],
        "max_steps": key.get("max_steps"),
        "seed_root": key["seed"]["root"],
        "seed_kind": key["seed"]["kind"],
        "engine": prov.get("engine"),
        "worker": prov.get("worker"),
        "wall_time_s": prov.get("wall_time_s"),
    }
    for name, value in prov.get("phase_s", {}).items():
        row[f"t_{name}_s"] = value
    if "peak_rss_mb" in prov:
        row["peak_rss_mb"] = prov["peak_rss_mb"]
    for name, value in key["graph"]["params"].items():
        row[f"g_{name}"] = value
    for name, value in key["params"].items():
        row[name] = value
    for name in _RESULT_FIELDS:
        row[name] = result[name]
    return row


@dataclass
class Frame:
    """A list of flat result rows with a tiny query vocabulary.

    Deliberately not a dataframe dependency: rows are plain dicts, and
    the methods cover what the experiments and CLI need — equality
    filters, sorting, column extraction, summary statistics, table
    rendering, and power-law fits.
    """

    rows: list[dict[str, Any]]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def filter(self, **where: Any) -> "Frame":
        """Rows whose columns equal every given value.

        Parameters
        ----------
        **where : Any
            Column-name → required value (missing column ≠ any value).

        Returns
        -------
        Frame
            The matching rows, in order.
        """
        sentinel = object()
        return Frame(
            [
                r
                for r in self.rows
                if all(r.get(k, sentinel) == v for k, v in where.items())
            ]
        )

    def sort_by(self, *columns: str) -> "Frame":
        """Rows sorted by the given columns (missing values first).

        Parameters
        ----------
        *columns : str
            Sort keys, applied left to right.

        Returns
        -------
        Frame
            A sorted copy.
        """

        def key(row: dict[str, Any]):
            return tuple(
                (row.get(c) is not None, row.get(c) if row.get(c) is not None else 0)
                for c in columns
            )

        return Frame(sorted(self.rows, key=key))

    def column(self, name: str) -> list[Any]:
        """One column as a list (``None`` where a row lacks it).

        Parameters
        ----------
        name : str
            Column name.

        Returns
        -------
        list
            The column values, in row order.
        """
        return [r.get(name) for r in self.rows]

    def groupby(self, *columns: str) -> list[tuple[Any, "Frame"]]:
        """Partition rows by the values of one or more columns.

        Groups appear in first-appearance order (the row order of the
        frame), so a frame sorted by the group column yields sorted
        groups.

        Parameters
        ----------
        *columns : str
            Columns to group on.  With one column the group key is the
            bare value; with several it is the tuple of values.
            Missing columns group under ``None``.

        Returns
        -------
        list of (key, Frame)
            One ``(group key, sub-frame)`` pair per distinct key.
        """
        if not columns:
            raise ValueError("groupby needs at least one column")
        groups: dict[Any, list[dict[str, Any]]] = {}
        for row in self.rows:
            key = (
                row.get(columns[0])
                if len(columns) == 1
                else tuple(row.get(c) for c in columns)
            )
            groups.setdefault(key, []).append(row)
        return [(key, Frame(rows)) for key, rows in groups.items()]

    def aggregate(
        self, by: str, column: str = "mean", agg: str = "mean"
    ) -> list[dict[str, Any]]:
        """Per-group reduction of one numeric column.

        Parameters
        ----------
        by : str
            Column to group on (see :meth:`groupby`).
        column : str
            Numeric column to reduce (default the per-cell ``"mean"``).
        agg : str
            Reduction: ``"mean"``, ``"median"``, ``"min"``, ``"max"``,
            ``"sum"``, ``"std"``, or ``"count"``.

        Returns
        -------
        list of dict
            One row per group: ``{by: key, agg: value, "rows": n}``.
        """
        funcs = {
            "mean": np.mean,
            "median": np.median,
            "min": np.min,
            "max": np.max,
            "sum": np.sum,
            "std": np.std,
            "count": len,
        }
        if agg not in funcs:
            raise ValueError(
                f"unknown aggregation {agg!r}; use one of {sorted(funcs)}"
            )
        out = []
        for key, sub in self.groupby(by):
            values = [v for v in sub.column(column) if v is not None]
            if agg == "count":
                value: Any = len(values)
            else:
                value = (
                    float(funcs[agg](np.asarray(values, dtype=np.float64)))
                    if values
                    else float("nan")
                )
            out.append({by: key, agg: value, "rows": len(sub)})
        return out

    def summarize(self, column: str = "mean") -> TrialSummary:
        """Summary statistics of a numeric column across rows.

        Parameters
        ----------
        column : str
            Column to aggregate (default the per-cell mean).

        Returns
        -------
        TrialSummary
            Via :func:`repro.analysis.stats.summarize` — one schema
            everywhere.
        """
        from ..analysis.stats import summarize

        values = [v for v in self.column(column) if v is not None]
        return summarize(np.asarray(values, dtype=np.float64))

    def to_table(self, columns: Sequence[str], *, title: str | None = None):
        """Render selected columns as an :class:`repro.analysis.Table`.

        Parameters
        ----------
        columns : sequence of str
            Column order of the table.
        title : str, optional
            Table title.

        Returns
        -------
        Table
            Ready to ``render()``.
        """
        from ..analysis.tables import Table

        return Table.from_rows(self.rows, columns, title=title)

    def fit_power_law(self, *, x: str, y: str = "mean"):
        """Least-squares power-law fit ``y ≈ c·x^a`` over the rows.

        Parameters
        ----------
        x : str
            Column with the size axis.
        y : str
            Column with the measured time (default ``"mean"``).

        Returns
        -------
        PowerLawFit
            Via :func:`repro.analysis.scaling.fit_power_law_rows`.
        """
        from ..analysis.scaling import fit_power_law_rows

        return fit_power_law_rows(self.rows, x=x, y=y)

    def columns(self) -> list[str]:
        """All column names, in first-appearance order across rows.

        Returns
        -------
        list of str
            The union of row keys (stable: row order, then key order
            within each row).
        """
        seen: dict[str, None] = {}
        for row in self.rows:
            for name in row:
                seen.setdefault(name)
        return list(seen)

    def payload(self) -> dict[str, Any]:
        """The canonical JSON-safe form of the frame.

        One schema for every serialized frame in the repo::

            {"schema": "repro.frame/1",
             "columns": [...],      # first-appearance order
             "rows": [{...}, ...]}  # plain dicts, row order preserved

        Returns
        -------
        dict
            What :meth:`to_json` serializes and :meth:`from_json`
            validates.
        """
        return {
            "schema": FRAME_SCHEMA,
            "columns": self.columns(),
            "rows": self.rows,
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """Serialize the frame to its canonical JSON document.

        NaNs (budget-exhausted cells, empty-sample statistics) survive
        via Python's JSON NaN extension — :meth:`from_json` reads them
        back as ``float('nan')``.

        Parameters
        ----------
        indent : int, optional
            Pretty-print indent (default: compact).

        Returns
        -------
        str
            The ``repro.frame/1`` document.
        """
        return json.dumps(self.payload(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Frame":
        """Rebuild a frame from :meth:`to_json` output.

        Parameters
        ----------
        text : str
            A ``repro.frame/1`` JSON document.

        Returns
        -------
        Frame
            Row-for-row equal to the frame that was serialized.

        Raises
        ------
        ValueError
            On malformed JSON, a wrong/missing schema tag, or rows
            that are not objects.
        """
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not a frame document: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("schema") != FRAME_SCHEMA:
            raise ValueError(
                f"expected a {FRAME_SCHEMA!r} document, got schema "
                f"{doc.get('schema') if isinstance(doc, dict) else None!r}"
            )
        rows = doc.get("rows")
        if not isinstance(rows, list) or any(
            not isinstance(r, dict) for r in rows
        ):
            raise ValueError("frame rows must be a list of objects")
        return cls(rows)


class ResultStore:
    """Content-addressed store of sweep-cell summaries.

    Parameters
    ----------
    root : str or Path or None
        Store directory (created on first write).  ``None`` keeps
        everything in memory — same API, no persistence — unless a
        *backend* is given.
    backend : StorageBackend, optional
        Explicit persistence seam (:mod:`repro.store.backend`).  A
        path *root* is shorthand for ``backend=LocalBackend(root)``;
        an object-store backend (``InMemoryCASBackend``,
        ``HTTPCASBackend``, …) makes the store durable with **no
        filesystem at all** — same records, same layout, same claim
        ledger.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        backend: StorageBackend | None = None,
    ) -> None:
        if root is not None and backend is not None:
            raise ValueError("pass root= or backend=, not both")
        self.backend = backend if backend is not None else resolve_backend(root)
        self.root = (
            self.backend.root if isinstance(self.backend, LocalBackend) else None
        )
        self._cache: dict[str, dict[str, Any]] = {}
        # hash -> (the record it was flattened from, its frame row)
        self._rows: dict[str, tuple[dict[str, Any], dict[str, Any]]] = {}
        self._loaded_shards: set[str] = set()
        # shard prefix -> ETag of the shard version last parsed
        self._shard_etags: dict[str, str] = {}
        # a slower parse of an older shard version must not land
        # after a newer one and claim its ETag
        self._load_lock = threading.Lock()
        self._all_loaded = self.backend is None
        self._meta_checked = False
        if self.backend is not None:
            blob = self.backend.read_blob("meta.json")
            if blob is not None:
                self._meta_checked = True
                try:
                    meta = json.loads(blob[0].decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    meta = {}
                version = meta.get("schema")
                if version not in (None, STORE_SCHEMA_VERSION):
                    warnings.warn(
                        f"store at {self.location} has schema {version!r}, "
                        f"this code writes {STORE_SCHEMA_VERSION}; old "
                        "records will simply never match new keys",
                        stacklevel=2,
                    )

    @property
    def location(self) -> str:
        """Human-readable description of where the store lives."""
        if self.root is not None:
            return str(self.root)
        if self.backend is not None:
            return f"{type(self.backend).__name__}"
        return "(memory)"

    # ------------------------------------------------------------------
    # shard plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _normalise(key_or_hash: RunKey | str) -> str:
        h = key_or_hash.hash if isinstance(key_or_hash, RunKey) else key_or_hash
        if not isinstance(h, str) or len(h) < 2:
            raise ValueError("expected a RunKey or a hex cell hash")
        return h

    @staticmethod
    def _shard_key(prefix: str) -> str:
        return f"shards/{prefix}.jsonl"

    def _load_shard(self, prefix: str) -> None:
        if self.backend is None:
            return
        with self._load_lock:
            if prefix in self._loaded_shards:
                return
            self._loaded_shards.add(prefix)
            blob = self.backend.read_blob(self._shard_key(prefix))
            # a changed version is re-parsed in full: last write wins
            if blob is None or self._shard_etags.get(prefix) == blob[1]:
                return
            bad = 0
            for line in blob[0].decode("utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = parse_record(line)
                except ValueError:
                    bad += 1
                    continue
                self._cache[record["hash"]] = record
            self._shard_etags[prefix] = blob[1]
        if bad:
            warnings.warn(
                f"store shard {self._shard_key(prefix)} had {bad} corrupt "
                "record(s); the affected cells will re-run",
                stacklevel=2,
            )

    def _load_all(self) -> None:
        if self._all_loaded:
            return
        self._all_loaded = True
        assert self.backend is not None
        for key in self.shard_keys():
            self._load_shard(key.rsplit("/", 1)[-1].removesuffix(".jsonl"))

    # ------------------------------------------------------------------
    # the store API
    # ------------------------------------------------------------------
    def has(self, key_or_hash: RunKey | str) -> bool:
        """Whether a valid record exists for the cell.

        Parameters
        ----------
        key_or_hash : RunKey or str
            The cell, by key or by content hash.

        Returns
        -------
        bool
            ``True`` on a cache hit.
        """
        return self.get(key_or_hash) is not None

    def get(self, key_or_hash: RunKey | str) -> dict[str, Any] | None:
        """Fetch the record for a cell, or ``None``.

        Parameters
        ----------
        key_or_hash : RunKey or str
            The cell, by key or by content hash.

        Returns
        -------
        dict or None
            The stored record.
        """
        h = self._normalise(key_or_hash)
        if h not in self._cache:
            self._load_shard(h[:2])
        return self._cache.get(h)

    def put(
        self,
        key: RunKey,
        summary: TrialSummary,
        provenance: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Record a cell's summary (appends one JSONL line on disk).

        Parameters
        ----------
        key : RunKey
            The cell that was run.
        summary : TrialSummary
            ``run_batch``'s output for the cell.
        provenance : Mapping, optional
            Anything worth keeping about *how* the cell ran (sweep
            name, engine, wall time, seed entropy…).

        Returns
        -------
        dict
            The record as stored.
        """
        record = {
            "hash": key.hash,
            "key": key.payload(),
            "result": _summary_payload(summary),
            "provenance": dict(provenance or {}),
        }
        if self.backend is not None:
            self._ensure_meta()
            # merge-safe append: one whole record per backend append, so
            # any number of worker processes can commit concurrently
            self.backend.append_line(
                self._shard_key(key.hash[:2]), json.dumps(record, sort_keys=True)
            )
        self._cache[key.hash] = record
        return record

    def _ensure_meta(self) -> None:
        """Create ``meta.json`` exactly once, racing writers tolerated.

        Checked once per store object: the flag is set only once the
        blob has been read back or created.
        """
        assert self.backend is not None
        if self._meta_checked:
            return
        if self.backend.read_blob("meta.json") is not None:
            self._meta_checked = True
            return
        payload = (canonical_json({"schema": STORE_SCHEMA_VERSION}) + "\n").encode()
        # create-only CAS: a racing worker's conflict writes the same
        # bytes, so losing the race is success (the next put re-reads)
        if self.backend.compare_and_swap("meta.json", payload, None) is not None:
            self._meta_checked = True

    def refresh(self) -> None:
        """Let later lookups see records appended by other processes.

        Drops the shard-was-loaded bookkeeping so the next *miss*
        re-reads its shard through the backend.  Cached records are
        kept (no committed cell ever leaves the store), but a duplicate
        appended later can rebind a hash to new provenance (last write
        wins), so a re-read shard whose ETag moved is re-parsed in
        full; one whose ETag is unchanged is not parsed at all.  A
        refresh costs one read per shard a later miss touches.
        Refreshing and looking up every pending cell on each claim
        round would cost a drain O(cells²) shard reads, so
        :func:`repro.store.dispatch.drain` refreshes only before the
        lookups it must redo.  A no-op for memory-only stores (there
        is nothing to re-read).
        """
        if self.backend is None:
            return
        self._loaded_shards.clear()
        self._all_loaded = False

    def shard_keys(self) -> list[str]:
        """Existing shard blob keys, sorted (``[]`` for memory stores).

        Returns
        -------
        list of str
            One ``shards/<prefix>.jsonl`` key per non-empty shard —
            the raw material of ``sweep fsck`` and ``sweep compact``,
            over any backend.
        """
        if self.backend is None:
            return []
        return [
            key
            for key in self.backend.list_prefix("shards/")
            if key.endswith(".jsonl")
        ]

    def shard_paths(self) -> list[Path]:
        """Existing shard files, sorted by name (``[]`` off-filesystem).

        Returns
        -------
        list of Path
            One path per ``shards/*.jsonl`` file — kept for
            filesystem-side tooling; backend-agnostic code should use
            :meth:`shard_keys`.
        """
        if self.root is None:
            return []
        shard_dir = self.root / "shards"
        if not shard_dir.is_dir():
            return []
        return sorted(shard_dir.glob("*.jsonl"))

    def __len__(self) -> int:
        self._load_all()
        return len(self._cache)

    def hashes(self) -> list[str]:
        """All stored cell hashes (loads every shard).

        Returns
        -------
        list of str
            Sorted hex hashes.
        """
        self._load_all()
        return sorted(self._cache)

    def frame(self, **where: Any) -> Frame:
        """All records as a :class:`Frame`, optionally pre-filtered.

        Parameters
        ----------
        **where : Any
            Equality filters applied to the flattened rows (e.g.
            ``store.frame(process="cobra", g_d=2)``).

        Returns
        -------
        Frame
            One row per stored record.  Rows are memoised per record
            and handed out as shallow copies, so a caller that edits a
            row does not change the next frame.
        """
        self._load_all()
        rows = []
        for h, record in sorted(self._cache.items()):
            memo = self._rows.get(h)
            if memo is None or memo[0] is not record:  # put or re-parse
                memo = self._rows[h] = (record, record_row(record))
            rows.append(dict(memo[1]))
        frame = Frame(rows)
        return frame.filter(**where) if where else frame

    def summary(self, key_or_hash: RunKey | str) -> TrialSummary | None:
        """Rehydrate a cell's :class:`TrialSummary` from its record.

        Parameters
        ----------
        key_or_hash : RunKey or str
            The cell, by key or by content hash.

        Returns
        -------
        TrialSummary or None
            Rebuilt from the stored trial values (identical statistics
            to the original summary), or ``None`` on a miss.
        """
        record = self.get(key_or_hash)
        if record is None:
            return None
        from ..sim.montecarlo import summarize_trials

        return summarize_trials(
            np.asarray(record["result"]["values"], dtype=np.float64)
        )
