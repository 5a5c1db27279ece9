"""The ``sweep serve`` HTTP front end: point lookups, frames, blobs.

A stdlib :mod:`http.server` wrapper around one
:class:`~repro.store.store.ResultStore` that turns the store's three
read vocabularies into cacheable HTTP — plus the write seam remote
workers coordinate through:

* ``GET /cell/<hash>`` — one stored record by its content hash.  The
  hash **is** the cache key: a record is immutable by construction
  (content-addressed, last-write-wins duplicates carry identical
  values), so the response ETag is the hash itself and
  ``If-None-Match`` revalidation is a free 304 forever.
* ``GET /frame?<col>=<val>&…&groupby=&aggregate=&column=`` — the
  store's :meth:`~repro.store.store.Frame` query vocabulary
  (equality ``filter``, ``groupby``+``aggregate`` reductions) straight
  off the shards, serialized in the one canonical ``repro.frame/1``
  schema (:meth:`Frame.to_json`).  Frames are *not* immutable while a
  campaign drains, so their ETag is a digest of the response body —
  still a strong validator: equal tag ⇔ byte-identical frame.
* ``GET /blob/<key>`` / ``PUT /blob/<key>`` (with ``If-Match`` /
  ``If-None-Match: *``) / ``GET /blobs?prefix=`` — the raw
  :class:`~repro.store.backend.StorageBackend` seam over HTTP.  This
  is what :class:`~repro.store.backend.HTTPCASBackend` speaks: a
  ``sweep work --store http://host:port`` worker drains a campaign
  through these three routes with **no shared filesystem**, every
  ledger claim one conditional put against the server's backend.
* ``GET /health`` — liveness + where the store lives.

Every request is instrumented through :mod:`repro.obs` spans when the
service carries a tracer (``sweep serve --trace``): one ``kind="http"``
span per request, annotated with route and status (``/frame`` also
with ``rows_scanned``, the store rows before filtering, and
``bytes_hashed``, the body length behind its ETag).  See
``docs/service.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any

from .backend import BackendError
from .store import Frame, ResultStore

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..obs.trace import Tracer

__all__ = ["SweepService", "make_server"]

#: query parameters of ``/frame`` that are operators, not filters
_FRAME_RESERVED = ("groupby", "aggregate", "column")


def _coerce(text: str) -> Any:
    """A query-string value as the JSON type the rows carry.

    ``?g_n=16`` must match the stored integer 16, so values parse as
    JSON first (numbers, booleans, null) and fall back to the raw
    string.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


class SweepService:
    """Route handlers over one store — transport-free, directly testable.

    Every handler returns ``(status, headers, body)``; the HTTP layer
    (:func:`make_server`) is a thin adapter, so tests exercise the
    exact request semantics without sockets.

    Parameters
    ----------
    store : ResultStore
        The store to serve; must be backend-backed (``sweep serve``
        refuses memory-only stores — there would be nothing shared to
        serve).
    tracer : Tracer, optional
        :mod:`repro.obs` tracer; when set, every request runs inside a
        ``kind="http"`` span annotated with route and status.
    """

    def __init__(
        self, store: ResultStore, *, tracer: "Tracer | None" = None
    ) -> None:
        if store.backend is None:
            raise ValueError("sweep serve needs a disk-backed or backend-backed store")
        self.store = store
        self.tracer = tracer

    # -- plumbing -------------------------------------------------------
    def _span(self, route: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("serve", kind="http", route=route)

    def _annotate(self, **attrs: Any) -> None:
        if self.tracer is not None:
            with contextlib.suppress(RuntimeError):
                self.tracer.annotate(**attrs)

    @staticmethod
    def _json_response(
        status: int, payload: Any, *, etag: str | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if etag is not None:
            headers["ETag"] = f'"{etag}"'
        return status, headers, body

    @staticmethod
    def _error(status: int, message: str) -> tuple[int, dict[str, str], bytes]:
        return SweepService._json_response(status, {"error": message})

    @staticmethod
    def _revalidates(if_none_match: str | None, etag: str) -> bool:
        """Whether an ``If-None-Match`` header matches the strong ETag."""
        if if_none_match is None:
            return False
        candidates = [tag.strip() for tag in if_none_match.split(",")]
        return "*" in candidates or f'"{etag}"' in candidates or etag in candidates

    # -- routes ---------------------------------------------------------
    def health(self) -> tuple[int, dict[str, str], bytes]:
        """``GET /health`` — liveness and store identity."""
        with self._span("/health"):
            return self._json_response(
                200, {"status": "ok", "store": self.store.location}
            )

    def cell(
        self, h: str, *, if_none_match: str | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        """``GET /cell/<hash>`` — one record, ETag = the content hash."""
        with self._span("/cell"):
            if len(h) < 2:
                return self._error(400, "cell hash must be at least 2 hex chars")
            if self._revalidates(if_none_match, h):
                # content-addressed ⇒ the record behind a hash can never
                # change: revalidation needs no store read at all
                self._annotate(status=304)
                return 304, {"ETag": f'"{h}"'}, b""
            self.store.refresh()
            record = self.store.get(h)
            if record is None:
                self._annotate(status=404)
                return self._error(404, f"no record for cell {h}")
            self._annotate(status=200)
            return self._json_response(200, record, etag=h)

    def frame(
        self, query: str, *, if_none_match: str | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        """``GET /frame?...`` — filter/groupby/aggregate off the shards."""
        with self._span("/frame"):
            params = urllib.parse.parse_qs(query, keep_blank_values=True)
            for name, values in params.items():
                if len(values) > 1:
                    return self._error(400, f"duplicate query parameter {name!r}")
            flat = {name: values[0] for name, values in params.items()}
            groupby = flat.pop("groupby", None)
            aggregate = flat.pop("aggregate", "mean")
            column = flat.pop("column", "mean")
            filters = {name: _coerce(value) for name, value in flat.items()}
            self.store.refresh()
            frame = self.store.frame(**filters)
            if groupby is not None:
                try:
                    frame = Frame(
                        frame.aggregate(groupby, column=column, agg=aggregate)
                    )
                except ValueError as exc:
                    return self._error(400, str(exc))
            body = frame.to_json().encode("utf-8")
            etag = hashlib.sha256(body).hexdigest()
            self._annotate(
                rows=len(frame),
                rows_scanned=len(self.store),
                bytes_hashed=len(body),
            )
            if self._revalidates(if_none_match, etag):
                self._annotate(status=304)
                return 304, {"ETag": f'"{etag}"'}, b""
            self._annotate(status=200)
            return (
                200,
                {"Content-Type": "application/json", "ETag": f'"{etag}"'},
                body,
            )

    def blob_get(self, key: str) -> tuple[int, dict[str, str], bytes]:
        """``GET /blob/<key>`` — raw bytes + ETag off the backend."""
        with self._span("/blob"):
            try:
                blob = self.store.backend.read_blob(key)
            except BackendError as exc:
                return self._error(400, str(exc))
            if blob is None:
                return self._error(404, f"no blob {key!r}")
            data, etag = blob
            return (
                200,
                {
                    "Content-Type": "application/octet-stream",
                    "ETag": f'"{etag}"',
                },
                data,
            )

    def blob_put(
        self,
        key: str,
        data: bytes,
        *,
        if_match: str | None = None,
        if_none_match: str | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """``PUT /blob/<key>`` — one conditional put through the seam."""
        with self._span("/blob"):
            if if_none_match is None and if_match is None:
                return self._error(
                    428, "PUT /blob needs If-Match or If-None-Match: *"
                )
            etag = None if if_none_match is not None else if_match.strip('"')
            try:
                new_etag = self.store.backend.compare_and_swap(key, data, etag)
            except BackendError as exc:
                return self._error(400, str(exc))
            if new_etag is None:
                self._annotate(status=412)
                return self._error(412, "precondition failed")
            return 200, {"ETag": f'"{new_etag}"'}, b""

    def blob_list(self, query: str) -> tuple[int, dict[str, str], bytes]:
        """``GET /blobs?prefix=`` — existing keys under a prefix."""
        with self._span("/blobs"):
            params = urllib.parse.parse_qs(query, keep_blank_values=True)
            prefix = params.get("prefix", [""])[0]
            return self._json_response(
                200, self.store.backend.list_prefix(prefix)
            )

    # -- dispatch -------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        *,
        body: bytes = b"",
        headers: "dict[str, str] | None" = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """Route one request (the HTTP adapter and the tests call this).

        Parameters
        ----------
        method : str
            ``"GET"`` or ``"PUT"``.
        path : str
            Request target including the query string.
        body : bytes
            Request body (PUT only).
        headers : dict, optional
            Request headers; only the conditional headers are read.

        Returns
        -------
        (int, dict, bytes)
            Status, response headers, response body.
        """
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        parsed = urllib.parse.urlsplit(path)
        route = urllib.parse.unquote(parsed.path)
        inm = headers.get("if-none-match")
        if method == "GET":
            if route == "/health":
                return self.health()
            if route.startswith("/cell/"):
                return self.cell(
                    route[len("/cell/"):], if_none_match=inm
                )
            if route == "/frame":
                return self.frame(parsed.query, if_none_match=inm)
            if route.startswith("/blob/"):
                return self.blob_get(route[len("/blob/"):])
            if route == "/blobs":
                return self.blob_list(parsed.query)
        elif method == "PUT":
            if route.startswith("/blob/"):
                return self.blob_put(
                    route[len("/blob/"):],
                    body,
                    if_match=headers.get("if-match"),
                    if_none_match=inm,
                )
            return self._error(405, f"cannot PUT {route}")
        return self._error(404, f"no route {method} {route}")


class _Handler(BaseHTTPRequestHandler):
    """The socket-facing shim: parse, delegate to the service, reply."""

    service: SweepService  # set by make_server's subclass
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: headers and body go out in two sends, and Nagle would
    # hold the body until the client's delayed ACK (~40 ms per response)
    disable_nagle_algorithm = True

    def _dispatch(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        status, headers, payload = self.service.handle(
            method, self.path, body=body, headers=dict(self.headers)
        )
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if payload:
            self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_PUT(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("PUT")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence the default stderr access log (spans carry telemetry)."""


def make_server(
    store: ResultStore,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    tracer: "Tracer | None" = None,
) -> ThreadingHTTPServer:
    """Build a ready-to-run threaded HTTP server over *store*.

    Parameters
    ----------
    store : ResultStore
        The store to serve (backend-backed).
    host : str
        Bind address (default loopback).
    port : int
        Bind port; 0 picks a free one — read it back from
        ``server.server_address``.
    tracer : Tracer, optional
        Request instrumentation (see :class:`SweepService`).

    Returns
    -------
    ThreadingHTTPServer
        Call ``serve_forever()`` (and ``shutdown()`` from another
        thread or a signal handler to stop).
    """
    service = SweepService(store, tracer=tracer)

    class Handler(_Handler):
        pass

    Handler.service = service
    return ThreadingHTTPServer((host, port), Handler)
