"""``SweepService`` route semantics and the live HTTP wiring.

The service is transport-free by design — ``handle()`` returns
``(status, headers, body)`` — so most of this file exercises exact
request semantics without sockets: cell lookups with hash-as-ETag
revalidation, canonical ``repro.frame/1`` frame queries, and the
conditional blob seam ``HTTPCASBackend`` speaks.  One class boots a
real ``make_server()`` and re-proves the core flows over loopback.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.store import (
    Campaign,
    FRAME_SCHEMA,
    Frame,
    HTTPCASBackend,
    InMemoryCASBackend,
    LocalBackend,
    ResultStore,
    SeedPolicy,
    SweepSpec,
    drain,
)
from repro.store.service import SweepService, make_server


def _spec(**over):
    base = dict(
        name="serve",
        process="cobra",
        graph="grid",
        graph_grid={"n": [6, 8], "d": [2]},
        params_grid={"k": [1, 2]},
        trials=3,
        seed=SeedPolicy(root=5),
    )
    base.update(over)
    return SweepSpec(**base)


@pytest.fixture(scope="module")
def served():
    """A drained in-memory store and its service, shared read-only."""
    store = ResultStore(backend=InMemoryCASBackend())
    spec = _spec()
    drain(spec, store, owner="w0")
    return SweepService(store), store, spec


class TestConstruction:
    def test_memory_only_store_is_rejected(self):
        with pytest.raises(ValueError, match="backend-backed"):
            SweepService(ResultStore())

    def test_handler_disables_nagle(self):
        server = make_server(ResultStore(backend=InMemoryCASBackend()))
        server.server_close()
        assert server.RequestHandlerClass.disable_nagle_algorithm is True


class TestHealth:
    def test_health(self, served):
        service, store, _ = served
        status, headers, body = service.handle("GET", "/health")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok" and doc["store"] == store.location


class TestCellRoute:
    def test_lookup_by_hash_with_strong_etag(self, served):
        service, store, spec = served
        cell = spec.expand()[0]
        status, headers, body = service.handle("GET", f"/cell/{cell.hash}")
        assert status == 200
        assert headers["ETag"] == f'"{cell.hash}"'
        assert json.loads(body) == store.get(cell)

    def test_revalidation_is_304_with_empty_body(self, served):
        service, _, spec = served
        h = spec.expand()[0].hash
        status, headers, body = service.handle(
            "GET", f"/cell/{h}", headers={"If-None-Match": f'"{h}"'}
        )
        assert status == 304 and body == b""
        assert headers["ETag"] == f'"{h}"'

    def test_unknown_hash_is_404(self, served):
        service, _, _ = served
        status, _, body = service.handle("GET", "/cell/" + "0" * 64)
        assert status == 404
        assert "no record" in json.loads(body)["error"]

    def test_short_hash_is_400(self, served):
        service, _, _ = served
        status, _, _ = service.handle("GET", "/cell/a")
        assert status == 400


class TestFrameRoute:
    def test_filter_matches_local_frame(self, served):
        service, store, _ = served
        status, headers, body = service.handle("GET", "/frame?g_n=6")
        assert status == 200
        frame = Frame.from_json(body.decode("utf-8"))
        local = store.frame(g_n=6)
        assert len(frame) == len(local) == 2
        assert frame.payload()["schema"] == FRAME_SCHEMA
        assert set(frame.column("hash")) == set(local.column("hash"))

    def test_groupby_aggregate_matches_local(self, served):
        service, store, _ = served
        status, _, body = service.handle(
            "GET", "/frame?process=%22cobra%22&groupby=g_n&aggregate=mean"
        )
        assert status == 200
        remote = Frame.from_json(body.decode("utf-8"))
        local = Frame(
            store.frame(process="cobra").aggregate("g_n", column="mean")
        )
        assert remote.rows == local.rows

    def test_etag_revalidation_304(self, served):
        service, _, _ = served
        _, headers, _ = service.handle("GET", "/frame?groupby=g_n")
        etag = headers["ETag"]
        status, again, body = service.handle(
            "GET", "/frame?groupby=g_n", headers={"If-None-Match": etag}
        )
        assert status == 304 and body == b""
        assert again["ETag"] == etag

    def test_etag_moves_when_the_store_grows(self):
        spec = _spec()
        store = ResultStore(backend=InMemoryCASBackend())
        service = SweepService(store)
        drain(spec, store, owner="w0", max_cells=2)
        _, first, _ = service.handle("GET", "/frame")
        drain(spec, store, owner="w0")
        status, second, _ = service.handle(
            "GET", "/frame", headers={"If-None-Match": first["ETag"]}
        )
        assert status == 200  # stale validator: full body again
        assert second["ETag"] != first["ETag"]

    def test_old_etag_after_another_writer_commits(self, tmp_path):
        backend = LocalBackend(tmp_path / "s")
        reader, writer = ResultStore(backend=backend), ResultStore(backend=backend)
        service = SweepService(reader)
        spec = _spec()
        drain(spec, writer, owner="w0", max_cells=2)
        _, first, body = service.handle("GET", "/frame")
        assert len(Frame.from_json(body.decode("utf-8"))) == 2
        drain(spec, writer, owner="w0")
        status, second, body = service.handle(
            "GET", "/frame", headers={"If-None-Match": first["ETag"]}
        )
        assert status == 200
        assert second["ETag"] != first["ETag"]
        assert len(Frame.from_json(body.decode("utf-8"))) == 4

    def test_duplicate_parameter_is_400(self, served):
        service, _, _ = served
        status, _, body = service.handle("GET", "/frame?g_n=6&g_n=8")
        assert status == 400
        assert "duplicate" in json.loads(body)["error"]

    def test_bad_aggregate_is_400(self, served):
        service, _, _ = served
        status, _, _ = service.handle(
            "GET", "/frame?groupby=g_n&aggregate=warp"
        )
        assert status == 400


class TestBlobRoutes:
    @pytest.fixture()
    def service(self):
        return SweepService(ResultStore(backend=InMemoryCASBackend()))

    def test_put_needs_a_precondition(self, service):
        status, _, body = service.handle("PUT", "/blob/claims.jsonl", body=b"x")
        assert status == 428
        assert "If-Match" in json.loads(body)["error"]

    def test_create_get_swap_cycle(self, service):
        status, headers, _ = service.handle(
            "PUT", "/blob/meta.json", body=b'{"v": 1}',
            headers={"If-None-Match": "*"},
        )
        assert status == 200
        etag = headers["ETag"]
        status, headers, body = service.handle("GET", "/blob/meta.json")
        assert status == 200 and body == b'{"v": 1}' and headers["ETag"] == etag
        status, _, _ = service.handle(
            "PUT", "/blob/meta.json", body=b'{"v": 2}',
            headers={"If-Match": etag},
        )
        assert status == 200

    def test_stale_if_match_is_412(self, service):
        _, headers, _ = service.handle(
            "PUT", "/blob/meta.json", body=b"old",
            headers={"If-None-Match": "*"},
        )
        service.handle(
            "PUT", "/blob/meta.json", body=b"mid",
            headers={"If-Match": headers["ETag"]},
        )
        status, _, _ = service.handle(
            "PUT", "/blob/meta.json", body=b"new",
            headers={"If-Match": headers["ETag"]},
        )
        assert status == 412

    def test_blob_list_by_prefix(self, service):
        for key in ("shards/00.jsonl", "shards/ff.jsonl", "claims.jsonl"):
            service.handle(
                "PUT", f"/blob/{key}", body=b"x\n",
                headers={"If-None-Match": "*"},
            )
        status, _, body = service.handle("GET", "/blobs?prefix=shards/")
        assert status == 200
        assert json.loads(body) == ["shards/00.jsonl", "shards/ff.jsonl"]

    def test_unknown_route_and_method(self, service):
        assert service.handle("GET", "/nope")[0] == 404
        assert service.handle("PUT", "/frame")[0] == 405


class TestSpans:
    def test_requests_emit_http_spans(self):
        from repro.obs import load_events, tracer_for_store

        backend = InMemoryCASBackend()
        store = ResultStore(backend=backend)
        service = SweepService(
            store, tracer=tracer_for_store(backend, worker="srv")
        )
        service.handle("GET", "/health")
        events = load_events(backend)
        spans = [row for row in events.rows if row.get("kind") == "http"]
        assert len(spans) == 1
        assert spans[0]["route"] == "/health"

    def test_frame_span_carries_its_cost(self):
        from repro.obs import load_events, tracer_for_store

        backend = InMemoryCASBackend()
        store = ResultStore(backend=backend)
        drain(_spec(), store, owner="w0")
        service = SweepService(
            store, tracer=tracer_for_store(backend, worker="srv")
        )
        _, _, body = service.handle("GET", "/frame?g_n=6")
        (span,) = [
            row for row in load_events(backend).rows
            if row.get("route") == "/frame"
        ]
        assert span["rows"] == 2
        assert span["rows_scanned"] == 4
        assert span["bytes_hashed"] == len(body)


class TestLiveServer:
    """The socket wiring: a real ThreadingHTTPServer over loopback."""

    @pytest.fixture()
    def live(self):
        store = ResultStore(backend=InMemoryCASBackend())
        server = make_server(store)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        yield f"http://{host}:{port}", store
        server.shutdown()
        server.server_close()
        thread.join()

    def test_http_cas_backend_drains_through_the_server(self, live):
        url, store = live
        spec = _spec()
        reference = ResultStore()
        Campaign(spec, reference).run()

        remote = ResultStore(backend=HTTPCASBackend(url))
        report = drain(spec, remote, owner="remote-w")
        assert report.complete and len(report.ran) == 4
        store.refresh()
        for cell in spec.expand():
            assert (
                store.get(cell)["result"] == reference.get(cell)["result"]
            ), "an HTTP-drained cell diverged from Campaign.run()"

    def test_frame_query_and_304_over_http(self, live):
        url, store = live
        drain(_spec(), ResultStore(backend=HTTPCASBackend(url)), owner="w")
        with urllib.request.urlopen(f"{url}/frame?groupby=g_n") as resp:
            assert resp.status == 200
            etag = resp.headers["ETag"]
            frame = Frame.from_json(resp.read().decode("utf-8"))
        assert len(frame) == 2
        req = urllib.request.Request(
            f"{url}/frame?groupby=g_n", headers={"If-None-Match": etag}
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req)
        assert exc.value.code == 304
