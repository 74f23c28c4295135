"""HTTP facade — routes, JSON shapes, warm-store runs, status and errors."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.artifacts.result import ExperimentResult
from repro.campaign.store import ResultStore
from repro.service.http import ArtifactService, make_server
from repro.service.queue import WorkQueue


@pytest.fixture()
def server(tmp_path):
    """A live facade on an ephemeral port, serving ``tmp_path``."""
    srv = make_server(
        "127.0.0.1", 0, str(tmp_path / "facade.db"), root=tmp_path
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


def request(srv, method: str, path: str, body=None):
    host, port = srv.server_address[:2]
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestReadRoutes:
    def test_healthz(self, server):
        status, payload = request(server, "GET", "/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert payload["store"].startswith("sqlite:///")

    def test_artifact_listing(self, server):
        status, payload = request(server, "GET", "/artifacts")
        assert status == 200
        ids = [a["id"] for a in payload["artifacts"]]
        assert payload["count"] == len(ids)
        assert "fig05" in ids and "table1" in ids
        for entry in payload["artifacts"]:
            assert set(entry) == {"id", "title", "section", "regime"}

    def test_describe(self, server):
        status, payload = request(server, "GET", "/artifacts/fig05")
        assert status == 200
        assert payload["id"] == "fig05"
        assert payload["section"].endswith("Fig 5")
        assert payload["default_seeds"] == [0]

    def test_describe_unknown_404(self, server):
        status, payload = request(server, "GET", "/artifacts/nope")
        assert status == 404
        assert "unknown artifact" in payload["error"]

    def test_unknown_route_404(self, server):
        status, payload = request(server, "GET", "/frobnicate")
        assert status == 404

    def test_wrong_verb_405(self, server):
        status, payload = request(server, "POST", "/artifacts")
        assert status == 405


class TestWire:
    def test_every_reply_is_one_write(self, server, monkeypatch):
        # a header write followed by a body write stalls each keep-alive
        # reply by the client's delayed-ACK timer (Nagle holds the body):
        # every route must emit head + body as a single segment
        writes = []

        class CountingWriter:
            def __init__(self, raw):
                self.raw = raw

            def write(self, data):
                writes.append(bytes(data))
                return self.raw.write(data)

            def __getattr__(self, name):
                return getattr(self.raw, name)

        handler = server.RequestHandlerClass
        original_setup = handler.setup

        def setup(self):
            original_setup(self)
            self.wfile = CountingWriter(self.wfile)

        monkeypatch.setattr(handler, "setup", setup)
        conn = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
        try:
            for method, path, expect in (
                ("GET", "/healthz", 200),
                ("GET", "/artifacts", 200),
                ("GET", "/artifacts/nope", 404),
                ("POST", "/artifacts", 405),
            ):
                conn.request(method, path)
                resp = conn.getresponse()
                body = resp.read()
                assert resp.status == expect
                assert writes[-1].endswith(body) and body
        finally:
            conn.close()
        assert len(writes) == 4  # one per reply, on one keep-alive connection
        assert all(w.startswith(b"HTTP/1.1 ") and b"\r\n\r\n{" in w for w in writes)

    def test_http09_request_line_gets_the_bare_body(self, server):
        # no version on the request line: the reply has no status line and
        # no headers, just the body, and the connection closes
        with socket.create_connection(server.server_address[:2], timeout=30) as s:
            s.sendall(b"GET /healthz\r\n\r\n")
            reply = b""
            while chunk := s.recv(4096):
                reply += chunk
        assert reply.startswith(b"{") and json.loads(reply)["ok"] is True


class TestRunRoute:
    def test_run_then_warm_rerun_executes_zero(self, server):
        body = {"scale": 0.15}
        status, first = request(
            server, "POST", "/artifacts/fig05/run", body
        )
        assert status == 200
        assert first["exp_id"] == "fig05"
        assert first["headers"][0] == "Reach% bin"
        assert first["rows"]
        assert first["meta"]["executed"] == first["meta"]["total_cells"] > 0

        status, again = request(
            server, "POST", "/artifacts/fig05/run", body
        )
        assert status == 200
        # the acceptance criterion: a warm store reduces without
        # executing a single cell
        assert again["meta"]["executed"] == 0
        assert again["meta"]["cached"] == first["meta"]["total_cells"]
        assert again["rows"] == first["rows"]

    def test_run_unknown_option_400(self, server):
        status, payload = request(
            server, "POST", "/artifacts/fig05/run", {"bogus": 1}
        )
        assert status == 400
        assert "unknown run option" in payload["error"]

    @pytest.mark.parametrize(
        "body", [{"seeds": 3}, {"seeds": "01"}, {"seed": 1.5}, {"seeds": [0, 1.5]}]
    )
    def test_run_bad_seeds_400(self, server, body):
        status, payload = request(server, "POST", "/artifacts/table1/run", body)
        assert status == 400
        assert "seed" in payload["error"]

    @pytest.mark.parametrize(
        "body, word",
        [
            ({"scale": 0.12, "resume": "false"}, "resume"),
            ({"scale": 0.12, "resume": 0}, "resume"),
            ({"scale": True}, "scale"),
            ({"scale": [1]}, "scale"),
        ],
    )
    def test_run_mistyped_resume_or_scale_400(self, server, body, word):
        status, payload = request(server, "POST", "/artifacts/table1/run", body)
        assert status == 400
        assert word in payload["error"]

    def test_run_body_cannot_pick_workers(self, server):
        status, payload = request(
            server, "POST", "/artifacts/fig05/run", {"scale": 0.15, "workers": 64}
        )
        assert status == 400
        assert "unknown run option" in payload["error"]

    def test_run_uses_the_server_worker_count(self, tmp_path, monkeypatch):
        calls = []

        def fake_run(exp_id, **kwargs):
            calls.append(kwargs)
            return ExperimentResult(exp_id=exp_id, title="t", headers=[], rows=[])

        monkeypatch.setattr(api, "run", fake_run)
        service = ArtifactService(None, root=tmp_path, workers=2)
        service.run("fig05", {"scale": 0.15})
        assert [c["workers"] for c in calls] == [2]

    def test_run_unknown_artifact_404(self, server):
        status, payload = request(server, "POST", "/artifacts/nope/run", {})
        assert status == 404

    def test_run_malformed_body_400(self, server):
        host, port = server.server_address[:2]
        req = urllib.request.Request(
            f"http://{host}:{port}/artifacts/fig05/run",
            data=b"not json", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    @pytest.mark.parametrize(
        "length, code", [("-1", 400), ("nope", 400), ("2000000", 413)]
    )
    def test_run_bad_content_length_rejected_unread(self, server, length, code):
        """Headers only, on a keep-alive connection: the handler must
        answer without waiting for (or buffering) a body, then hang up."""
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.request(
                "POST", "/artifacts/fig05/run",
                headers={"Content-Length": length},
            )
            resp = conn.getresponse()
            assert resp.status == code
            assert resp.getheader("Connection") == "close"
            assert "error" in json.loads(resp.read().decode())
        finally:
            conn.close()


class TestCampaignStatusRoute:
    def test_queue_status(self, server, tmp_path):
        queue = WorkQueue(tmp_path / "camp.queue.db", ttl=12.0)
        queue.enqueue([("k0", {}), ("k1", {})])
        queue.lease("w1")
        status, payload = request(
            server, "GET", "/campaigns/camp.queue.db/status"
        )
        assert status == 200
        assert payload["kind"] == "queue"
        assert payload["pending"] == 1 and payload["leased"] == 1
        assert payload["leases"][0]["owner"] == "w1"

    def test_store_status(self, server, tmp_path):
        store = ResultStore(tmp_path / "camp.jsonl")
        store.append("k", {"seed": 0}, {"m": 1})
        status, payload = request(
            server, "GET", "/campaigns/camp.jsonl/status"
        )
        assert status == 200
        assert payload["kind"] == "store"
        assert payload["records"] == 1 and payload["bytes"] > 0

    def test_missing_campaign_404(self, server):
        status, payload = request(
            server, "GET", "/campaigns/ghost.jsonl/status"
        )
        assert status == 404

    def test_traversal_rejected(self, server):
        # %2e%2e dodges client-side path normalisation
        status, payload = request(
            server, "GET", "/campaigns/%2e%2e/secrets.jsonl/status"
        )
        assert status in (403, 404)
