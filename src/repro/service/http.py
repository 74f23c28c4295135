"""Stdlib-only HTTP facade over the artifact registry and stores.

A thin, read-mostly serving layer for warm campaign stores: list the
artifacts the registry can regenerate, describe one, *run* one against
the shared store (a warm store reduces straight to the table without
executing a single cell — the response's ``meta.executed`` says so),
and report live queue/store status for a running campaign.

Built on :mod:`http.server` (``ThreadingHTTPServer``) so the facade
adds zero dependencies; write traffic (``POST .../run``) is serialised
through one lock because :func:`repro.api.run` may execute cells
in-process.  The JSON response of a run is shaped exactly like
``python -m repro.campaign report --format json`` (``exp_id`` /
``title`` / ``headers`` / ``rows`` / ``notes``) plus a ``meta`` block
with the campaign counters, so CLI and HTTP consumers share parsers.

Routes::

    GET  /healthz                      liveness + store identity
    GET  /artifacts                    registry listing
    GET  /artifacts/<id>               one artifact's metadata
    POST /artifacts/<id>/run           run/reduce against the store
    GET  /campaigns/<name>/status      queue or store status by file
"""

from __future__ import annotations

import io
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro import api
from repro.campaign.store import CellStore, StoreLike, open_store
from repro.service.queue import WorkQueue

__all__ = ["ArtifactService", "make_server"]

#: Options a run request may pass through to :func:`repro.api.run`.
#: ``store`` is deliberately absent — the service owns its store — and
#: ``workers`` and ``telemetry`` stay server-side decisions, so no
#: request picks how many processes the server forks.
_RUN_OPTIONS = ("scale", "seed", "seeds", "resume")


class ArtifactService:
    """The handler-independent core: store, registry access, status.

    One instance is shared by every request thread; mutation (running a
    campaign) is serialised by ``_run_lock`` while reads go lock-free
    (both store backends tolerate concurrent readers).
    """

    def __init__(
        self,
        store: StoreLike = None,
        *,
        root: Union[None, str, Path] = None,
        workers: int = 1,
    ) -> None:
        self.store: CellStore = open_store(store)
        self.root = Path(root).resolve() if root is not None else Path.cwd().resolve()
        self.workers = int(workers)
        self._run_lock = threading.Lock()

    # -- registry ------------------------------------------------------
    def list_artifacts(self) -> Dict[str, object]:
        rows = []
        for exp_id in api.list_artifacts():
            artifact = api.describe(exp_id)
            rows.append(
                {
                    "id": artifact.id,
                    "title": artifact.title,
                    "section": artifact.section,
                    "regime": artifact.regime,
                }
            )
        return {"artifacts": rows, "count": len(rows)}

    def describe(self, exp_id: str) -> Dict[str, object]:
        artifact = api.describe(exp_id)  # ValueError → 404 upstream
        return {
            "id": artifact.id,
            "title": artifact.title,
            "section": artifact.section,
            "regime": artifact.regime,
            "description": artifact.description,
            "default_scale": artifact.default_scale,
            "default_seeds": list(artifact.default_seeds),
            "multi_seed": artifact.multi_seed,
        }

    # -- running -------------------------------------------------------
    def run(self, exp_id: str, options: Dict[str, object]) -> Dict[str, object]:
        """Run/reduce ``exp_id`` against the shared store.

        Warm stores are pure cache hits: every cell is already present,
        the reducer assembles the table and ``meta.executed`` comes back
        0.  Unknown option names are rejected before anything runs.
        """
        unknown = set(options) - set(_RUN_OPTIONS)
        if unknown:
            raise ValueError(
                f"unknown run option(s) {sorted(unknown)}; "
                f"allowed: {', '.join(_RUN_OPTIONS)}"
            )
        kwargs = {k: options[k] for k in _RUN_OPTIONS if k in options}
        with self._run_lock:
            # Pick up rows appended by workers since the last request
            # (a no-op for sqlite, which always reads live).
            self.store.load()
            result = api.run(
                exp_id, store=self.store, workers=self.workers, **kwargs
            )
        return {
            "exp_id": result.exp_id,
            "title": result.title,
            "headers": result.headers,
            "rows": result.rows,
            "notes": result.notes,
            "meta": result.campaign,
        }

    # -- campaign status -----------------------------------------------
    def _resolve(self, name: str) -> Path:
        """``name`` → a file under ``root`` (traversal rejected)."""
        path = (self.root / name).resolve()
        if self.root not in path.parents and path != self.root:
            raise PermissionError(f"{name!r} escapes the serving root")
        return path

    @staticmethod
    def _is_queue_db(path: Path) -> bool:
        if path.suffix not in (".db", ".sqlite", ".sqlite3"):
            return False
        import sqlite3

        try:
            conn = sqlite3.connect(str(path), isolation_level=None)
            try:
                row = conn.execute(
                    "SELECT name FROM sqlite_master "
                    "WHERE type = 'table' AND name = 'cells'"
                ).fetchone()
            finally:
                conn.close()
        except sqlite3.Error:
            return False
        return row is not None

    def campaign_status(self, name: str) -> Dict[str, object]:
        """Live status of a queue database or a result store by name.

        A sqlite file with the work-queue schema reports the full lease
        picture (:meth:`WorkQueue.status`); anything else is opened as a
        result store and reports record/byte counts.
        """
        path = self._resolve(name)
        if not path.exists():
            raise FileNotFoundError(f"no campaign file {name!r} under serving root")
        if self._is_queue_db(path):
            queue = WorkQueue(path)
            try:
                return {"kind": "queue", **queue.status()}
            finally:
                queue.close()
        store = open_store(path)
        try:
            store.load()
            return {
                "kind": "store",
                "store": store.uri(),
                "records": len(store),
                "bytes": store.size_bytes(),
                "corrupt_lines": store.corrupt_lines,
            }
        finally:
            store.close()

    def health(self) -> Dict[str, object]:
        return {
            "ok": True,
            "store": self.store.uri(),
            "records": len(self.store),
        }


# ----------------------------------------------------------------------
# the wire layer
# ----------------------------------------------------------------------
#: Largest request body read; run options are a few hundred bytes.
MAX_BODY_BYTES = 1 << 20

_ROUTES = (
    ("GET", re.compile(r"^/healthz$"), "health"),
    ("GET", re.compile(r"^/artifacts$"), "list"),
    ("GET", re.compile(r"^/artifacts/(?P<exp_id>[\w.-]+)$"), "describe"),
    ("POST", re.compile(r"^/artifacts/(?P<exp_id>[\w.-]+)/run$"), "run"),
    ("GET", re.compile(r"^/campaigns/(?P<name>[\w./-]+)/status$"), "status"),
)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the shared :class:`ArtifactService`."""

    server_version = "card-service/1"
    protocol_version = "HTTP/1.1"

    #: set by :func:`make_server`
    service: ArtifactService

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
        pass  # quiet by default; obs lives in traces, not access logs

    def _send(
        self, status: int, payload: Dict[str, object], *, close: bool = False
    ) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        # Head and body leave in one write.  end_headers() flushes the
        # header block as a segment of its own; with Nagle on, the body
        # then waits for the client's delayed ACK — 40 ms on every
        # keep-alive reply, whatever the route.  So it flushes into a
        # buffer here (nothing at all for an HTTP/0.9 request line).
        wire, self.wfile = self.wfile, io.BytesIO()
        try:
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = wire
        wire.write(head + body)

    def _error(self, status: int, message: str, *, close: bool = False) -> None:
        self._send(status, {"error": message}, close=close)

    def _body(self) -> Optional[Dict[str, object]]:
        """The request's JSON object, or None once an error was sent."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # Rejected before reading: read(-n) would block until the
            # peer closes and a huge n is buffered whole.  What follows
            # the headers can then not be told apart from the next
            # request, so the connection goes too.
            if length < 0:
                self._error(400, "bad request: invalid Content-Length", close=True)
            else:
                self._error(413, f"body over {MAX_BODY_BYTES} bytes", close=True)
            return None
        if length == 0:
            return {}
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
            if not isinstance(data, dict):
                raise ValueError("request body must be a JSON object")
        except ValueError as exc:  # covers JSON and UTF-8 decode errors
            self._error(400, f"bad request body: {exc}")
            return None
        return data

    def _match(self, method: str) -> Optional[Tuple[str, Dict[str, str]]]:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        for verb, pattern, action in _ROUTES:
            match = pattern.match(path)
            if match is None:
                continue
            if verb != method:
                self._error(405, f"{method} not allowed on {path}")
                return None
            return action, match.groupdict()
        self._error(404, f"no route for {method} {path}")
        return None

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        matched = self._match("GET")
        if matched is None:
            return
        action, params = matched
        try:
            if action == "health":
                self._send(200, self.service.health())
            elif action == "list":
                self._send(200, self.service.list_artifacts())
            elif action == "describe":
                self._send(200, self.service.describe(params["exp_id"]))
            elif action == "status":
                self._send(200, self.service.campaign_status(params["name"]))
        except (ValueError, FileNotFoundError) as exc:
            self._error(404, str(exc))
        except PermissionError as exc:
            self._error(403, str(exc))
        except Exception as exc:  # noqa: BLE001 - never kill the thread
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        matched = self._match("POST")
        if matched is None:
            return
        action, params = matched
        options = self._body()
        if options is None:
            return
        try:
            if action == "run":
                self._send(200, self.service.run(params["exp_id"], options))
        except ValueError as exc:
            # unknown artifact id or unknown option name
            status = 404 if "unknown artifact" in str(exc) else 400
            self._error(status, str(exc))
        except Exception as exc:  # noqa: BLE001 - never kill the thread
            self._error(500, f"{type(exc).__name__}: {exc}")


def make_server(
    host: str = "127.0.0.1",
    port: int = 8023,
    store: StoreLike = None,
    *,
    root: Union[None, str, Path] = None,
    workers: int = 1,
) -> ThreadingHTTPServer:
    """Build the serving socket (call ``serve_forever()`` to run it).

    ``port=0`` binds an ephemeral port (tests); the bound address is
    ``server.server_address``.  ``root`` scopes which campaign files
    ``/campaigns/<name>/status`` may read (default: the cwd).
    """
    service = ArtifactService(store, root=root, workers=workers)
    handler = type("_BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.service = service  # type: ignore[attr-defined]
    return server
