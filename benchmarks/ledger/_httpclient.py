"""A minimal HTTP/1.1 client whose latency is the server's.

Each request leaves as one buffer (request line, headers and body in a
single ``sendall``) on a socket with ``TCP_NODELAY`` set, and the reply
is read to its ``Content-Length``.  The client therefore adds no
write-write-read stall of its own: what remains between the in-process
time and the keep-alive time is the server's wire handling.
"""

from __future__ import annotations

import json
import socket
from typing import Optional, Tuple

__all__ = ["Connection", "request_once"]


class Connection:
    """One persistent connection; requests are strictly sequential."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, bytes]:
        """Send one request and return ``(status, body)``."""
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.sock.sendall(head + body)
        status_line = self.rfile.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.rfile.read(length)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def request_once(
    host: str, port: int, method: str, path: str, payload: Optional[dict] = None
) -> Tuple[int, bytes]:
    """One request on a fresh connection (connect, send, read, close)."""
    with Connection(host, port) as conn:
        return conn.request(method, path, payload)
