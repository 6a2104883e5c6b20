"""Synchronous unix-socket client for the sweep service.

Unary requests open a fresh connection, send one JSON line, and read one
JSON-line response; :meth:`SweepClient.attach` keeps its connection open
and yields the job's event stream (replayed completed cells, then live
cells, then a terminal ``end`` event).  An ``{"ok": false}`` response
raises :class:`ServiceError` with the server's message.

The client has no dependency on the server package beyond the wire
format, so scripts, tests, and CI smoke jobs can drive a service that
lives in another process (or that they are about to SIGKILL).
"""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Iterator

__all__ = ["ServiceError", "SweepClient"]


class ServiceError(RuntimeError):
    """The server answered with ``ok: false`` (or spoke garbage)."""


class SweepClient:
    """Talk JSON lines to a sweep service over its unix socket."""

    def __init__(
        self, socket_path: str | os.PathLike, timeout: float = 60.0
    ) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout

    # -- plumbing -----------------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.socket_path)
        return sock

    @staticmethod
    def _send(sock: socket.socket, payload: dict) -> None:
        sock.sendall(json.dumps(payload).encode() + b"\n")

    @staticmethod
    def _recv_line(fh) -> dict:
        line = fh.readline()
        if not line:
            raise ServiceError("connection closed by server")
        try:
            return json.loads(line)
        except ValueError as exc:
            raise ServiceError(f"bad server response: {exc}") from None

    def _request(self, payload: dict) -> dict:
        with self._connect() as sock, sock.makefile("rb") as fh:
            self._send(sock, payload)
            response = self._recv_line(fh)
        if not response.get("ok"):
            raise ServiceError(response.get("error", "request failed"))
        return response

    # -- unary ops ----------------------------------------------------------

    def ping(self) -> bool:
        return bool(self._request({"op": "ping"}).get("pong"))

    def submit(self, spec: dict) -> dict:
        """Submit a sweep spec dict; returns ``{job, cells, collapsed}``."""
        return self._request({"op": "submit", "spec": spec})

    def jobs(self) -> list[dict]:
        return self._request({"op": "jobs"})["jobs"]

    def status(self, job: str) -> dict:
        return self._request({"op": "status", "job": job})

    def results(self, job: str) -> list[dict]:
        """Records of a finished job, in canonical grid order."""
        return self._request({"op": "results", "job": job})["records"]

    def cancel(self, job: str) -> dict:
        return self._request({"op": "cancel", "job": job})

    def stats(self) -> dict:
        return self._request({"op": "stats"})

    def shutdown(self) -> None:
        self._request({"op": "shutdown"})

    # -- streaming ----------------------------------------------------------

    def attach(self, job: str) -> Iterator[dict]:
        """Yield a job's event stream until its terminal ``end`` event."""
        with self._connect() as sock, sock.makefile("rb") as fh:
            self._send(sock, {"op": "attach", "job": job})
            header = self._recv_line(fh)
            if not header.get("ok"):
                raise ServiceError(header.get("error", "attach failed"))
            while True:
                event = self._recv_line(fh)
                yield event
                if event.get("event") == "end":
                    return

    def wait(self, job: str) -> dict:
        """Block until a job finishes; returns its ``end`` event."""
        for event in self.attach(job):
            if event.get("event") == "end":
                if event.get("status") == "failed":
                    raise ServiceError(
                        f"job {job} failed: {event.get('error')}"
                    )
                return event
        raise ServiceError(f"attach stream for {job} ended without 'end'")

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def wait_ready(
        socket_path: str | os.PathLike, timeout: float = 30.0
    ) -> "SweepClient":
        """Poll until a server answers ping on ``socket_path`` (for CI)."""
        client = SweepClient(socket_path, timeout=10.0)
        deadline = time.monotonic() + timeout
        while True:
            try:
                client.ping()
                return client
            except (OSError, ServiceError):
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"no sweep service on {socket_path} after {timeout}s"
                    ) from None
                time.sleep(0.1)
