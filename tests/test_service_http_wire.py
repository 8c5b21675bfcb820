"""Tests for the asyncio HTTP front-end's HTTP/1.1 wire handling.

These drive the server over raw sockets: request-line and header parsing,
``Content-Length`` limits, unsupported methods, method/route mismatches,
``/solve`` body validation, and connection lifetime (keep-alive, HTTP/1.0,
``Connection: close``, pipelining).  Two kinds of 400 are distinguished:
a request the parser cannot read closes the connection (its leftover bytes
would desync the next request), while a well-formed request with a bad JSON
body keeps the connection open.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.problems import list_families
from repro.service import http_async
from repro.service.api import ServiceConfig
from repro.service.http_async import AsyncServiceHTTPServer


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    # None of these tests runs a search, so one server serves the module.
    srv = AsyncServiceHTTPServer(
        ("127.0.0.1", 0),
        config=ServiceConfig(
            store_path=str(tmp_path_factory.mktemp("wire") / "wire.db"),
            n_workers=1,
        ),
    )
    srv.start_background()
    yield srv
    srv.stop(drain=False)


class _Wire:
    """One raw client connection that reads whole HTTP responses."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.buf = b""

    def _recv(self) -> bytes:
        chunk = self.sock.recv(65536)
        self.buf += chunk
        return chunk

    def send(self, raw: bytes) -> None:
        self.sock.sendall(raw)

    def response(self):
        """``(status, lower-cased headers, JSON payload)`` of the next reply."""
        while b"\r\n\r\n" not in self.buf:
            if not self._recv():
                raise AssertionError(f"connection closed mid-response: {self.buf!r}")
        head, _, rest = self.buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        self.buf = rest
        while len(self.buf) < length:
            if not self._recv():
                raise AssertionError("connection closed mid-body")
        body, self.buf = self.buf[:length], self.buf[length:]
        return status, headers, json.loads(body)

    def closed_by_server(self) -> bool:
        """True when the server hangs up with nothing further to send."""
        if self.buf:
            return False
        try:
            return self._recv() == b""
        except socket.timeout:
            return False

    def close(self) -> None:
        self.sock.close()


@pytest.fixture()
def connect(server):
    wires = []

    def _connect() -> _Wire:
        wire = _Wire(server.port)
        wires.append(wire)
        return wire

    yield _connect
    for wire in wires:
        wire.close()


def _request(method: str, path: str, body: bytes = b"", *, version="HTTP/1.1",
             headers=()) -> bytes:
    head = [f"{method} {path} {version}", "Host: 127.0.0.1"]
    head.extend(headers)
    if body or method == "POST":
        head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


_LONG = "a" * (http_async._MAX_LINE + 1024)

_UNPARSEABLE = {
    "request-line-missing-version": b"GET /healthz\r\nHost: x\r\n\r\n",
    "request-line-too-long": f"GET /{_LONG} HTTP/1.1\r\n\r\n".encode(),
    "header-line-too-long": f"GET /healthz HTTP/1.1\r\nX-Long: {_LONG}\r\n\r\n".encode(),
    "header-without-colon": b"GET /healthz HTTP/1.1\r\nNoColonHere\r\n\r\n",
    "too-many-headers": (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(
            b"X-H%d: v\r\n" % i for i in range(http_async._MAX_HEADERS + 1)
        )
        + b"\r\n"
    ),
    "content-length-not-a-number": (
        b"POST /solve HTTP/1.1\r\nContent-Length: twelve\r\n\r\n"
    ),
    "content-length-negative": b"POST /solve HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    "content-length-over-limit": (
        b"POST /solve HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % (http_async._MAX_BODY + 1)
    ),
}


class TestUnparseableRequests:
    @pytest.mark.parametrize("raw", list(_UNPARSEABLE.values()), ids=list(_UNPARSEABLE))
    def test_answered_400_and_connection_closed(self, connect, raw):
        wire = connect()
        wire.send(raw)
        status, headers, payload = wire.response()
        assert status == 400
        assert headers.get("connection") == "close"
        assert payload["error"]
        assert wire.closed_by_server()


class TestUnsupportedMethods:
    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "OPTIONS"])
    def test_answered_501_and_connection_closed(self, connect, method):
        wire = connect()
        wire.send(_request(method, "/solve", b"{}"))
        status, headers, payload = wire.response()
        assert status == 501
        assert headers.get("connection") == "close"
        assert method in payload["error"]
        assert wire.closed_by_server()


class TestRouteMethodMismatch:
    @pytest.mark.parametrize(
        "method,path",
        [
            ("POST", "/healthz"),
            ("POST", "/stats"),
            ("POST", "/problems"),
            ("POST", "/result/some-id"),
            ("GET", "/solve"),
            ("GET", "/solve-batch"),
            ("GET", "/cancel/some-id"),
        ],
    )
    def test_wrong_method_is_404_naming_the_path(self, connect, method, path):
        wire = connect()
        wire.send(_request(method, path))
        status, headers, payload = wire.response()
        assert status == 404
        assert path in payload["error"]
        # A routing miss is an ordinary answer: the connection stays usable.
        assert "connection" not in headers
        wire.send(_request("GET", "/healthz"))
        assert wire.response()[0] == 200


_BAD_SOLVE_BODIES = {
    "not-json": b"{order: 12",
    "json-array": b"[12]",
    "json-string": b'"12"',
    "not-utf8": b"\xff\xfe\xfd",
    "empty-body": b"",
    "deadline-not-numeric": b'{"order": 12, "deadline": "soon"}',
    "model-options-not-an-object": b'{"order": 12, "model_options": "constant"}',
}


def _submitted(server) -> int:
    return sum(kind["requests"] for kind in server.service.stats()["kinds"].values())


class TestSolveBodyValidation:
    @pytest.mark.parametrize(
        "body", list(_BAD_SOLVE_BODIES.values()), ids=list(_BAD_SOLVE_BODIES)
    )
    def test_bad_body_is_400_and_connection_stays_open(self, server, connect, body):
        before = _submitted(server)
        wire = connect()
        wire.send(_request("POST", "/solve", body))
        status, headers, payload = wire.response()
        assert status == 400 and payload["error"]
        assert "connection" not in headers
        # Rejected before submission: the service never saw a request.
        assert _submitted(server) == before
        wire.send(_request("GET", "/healthz"))
        assert wire.response()[0] == 200


class TestConnectionLifetime:
    def test_http10_closes_after_one_response(self, connect):
        wire = connect()
        wire.send(_request("GET", "/healthz", version="HTTP/1.0"))
        assert wire.response()[0] == 200
        assert wire.closed_by_server()

    def test_http10_keep_alive_serves_a_second_request(self, connect):
        wire = connect()
        keep = ("Connection: keep-alive",)
        wire.send(_request("GET", "/healthz", version="HTTP/1.0", headers=keep))
        assert wire.response()[0] == 200
        wire.send(_request("GET", "/problems", version="HTTP/1.0", headers=keep))
        status, _, payload = wire.response()
        assert status == 200 and payload["problems"]

    def test_http11_connection_close_is_honoured(self, connect):
        wire = connect()
        wire.send(_request("GET", "/healthz", headers=("Connection: close",)))
        status, headers, _ = wire.response()
        assert status == 200 and headers.get("connection") == "close"
        assert wire.closed_by_server()

    def test_pipelined_requests_are_answered_in_order(self, connect):
        wire = connect()
        wire.send(
            _request("GET", "/result/first-unknown")
            + _request("GET", "/problems")
            + _request("GET", "/result/second-unknown")
        )
        status, _, payload = wire.response()
        assert status == 404 and "first-unknown" in payload["error"]
        status, _, payload = wire.response()
        assert status == 200 and payload["problems"]
        status, _, payload = wire.response()
        assert status == 404 and "second-unknown" in payload["error"]


class TestProblemsListing:
    def test_lists_every_registered_family_in_registry_order(self, connect):
        wire = connect()
        wire.send(_request("GET", "/problems"))
        status, _, payload = wire.response()
        assert status == 200
        assert [entry["kind"] for entry in payload["problems"]] == [
            family.name for family in list_families()
        ]
        assert payload["problems"] == [f.describe() for f in list_families()]


class TestWaitBound:
    def test_wait_past_the_bound_is_202_and_leaves_the_request_running(
        self, tmp_path, monkeypatch
    ):
        """``wait=true`` blocks at most ``_MAX_WAIT_SECONDS``; running out of
        patience answers 202 and must not cancel the solve."""
        monkeypatch.setattr(http_async, "_MAX_WAIT_SECONDS", 0.3)
        srv = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(
                store_path=str(tmp_path / "wait.db"),
                n_workers=1,
                default_max_time=300.0,
            ),
        )
        srv.start_background()
        wire = _Wire(srv.port)
        try:
            body = json.dumps(
                {"order": 24, "use_constructions": False, "wait": True}
            ).encode()
            started = time.monotonic()
            wire.send(_request("POST", "/solve", body))
            status, _, payload = wire.response()
            assert time.monotonic() - started < 30
            assert status == 202 and payload["status"] == "pending"
            rid = payload["request_id"]
            assert not srv.service.request(rid).done()
            wire.send(_request("POST", f"/cancel/{rid}"))
            status, _, payload = wire.response()
            assert status == 200 and payload["cancelled"]
        finally:
            wire.close()
            srv.stop(drain=False)
