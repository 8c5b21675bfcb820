"""Load generator: keep-alive HTTP/1.1 connections, closed and open loops.

One thread drives every connection through a selector, so the generator
adds no thread hand-off between its connections and its own cost per
request stays small (no third-party HTTP stack is available).  The load
comes from one process with at most two connections.
"""

from __future__ import annotations

import collections
import itertools
import selectors
import socket
import time
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

#: Seconds without any answer after which a loop gives up on the server.
STALL_TIMEOUT = 60.0


class Connection:
    """One keep-alive connection to the server on ``127.0.0.1:port``."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.buf = b""

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.buf = b""

    def send(self, method: str, path: str, body: bytes = b"") -> None:
        """Write one request, connecting first if needed."""
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=STALL_TIMEOUT)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
        )

    def receive(self) -> Optional[Tuple[int, bytes]]:
        """Read what the socket holds; ``(status, body)`` once a whole
        response is in, else ``None``."""
        assert self.sock is not None
        chunk = self.sock.recv(65536)
        if not chunk:
            self.close()
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        head, sep, rest = self.buf.partition(b"\r\n\r\n")
        if not sep:
            return None
        lines = head.split(b"\r\n")
        length = 0
        close = False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection" and value.strip().lower() == b"close":
                close = True
        if len(rest) < length:
            return None
        self.buf = rest[length:]
        if close:
            self.close()
        return int(lines[0].split(b" ", 2)[1]), rest[:length]

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        """Send one request and block for its response."""
        self.send(method, path, body)
        while True:
            response = self.receive()
            if response is not None:
                return response


@dataclass
class Record:
    """One request as the generator saw it (times from ``perf_counter``)."""

    index: int
    due: float
    sent: float
    end: float
    status: int
    body: bytes
    #: The request had to wait for a free connection (open loop only).
    waited: bool = False


class _Slot:
    """A connection plus the request in flight on it."""

    def __init__(self, port: int, selector: selectors.BaseSelector) -> None:
        self.conn = Connection(port)
        self.selector = selector
        self.registered: Optional[socket.socket] = None
        self.inflight: Tuple[int, float, float, bool] = (0, 0.0, 0.0, False)

    def start(self, index: int, body: bytes, due: float, waited: bool) -> None:
        sent = time.perf_counter()
        self.conn.send("POST", "/solve", body)
        if self.conn.sock is not self.registered:  # first use, or reconnected
            self.selector.register(self.conn.sock, selectors.EVENT_READ, self)
            self.registered = self.conn.sock
        self.inflight = (index, due, sent, waited)

    def finish(self) -> Optional[Record]:
        """The answer, once it is complete; the connection is free again."""
        sock = self.conn.sock
        response = self.conn.receive()
        if self.conn.sock is None and sock is not None:  # server closed it
            self.selector.unregister(sock)
            self.registered = None
        if response is None:
            return None
        index, due, sent, waited = self.inflight
        return Record(index, due, sent, time.perf_counter(), response[0], response[1], waited)


def _answers(selector: selectors.BaseSelector, timeout: float) -> List[Tuple["_Slot", Record]]:
    events = selector.select(timeout)
    done = []
    for key, _ in events:
        record = key.data.finish()
        if record is not None:
            done.append((key.data, record))
    return done


def closed_loop(
    port: int,
    bodies: Sequence[bytes],
    *,
    duration: float,
    connections: int = 2,
    start_index: int = 0,
) -> Tuple[List[Record], float, float]:
    """Each connection sends its next request when the previous one returns.

    Request *i* carries ``bodies[i % len(bodies)]`` counting from
    *start_index*.  Returns the records, the window start and the instant the
    last connection finished.
    """
    counter = itertools.count(start_index)
    records: List[Record] = []
    selector = selectors.DefaultSelector()
    slots = [_Slot(port, selector) for _ in range(connections)]
    start = time.perf_counter()
    stop_at = start + duration
    try:
        for slot in slots:
            index = next(counter)
            slot.start(index, bodies[index % len(bodies)], start, False)
        busy = len(slots)
        last_answer = start
        while busy:
            done = _answers(selector, STALL_TIMEOUT)
            now = time.perf_counter()
            if not done and now - last_answer > STALL_TIMEOUT:
                raise TimeoutError("no answer from the server")
            for slot, record in done:
                records.append(record)
                last_answer = now
                if now < stop_at:
                    index = next(counter)
                    slot.start(index, bodies[index % len(bodies)], now, False)
                else:
                    busy -= 1
    finally:
        for slot in slots:
            slot.conn.close()
        selector.close()
    return records, start, time.perf_counter()


def open_loop(
    port: int,
    schedule: Sequence[Tuple[float, bytes]],
    *,
    connections: int = 2,
) -> Tuple[List[Record], float, float]:
    """Send each ``(offset_s, body)`` at its due time, whatever came before.

    A request due while every connection is busy waits for the first free
    one; its latency still counts from the due time.  Returns the records,
    the schedule's time origin and the instant the last answer arrived.
    """
    records: List[Record] = []
    selector = selectors.DefaultSelector()
    idle: Deque[_Slot] = collections.deque(_Slot(port, selector) for _ in range(connections))
    slots = list(idle)
    pending: Deque[Tuple[int, float, bool]] = collections.deque()
    origin = time.perf_counter() + 0.05
    following = 0
    last_answer = origin
    try:
        while len(records) < len(schedule):
            now = time.perf_counter()
            while following < len(schedule) and origin + schedule[following][0] <= now:
                waited = not idle or bool(pending)
                pending.append((following, origin + schedule[following][0], waited))
                following += 1
            while pending and idle:
                index, due, waited = pending.popleft()
                idle.popleft().start(index, schedule[index][1], due, waited)
            if following < len(schedule):
                timeout = max(0.0, origin + schedule[following][0] - time.perf_counter())
            else:
                timeout = STALL_TIMEOUT
            done = _answers(selector, timeout)
            now = time.perf_counter()
            if done:
                last_answer = now
            elif len(idle) < len(slots) and now - last_answer > STALL_TIMEOUT:
                raise TimeoutError("no answer from the server")
            for slot, record in done:
                records.append(record)
                idle.append(slot)
    finally:
        for slot in slots:
            slot.conn.close()
        selector.close()
    return records, origin, time.perf_counter()
