"""Open-loop WebSocket load generator, run as its own process.

Why: the ``serve-open-loop`` workload must load the ingest server the
way independent sensors do -- on a schedule that does not wait for the
server -- or a slow server would simply receive less load and its
latency would look fine.  Running the generator in a separate process
keeps its work off the server's event loop.

The schedule is fixed by the rate alone: record ``i`` of a rung is due
at ``t0 + i / rate``.  Every latency is timed from the due time, so a
stall in the generator or the server shows up in every later record,
and the generator reports how late each send went out.  Both processes
read ``time.perf_counter`` (``CLOCK_MONOTONIC``, system-wide on Linux),
so due times can be compared with server-side verdict times.

One thread sends and reads: it waits for the next due time in
``select`` (microsecond timeouts; an event loop's timers fire up to a
millisecond late), timestamping replies as they arrive, and sends each
record when it falls due.  Records are pinned to connections by
source, so each source's ``seq`` order is also its send order.  Frames
are encoded and masked before ``t0``, outside the schedule.

Protocol on stdin/stdout, one JSON object per line:

* generator -> parent: ``{"ready": true}`` once connected;
* parent -> generator: ``{"rate": r, "records": path}`` -- run one rung
  over the JSON-lines records file (each record carries ``"conn"``);
* generator -> parent: ``{"t0": ..., "late_ms": [...], "ack_ms": [...],
  "status": [...]}`` in record order (``ack_ms`` is ``null`` for a
  record never acknowledged);
* parent -> generator: ``{"quit": true}``.
"""

from __future__ import annotations

import argparse
import base64
import collections
import hashlib
import json
import os
import select
import socket
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["Generator", "mask_frame", "run_schedule"]

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
#: Seconds without any reply before the rest are given up as lost.
REPLY_TIMEOUT_S = 60.0

Clock = Callable[[], float]


def mask_frame(payload: bytes, key: bytes) -> bytes:
    """One masked RFC 6455 text frame (client to server)."""
    header = bytearray([0x81])
    length = len(payload)
    if length < 126:
        header.append(0x80 | length)
    elif length < 1 << 16:
        header.append(0x80 | 126)
        header += length.to_bytes(2, "big")
    else:
        header.append(0x80 | 127)
        header += length.to_bytes(8, "big")
    header += key
    mask = (key * (length // 4 + 1))[:length]
    masked = (
        int.from_bytes(payload, "big") ^ int.from_bytes(mask, "big")
    ).to_bytes(length, "big")
    return bytes(header) + masked


def run_schedule(
    due: Sequence[float],
    send: Callable[[int], None],
    clock: Clock = time.perf_counter,
    wait: Callable[[float], None] = time.sleep,
) -> List[float]:
    """Call ``send(i)`` for each index at ``due[i]``; returns lateness (s).

    ``due`` must be non-decreasing.  ``wait(seconds)`` passes the time
    until the next record is due (and may return early).  Everything
    already due is sent in one burst, so a late sender catches up
    instead of drifting; lateness is ``send time - due time`` per record.
    """
    late = [0.0] * len(due)
    index = 0
    count = len(due)
    while index < count:
        now = clock()
        if due[index] > now:
            wait(due[index] - now)
            continue
        while index < count and due[index] <= now:
            send(index)
            late[index] = clock() - due[index]
            index += 1
    return late


def _ws_connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    sock.sendall(
        (
            f"GET /ws HTTP/1.1\r\nhost: {host}:{port}\r\n"
            "upgrade: websocket\r\nconnection: Upgrade\r\n"
            f"sec-websocket-key: {key}\r\nsec-websocket-version: 13\r\n\r\n"
        ).encode("latin-1")
    )
    head = b""
    while b"\r\n\r\n" not in head:
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError("server closed during the upgrade")
        head += chunk
    lines = head.split(b"\r\n\r\n", 1)[0].decode("latin-1").split("\r\n")
    if " 101 " not in lines[0] + " ":
        raise ConnectionError(f"websocket upgrade refused: {lines[0]!r}")
    expected = base64.b64encode(
        hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
    ).decode("ascii")
    headers = dict(
        (name.strip().lower(), value.strip())
        for name, _, value in (line.partition(":") for line in lines[1:])
    )
    if headers.get("sec-websocket-accept") != expected:
        raise ConnectionError("websocket accept key mismatch")
    return sock


def _frames(buffer: bytearray):
    """Pop complete server frames off ``buffer``: (opcode, payload)."""
    while len(buffer) >= 2:
        length = buffer[1] & 0x7F
        offset = 2
        if length == 126:
            if len(buffer) < 4:
                return
            length, offset = int.from_bytes(buffer[2:4], "big"), 4
        elif length == 127:
            if len(buffer) < 10:
                return
            length, offset = int.from_bytes(buffer[2:10], "big"), 10
        if len(buffer) < offset + length:
            return
        opcode = buffer[0] & 0x0F
        payload = bytes(buffer[offset : offset + length])
        del buffer[: offset + length]
        yield opcode, payload


class Generator:
    """The connections of one generator process and the rungs it runs."""

    def __init__(
        self, sockets: List[socket.socket], clock: Clock = time.perf_counter
    ) -> None:
        self.sockets = sockets
        self.clock = clock
        self.buffers = [bytearray() for _ in sockets]

    def _poll(self, timeout: float, inflight, acks, status) -> int:
        """Read whatever replies arrive within ``timeout``; returns how
        many were read."""
        ready, _, _ = select.select(self.sockets, [], [], max(0.0, timeout))
        read = 0
        for sock in ready:
            conn = self.sockets.index(sock)
            chunk = sock.recv(65536)
            now = self.clock()
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer = self.buffers[conn]
            buffer += chunk
            for opcode, payload in _frames(buffer):
                if opcode != 0x1:
                    continue
                index = inflight[conn].popleft()
                acks[index] = now
                status[index] = json.loads(payload).get("status")
                read += 1
        return read

    def rung(self, rate: float, records: List[dict], lead: float = 0.05) -> Dict:
        conns = [record.pop("conn") for record in records]
        key = os.urandom(4)
        frames = [
            mask_frame(json.dumps(r, separators=(",", ":")).encode(), key)
            for r in records
        ]
        count = len(frames)
        acks: List[Optional[float]] = [None] * count
        status: List[Optional[str]] = [None] * count
        inflight = [collections.deque() for _ in self.sockets]

        def send(index: int) -> None:
            conn = conns[index]
            inflight[conn].append(index)
            self.sockets[conn].sendall(frames[index])

        def wait(timeout: float) -> None:
            self._poll(timeout, inflight, acks, status)

        t0 = self.clock() + lead
        due = [t0 + i / rate for i in range(count)]
        late = run_schedule(due, send, self.clock, wait)
        while any(inflight) and self._poll(REPLY_TIMEOUT_S, inflight, acks, status):
            pass
        return {
            "t0": t0,
            "rate": rate,
            "late_ms": [v * 1e3 for v in late],
            "ack_ms": [
                None if a is None else (a - d) * 1e3 for a, d in zip(acks, due)
            ],
            "status": status,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="open-loop WS generator")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--connections", type=int, default=2)
    args = parser.parse_args(argv)
    sockets = [_ws_connect(args.host, args.port) for _ in range(args.connections)]
    generator = Generator(sockets)
    print(json.dumps({"ready": True}), flush=True)
    try:
        for line in sys.stdin:
            command = json.loads(line)
            if command.get("quit"):
                break
            with open(command["records"], encoding="utf-8") as handle:
                records = [json.loads(row) for row in handle]
            print(json.dumps(generator.rung(float(command["rate"]), records)), flush=True)
    finally:
        for sock in sockets:
            sock.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
