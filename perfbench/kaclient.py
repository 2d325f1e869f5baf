"""A persistent HTTP/1.1 keep-alive connection that times each response.

It behaves like ``http.client`` or the repository's ``loadgen``: one
socket for every request, each request (headers and body) sent in one
write.  Besides the status and JSON body it reports when the response
headers were complete and when the last body byte arrived, so the gap
between the two (``http.header_to_body_ms``) is measured on the wire.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass


@dataclass
class Reply:
    status: int
    body: dict
    t_headers: float
    t_done: float


class KeepAlive:
    def __init__(self, host: str, port: int, client_id: str) -> None:
        self.addr = (host, port)
        self.client_id = client_id
        self.sock = socket.create_connection(self.addr, timeout=30.0)
        self._buf = b""

    def close(self) -> None:
        self.sock.close()

    def _recv(self) -> bytes:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the keep-alive connection")
        return chunk

    def request(self, method: str, path: str, body: dict | None = None,
                bench_id: str = "") -> Reply:
        data = json.dumps(body).encode() if body is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.addr[0]}:{self.addr[1]}\r\n"
                f"X-Client-Id: {self.client_id}\r\n"
                f"X-Bench-Id: {bench_id}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n").encode()
        self.sock.sendall(head + data)
        buf = self._buf
        while b"\r\n\r\n" not in buf:
            buf += self._recv()
        t_headers = time.perf_counter()
        header, _, rest = buf.partition(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        while len(rest) < length:
            rest += self._recv()
        t_done = time.perf_counter()
        self._buf = rest[length:]
        return Reply(status, json.loads(rest[:length] or b"{}"), t_headers,
                     t_done)
