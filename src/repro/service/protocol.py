"""Wire protocol of the synthesis service: JSON lines + binary bodies.

One request or response is a single line of compact JSON followed by an
optional binary body whose length the JSON announces in its ``size``
field::

    {"cmd": "put", "run_id": "run007", "size": 53124}\\n<53124 bytes>
    {"ok": true, "events": 1587}\\n

Responses carry ``ok`` plus either result fields or ``error``.  The
framing is symmetric, so both sides use the same two functions over a
buffered socket file.

Addresses are ``host:port`` TCP endpoints (``127.0.0.1:0`` binds an
ephemeral port -- ``repro serve`` prints the bound address) or, on
platforms with ``AF_UNIX``, any other string as a filesystem socket
path (an explicit ``unix:`` prefix is stripped).
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Optional, Tuple

#: Upper bound on one JSON header line; a peer that sends more is
#: framing garbage, not a large request.
MAX_HEADER_BYTES = 1 << 20
#: Upper bound on one binary body (a pushed segment).
MAX_BODY_BYTES = 1 << 31


class ProtocolError(ValueError):
    """Malformed framing from a peer."""


Address = Tuple[str, Any]  # ("tcp", (host, port)) | ("unix", path)


def parse_address(text: str) -> Address:
    if text.startswith("unix:"):
        return "unix", text[len("unix:"):]
    host, sep, port = text.rpartition(":")
    if sep and host and port.isdigit():
        return "tcp", (host, int(port))
    return "unix", text


def bind_server_socket(text: str) -> Tuple[socket.socket, str]:
    """Bind + listen on ``text``; returns the socket and the *actual*
    bound address string (meaningful for ``host:0`` ephemeral ports)."""
    kind, where = parse_address(text)
    if kind == "tcp":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(where)
        sock.listen(16)
        host, port = sock.getsockname()[:2]
        return sock, f"{host}:{port}"
    if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
        raise ProtocolError(f"unix sockets unsupported here: {text!r}")
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.bind(where)
    sock.listen(16)
    return sock, where


def connect(text: str, timeout: Optional[float] = None) -> socket.socket:
    kind, where = parse_address(text)
    if kind == "tcp":
        return socket.create_connection(where, timeout=timeout)
    if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
        raise ProtocolError(f"unix sockets unsupported here: {text!r}")
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    sock.connect(where)
    return sock


def send_message(wfile, payload: Dict[str, Any], body: bytes = b"") -> None:
    """One framed message: the payload line (with ``size`` set when a
    body follows) then the body bytes."""
    framed = dict(payload)
    if body:
        framed["size"] = len(body)
    else:
        framed.pop("size", None)
    wfile.write(json.dumps(framed, separators=(",", ":")).encode() + b"\n")
    if body:
        wfile.write(body)
    wfile.flush()


def recv_message(rfile) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """The next framed message, or ``None`` on clean EOF."""
    line = rfile.readline(MAX_HEADER_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_HEADER_BYTES:
        raise ProtocolError("header line exceeds limit")
    try:
        payload = json.loads(line)
    except ValueError as error:
        raise ProtocolError(f"bad header line: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("header is not a JSON object")
    size = payload.get("size", 0)
    # bool is an int subclass: ``"size": true`` must not frame a byte.
    if (
        not isinstance(size, int) or isinstance(size, bool)
        or size < 0 or size > MAX_BODY_BYTES
    ):
        raise ProtocolError(f"bad body size {size!r}")
    body = b""
    if size:
        chunks = []
        remaining = size
        while remaining:
            chunk = rfile.read(remaining)
            if not chunk:
                raise ProtocolError(
                    f"truncated body: got {size - remaining} of {size} bytes"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        body = b"".join(chunks)
    return payload, body
