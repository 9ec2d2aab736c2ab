"""Minimal HTTP/1.1 request parsing and response rendering.

Just enough of the protocol for a JSON analysis service on stdlib
``asyncio`` streams — no routing, no keep-alive (every response carries
``Connection: close``), no chunked bodies.  Kept apart from the app so
the wire format is testable without sockets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

#: Upper bound on the combined size of the request head (bytes).
MAX_HEADER_BYTES = 65536

#: Upper bound on a request body (bytes) — manifests are small JSON.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Reason phrases for every status the service emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


class BadRequest(Exception):
    """Malformed request; the handler answers 400 (or the given code)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HTTPRequest:
    """One parsed request (headers lower-cased, body raw bytes)."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body decoded as JSON (``BadRequest`` on garbage)."""
        if not self.body:
            raise BadRequest("request body must be a JSON object")
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from None


async def _readline(reader) -> bytes:
    """One head line; a line longer than the stream's buffer limit
    (64 KiB by default) makes ``readline`` raise ``ValueError``."""
    try:
        return await reader.readline()
    except ValueError:
        raise BadRequest("request head line too long", status=413) from None


async def read_request(reader) -> HTTPRequest | None:
    """Parse one request from an asyncio stream.

    Returns ``None`` when the peer closed without sending anything;
    raises :class:`BadRequest` on a malformed or oversized request.
    """
    line = await _readline(reader)
    if not line.strip():
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise BadRequest("malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    seen = len(line)
    while True:
        line = await _readline(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        seen += len(line)
        if seen > MAX_HEADER_BYTES:
            raise BadRequest("request head too large", status=413)
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise BadRequest(f"bad Content-Length {raw_length!r}") from None
    if length < 0:
        raise BadRequest(f"bad Content-Length {raw_length!r}")
    if length > MAX_BODY_BYTES:
        raise BadRequest("request body too large", status=413)
    body = await reader.readexactly(length) if length else b""
    # Query strings are not part of the service surface; strip them so
    # routing sees a clean path.
    path = target.split("?", 1)[0]
    return HTTPRequest(method=method, path=path, headers=headers, body=body)


def render_response(
    status: int,
    payload: Any,
    content_type: str | None = None,
) -> bytes:
    """One full HTTP/1.1 response (string payloads as text, the rest
    as canonical JSON)."""
    if isinstance(payload, bytes):
        body = payload
        content_type = content_type or "application/octet-stream"
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = content_type or "text/plain; charset=utf-8"
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        content_type = content_type or "application/json"
    reason = REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body
