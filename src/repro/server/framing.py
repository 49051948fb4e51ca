"""HTTP body framing for the front door's event loop.

The selectors front door feeds bytes to these state machines as they
arrive off the wire: Content-Length vs chunked Transfer-Encoding, line
splitting with the oversized-line clip, and what counts as a truncated
upload.  They hold no sockets, so each can be tested byte by byte.

Incremental decoders
--------------------

* :class:`LengthDecoder` — a ``Content-Length`` body: counts down,
  reports completion, and flags EOF-before-done as
  :class:`TruncatedBody` (silently accepting the prefix is the bug this
  replaces).
* :class:`ChunkedDecoder` — chunked ``Transfer-Encoding`` as a
  resumable state machine; framing violations raise
  :class:`BadChunkedBody`, carrying the payload decoded before the
  violation so a streamed body still answers every line it completed.
* :class:`LineSplitter` — byte stream → text lines with the
  oversized-line clip semantics the batch route pins in its fuzz tests:
  a line longer than the limit yields exactly one truncated string (its
  overflow is discarded up to the newline) so line numbering stays
  aligned with the client's input.

Request heads
-------------

:func:`parse_request_head` parses the request line and headers from the
raw bytes the front door accumulated (everything before ``CRLF CRLF``),
tolerating bare-``LF`` clients the same way ``http.server`` does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Chunk-extension allowance when reading a chunk-size line.
CHUNK_SIZE_LINE_LIMIT = 1024


class BadChunkedBody(ValueError):
    """Malformed chunked Transfer-Encoding framing.

    ``partial`` is the payload :meth:`ChunkedDecoder.feed` decoded in the
    same call before it met the violation.
    """

    partial = b""


class TruncatedBody(ValueError):
    """The connection ended before the announced body arrived."""

    def __init__(self, received: int, expected: int) -> None:
        super().__init__(
            f"body truncated: received {received} of {expected} bytes "
            "before the connection ended"
        )
        self.received = received
        self.expected = expected


class LengthDecoder:
    """Incremental ``Content-Length`` body: feed bytes, collect payload."""

    def __init__(self, length: int) -> None:
        self.expected = max(0, int(length))
        self.remaining = self.expected
        self.trailing = b""

    @property
    def done(self) -> bool:
        return self.remaining == 0

    def feed(self, data: bytes) -> bytes:
        """Consume ``data``; the payload portion (surplus → ``trailing``)."""
        if self.remaining == 0:
            self.trailing += data
            return b""
        take = data[: self.remaining]
        self.remaining -= len(take)
        if len(data) > len(take):
            self.trailing += data[len(take) :]
        return take

    def finish(self) -> None:
        """Declare EOF; raises :class:`TruncatedBody` if bytes are owed."""
        if self.remaining > 0:
            raise TruncatedBody(self.expected - self.remaining, self.expected)


class ChunkedDecoder:
    """Incremental chunked Transfer-Encoding decoder.

    ``feed`` returns the decoded payload bytes of whatever arrived;
    chunk boundaries carry no meaning to callers.  After the
    terminating 0-chunk and trailer section, ``done`` is true and any
    surplus bytes land in ``trailing`` (the next pipelined request).
    """

    _SIZE, _DATA, _DATA_CRLF, _TRAILER, _DONE = range(5)

    def __init__(self) -> None:
        self._state = self._SIZE
        self._buffer = b""
        self._chunk_remaining = 0
        self.trailing = b""

    @property
    def done(self) -> bool:
        return self._state == self._DONE

    def feed(self, data: bytes) -> bytes:
        if self._state == self._DONE:
            self.trailing += data
            return b""
        self._buffer += data
        out: List[bytes] = []
        try:
            self._decode(out)
        except BadChunkedBody as err:
            err.partial = b"".join(out)
            raise
        return b"".join(out)

    def _decode(self, out: List[bytes]) -> None:  # noqa: C901 - one state machine
        while True:
            if self._state == self._SIZE:
                newline = self._buffer.find(b"\n")
                if newline < 0:
                    if len(self._buffer) > CHUNK_SIZE_LINE_LIMIT:
                        raise BadChunkedBody(
                            "truncated or oversized chunk-size line"
                        )
                    break
                size_line = self._buffer[: newline + 1]
                if len(size_line) > CHUNK_SIZE_LINE_LIMIT + 1:
                    raise BadChunkedBody(
                        "truncated or oversized chunk-size line"
                    )
                self._buffer = self._buffer[newline + 1 :]
                token = size_line.split(b";", 1)[0].strip()
                try:
                    size = int(token, 16)
                except ValueError:
                    raise BadChunkedBody(
                        f"invalid chunk size {token[:32]!r}"
                    ) from None
                if size < 0:
                    raise BadChunkedBody(f"negative chunk size {size}")
                if size == 0:
                    self._state = self._TRAILER
                    continue
                self._chunk_remaining = size
                self._state = self._DATA
            elif self._state == self._DATA:
                if not self._buffer:
                    break
                take = self._buffer[: self._chunk_remaining]
                self._buffer = self._buffer[len(take) :]
                self._chunk_remaining -= len(take)
                out.append(take)
                if self._chunk_remaining == 0:
                    self._state = self._DATA_CRLF
            elif self._state == self._DATA_CRLF:
                if len(self._buffer) < 2:
                    break
                if self._buffer[:2] != b"\r\n":
                    raise BadChunkedBody("chunk data not terminated by CRLF")
                self._buffer = self._buffer[2:]
                self._state = self._SIZE
            elif self._state == self._TRAILER:
                newline = self._buffer.find(b"\n")
                if newline < 0:
                    if len(self._buffer) > CHUNK_SIZE_LINE_LIMIT:
                        raise BadChunkedBody("oversized trailer line")
                    break
                line = self._buffer[: newline + 1]
                self._buffer = self._buffer[newline + 1 :]
                if line in (b"\r\n", b"\n"):
                    self._state = self._DONE
                    self.trailing += self._buffer
                    self._buffer = b""
                    break
            else:  # pragma: no cover - _DONE handled on entry
                break

    def finish(self) -> None:
        """Declare EOF; an unterminated chunk stream is a framing error."""
        if self._state != self._DONE:
            raise BadChunkedBody("truncated chunk data")


class LineSplitter:
    """Byte stream → text lines with the oversized-line clip semantics.

    ``limit`` is read per call so callers may pass a module global that
    tests monkeypatch (the batch fuzz suite pins these semantics).
    """

    def __init__(self) -> None:
        self._buffer = b""
        self._clipped: Optional[bytes] = None

    def feed(self, chunk: bytes, limit: int) -> List[str]:
        lines: List[str] = []
        self._buffer += chunk
        while True:
            if self._clipped is not None:
                newline = self._buffer.find(b"\n")
                if newline < 0:
                    self._buffer = b""  # keep discarding the oversized tail
                    break
                lines.append(self._clipped.decode("utf-8", "replace"))
                self._clipped = None
                self._buffer = self._buffer[newline + 1 :]
                continue
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = self._buffer[: newline + 1]
                self._buffer = self._buffer[newline + 1 :]
                if len(line) > limit:
                    line = line[:limit]
                lines.append(line.decode("utf-8", "replace"))
                continue
            if len(self._buffer) > limit:
                self._clipped = self._buffer[:limit]
                self._buffer = b""
            break
        return lines

    def finish(self) -> List[str]:
        """Flush the final unterminated line, if any."""
        if self._clipped is not None:
            tail = [self._clipped.decode("utf-8", "replace")]
            self._clipped = None
            return tail
        if self._buffer:
            tail = [self._buffer.decode("utf-8", "replace")]
            self._buffer = b""
            return tail
        return []


def parse_request_head(
    head: bytes,
) -> Tuple[str, str, str, Dict[str, str]]:
    """Parse ``method, target, version, headers`` from a raw request head.

    ``head`` is everything before the blank line (exclusive).  Raises
    ``ValueError`` on a malformed request line or header; duplicate
    headers are comma-joined per RFC 7230 §3.2.2.
    """
    lines = head.split(b"\n")
    request_line = lines[0].rstrip(b"\r").decode("latin-1")
    parts = request_line.split()
    if len(parts) == 2:
        method, target = parts
        version = "HTTP/0.9"
    elif len(parts) == 3:
        method, target, version = parts
        if not version.startswith("HTTP/"):
            raise ValueError(f"malformed HTTP version {version!r}")
    else:
        raise ValueError(f"malformed request line {request_line!r}")
    headers: Dict[str, str] = {}
    for raw in lines[1:]:
        raw = raw.rstrip(b"\r")
        if not raw:
            continue
        if raw[:1] in (b" ", b"\t"):
            raise ValueError("obsolete header line folding is not supported")
        name, sep, value = raw.partition(b":")
        if not sep or not name.strip():
            raise ValueError(f"malformed header line {raw[:64]!r}")
        key = name.strip().decode("latin-1").lower()
        text = value.strip().decode("latin-1")
        if key in headers:
            headers[key] = f"{headers[key]}, {text}"
        else:
            headers[key] = text
    return method, target, version, headers


__all__ = [
    "BadChunkedBody",
    "CHUNK_SIZE_LINE_LIMIT",
    "ChunkedDecoder",
    "LengthDecoder",
    "LineSplitter",
    "TruncatedBody",
    "parse_request_head",
]
