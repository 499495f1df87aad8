"""Integrity-checked JSON framing for coordinator ↔ worker links.

One frame = a fixed 14-byte header followed by a UTF-8 JSON body::

    >H  magic      0x5746 ("WF") — catches stream desync immediately
    >I  length     body bytes, hard-capped at MAX_FRAME_BYTES
    >I  seq        per-connection sender sequence number (1-based;
                   0 = unsequenced, never deduplicated)
    >I  crc32      CRC-32 of seq (big-endian) + body

The envelope is what lets the cluster trust a *hostile* link (PR 8):

- a flipped bit in the length prefix raises a typed
  :class:`~repro.errors.FrameTooLargeError` **before** any allocation —
  a corrupt 4-byte length can never drive an unbounded read;
- a flipped bit anywhere else fails the magic or CRC check and raises
  :class:`~repro.errors.FrameCorruptError` — framing cannot be resumed
  after corruption, so the connection is condemned and the transport
  layer reconnects (or, with the worker gone, fails over);
- a duplicated frame re-arrives with the same ``seq`` and is silently
  dropped by the receiver (sequence numbers are per-connection and
  strictly increasing from each sender).

One reader decodes frames on both ends of the link:
:class:`FrameReader` makes ``select()``-driven reads from a file
descriptor, against a deadline so a hung worker can never wedge the
coordinator (the worker reads with no deadline, blocking until the next
frame or EOF).  A timeout raises :class:`FrameTimeout` *without*
discarding partial bytes — the next call resumes mid-frame, which is
what lets the retry ladder keep waiting for a slow worker's reply; a
clean EOF at a frame boundary returns ``None``.
"""

from __future__ import annotations

import json
import os
import select
import struct
import zlib
from typing import Any, Dict, Optional, Tuple

from repro.core.stats import monotonic_seconds
from repro.errors import (
    ClusterError,
    FrameCorruptError,
    FrameTooLargeError,
    ProtocolError,
)

#: Hard cap on one frame body (snapshots of realistic partitions are
#: ~KBs; anything near this size is a protocol bug, not data).  Enforced
#: on encode and — critically — on the *declared* length before any read.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Two magic bytes ("WF", Whirlpool Frame) opening every header.  A
#: reader positioned anywhere but a frame boundary fails this check
#: immediately instead of interpreting payload bytes as a length.
FRAME_MAGIC = 0x5746

_HEADER = struct.Struct(">HIII")
_SEQ = struct.Struct(">I")

#: Full header size in bytes (magic + length + seq + crc32).
HEADER_BYTES = _HEADER.size


class FrameTimeout(ClusterError):
    """A :class:`FrameReader` deadline expired before a full frame
    arrived.  Partial bytes stay buffered; reading may be resumed."""


def frame_crc(seq: int, body: bytes) -> int:
    """The integrity checksum carried by a frame: CRC-32 over the
    sequence number (big-endian) and the body bytes."""
    return zlib.crc32(body, zlib.crc32(_SEQ.pack(seq & 0xFFFFFFFF))) & 0xFFFFFFFF


def encode_frame(payload: Dict[str, Any], seq: int = 0) -> bytes:
    """Serialize one message to its on-wire bytes (header + JSON)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(len(body), MAX_FRAME_BYTES)
    return _HEADER.pack(FRAME_MAGIC, len(body), seq & 0xFFFFFFFF, frame_crc(seq, body)) + body


def decode_header(header: bytes) -> Tuple[int, int, int]:
    """Validate a 14-byte header; return ``(length, seq, crc)``.

    Raises the typed protocol errors — :class:`FrameCorruptError` on a
    magic mismatch, :class:`FrameTooLargeError` on an oversized declared
    length — without touching the body.
    """
    magic, length, seq, crc = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameCorruptError(
            "bad_magic", f"bad frame magic 0x{magic:04x} (stream desync or corruption)"
        )
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(length, MAX_FRAME_BYTES)
    return length, seq, crc


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse a frame body back into a message dictionary."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("garbage", f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            "garbage", f"frame payload must be an object, got {type(payload).__name__}"
        )
    return payload


class FrameReader:
    """Deadline-capable, integrity-checking frame reads from a file
    descriptor (either end of a shard's socket).

    Buffers whatever ``select`` hands us; :meth:`read` assembles at most
    one frame per call, verifies magic/length/CRC through the typed
    protocol errors, and silently drops duplicated frames (``seq`` at or
    below the highest already delivered).  All state is single-owner
    (the coordinator thread driving this shard, or the worker's request
    loop), so there is no locking here.
    """

    __slots__ = ("_fd", "_buffer", "_eof", "_last_seq")

    def __init__(self, fd: int) -> None:
        self._fd = fd
        self._buffer = bytearray()
        self._eof = False
        self._last_seq = 0

    def _fill(self, deadline_at: Optional[float]) -> None:
        """Pull available bytes, waiting until ``deadline_at`` at most."""
        if self._eof:
            raise ClusterError("read past EOF")
        timeout: Optional[float] = None
        if deadline_at is not None:
            timeout = max(0.0, deadline_at - monotonic_seconds())
        readable, _, _ = select.select([self._fd], [], [], timeout)
        if not readable:
            raise FrameTimeout("no frame within deadline")
        # Bounded read keeps one giant frame from monopolizing the call;
        # the loop in read() comes back for the rest.  A reset connection
        # is EOF for framing purposes — there is nothing left to resync.
        try:
            chunk = os.read(self._fd, 1 << 16)
        except OSError:
            chunk = b""
        if not chunk:
            self._eof = True
            return
        self._buffer.extend(chunk)

    def read(self, deadline_at: Optional[float]) -> Optional[Dict[str, Any]]:
        """One verified message, or ``None`` on EOF at a frame boundary.

        Raises :class:`FrameTimeout` when ``deadline_at`` (monotonic
        seconds) passes first; buffered partial bytes are kept so a
        later call can finish the frame.  Raises the typed
        :class:`~repro.errors.ProtocolError` family on corruption; a
        duplicated frame (stale ``seq``) is dropped, never returned.
        """
        while True:
            if len(self._buffer) >= HEADER_BYTES:
                length, seq, crc = decode_header(bytes(self._buffer[:HEADER_BYTES]))
                if len(self._buffer) >= HEADER_BYTES + length:
                    body = bytes(self._buffer[HEADER_BYTES : HEADER_BYTES + length])
                    del self._buffer[: HEADER_BYTES + length]
                    if frame_crc(seq, body) != crc:
                        raise FrameCorruptError("crc_mismatch", "frame CRC mismatch")
                    if seq and seq <= self._last_seq:
                        continue  # duplicated delivery: drop, keep reading
                    if seq:
                        self._last_seq = seq
                    return decode_body(body)
            if self._eof:
                if self._buffer:
                    raise ProtocolError("truncated", "EOF mid-frame")
                return None
            self._fill(deadline_at)

