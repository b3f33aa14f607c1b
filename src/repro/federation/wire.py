"""Framed JSON over ``multiprocessing`` connections.

The federation reuses the runtime codec's length+CRC32 framing
(:func:`~repro.runtime.codec.encode_blob`) for every request and reply,
so a corrupted shard message is detected exactly like a corrupted
negotiation frame — the pipe gives delivery, the frame gives integrity.
Rationals travel as exact ``"n/d"`` strings throughout
(:func:`~repro.runtime.codec.parse_rational` on the way back in).

Onboarding requests carry a whole serialised tenant tree, far bigger
than any negotiation frame, so the federation frame bound is its own,
larger constant.
"""

from __future__ import annotations

import json
import zlib
from typing import Optional

from ..exceptions import CodecError
from ..runtime.codec import FRAME_HEADER, encode_blob

#: Upper bound on a federation frame body: whole-tree onboarding requests
#: and ``result`` replies are far bigger than negotiation frames.
MAX_FEDERATION_FRAME = 1 << 26


def decode_blob(data: bytes, max_frame: int = MAX_FEDERATION_FRAME) -> bytes:
    """Synchronous inverse of :func:`~repro.runtime.codec.encode_blob` for
    message-oriented transports that deliver whole frames (the pipes of
    the federation service): validate header, bound and CRC32, return the
    body.  Every malformation raises
    :class:`~repro.exceptions.CodecError`."""
    if len(data) < FRAME_HEADER.size:
        raise CodecError(f"truncated frame header ({len(data)} bytes)")
    length, crc = FRAME_HEADER.unpack_from(data)
    body = data[FRAME_HEADER.size:]
    if length != len(body):
        raise CodecError(
            f"frame length {length} disagrees with body of {len(body)} bytes")
    if length > max_frame:
        raise CodecError(
            f"frame of {length} bytes exceeds {max_frame}", recoverable=False)
    if zlib.crc32(body) != crc:
        raise CodecError(f"checksum mismatch on frame {body[:80]!r}")
    return body


def send_frame(conn, payload: dict) -> None:
    """Send one framed JSON object over a multiprocessing connection."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    conn.send_bytes(encode_blob(body))


def recv_frame(conn) -> dict:
    """Receive one framed JSON object; raises
    :class:`~repro.exceptions.CodecError` on any malformation and lets the
    connection's own ``EOFError``/``OSError`` propagate (the caller's
    crash-detection signal)."""
    body = decode_blob(conn.recv_bytes())
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CodecError(f"undecodable federation frame {body[:80]!r}") from exc
    if not isinstance(payload, dict):
        raise CodecError(f"federation frame is not an object: {body[:80]!r}")
    return payload


def recv_frame_timeout(conn, timeout: Optional[float]) -> Optional[dict]:
    """Like :func:`recv_frame`, but returns ``None`` if nothing arrives
    within *timeout* seconds (``None`` waits forever)."""
    if timeout is not None and not conn.poll(timeout):
        return None
    return recv_frame(conn)
