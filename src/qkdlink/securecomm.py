"""OTP-encrypted, key-consuming byte-stream messaging over the classical channel.

Payloads are XORed with never-reused key bytes drawn from the shared
:class:`~qkdlink.postproc.KeyBuffer`, which stores and hands out its key
packed, so a frame is sealed and opened by XORing two byte arrays.  A session
starts with a cheap parity handshake: each side takes the first 64 buffered
bits, burned whether or not the parities match, and discloses their parity;
after that the two directions consume the two lanes of the buffer, its even
and odd page stripes, so duplex traffic cannot collide on key ranges.  A
frame is the bytes :func:`otp_seal` returns and :func:`otp_open` takes, sent
as one CHAT_DATA payload; it carries at most ``CHAT_CHUNK_BYTES`` (4 KiB,
one lane page of key) and is sealed and opened with one take of its own.  A
frame the lane cannot cover raises :class:`~qkdlink.postproc.KeyExhausted`
at once, after every earlier frame; nothing waits for key.  Frames are not
authenticated: a flipped ciphertext bit flips the same plaintext bit.
"""

from __future__ import annotations

import numpy as np

from .postproc import KeyBuffer
from .session import MsgType, ProtocolError

HANDSHAKE_BITS = 64
CHAT_CHUNK_BYTES = KeyBuffer.PAGE_BITS // 8  # one frame takes at most one lane page of key


class ChatRefused(ProtocolError):
    """Handshake failed: peers hold different key material."""


class KeyStreamDesync(ProtocolError):
    """Key offsets out of step; the chat session must abort."""


def _xor(data: bytes, key: np.ndarray) -> bytes:
    """``data`` XOR the packed key bytes of one take, which are exactly as many."""
    return (np.frombuffer(data, dtype=np.uint8) ^ key).tobytes()


def otp_seal(plaintext: bytes, buf: KeyBuffer, lane: int = 0) -> bytes:
    """Encrypt with the next key bits of a lane, consuming them exactly once.

    Returns the frame: the 8-byte big-endian offset of its first key bit,
    which may span page boundaries, then the ciphertext.  Raises, consuming
    nothing, ``ValueError`` for a plaintext over ``CHAT_CHUNK_BYTES``, which
    every :func:`otp_open` refuses, and
    :class:`~qkdlink.postproc.KeyExhausted` when the lane holds fewer than
    8*len(plaintext) unconsumed bits.
    """
    if len(plaintext) > CHAT_CHUNK_BYTES:
        raise ValueError(f"plaintext of {len(plaintext)} bytes, over {CHAT_CHUNK_BYTES}")
    offset = buf.next_range_start(lane)
    return offset.to_bytes(8, "big") + _xor(plaintext, buf.take(8 * len(plaintext), lane=lane))


def otp_open(frame: bytes, buf: KeyBuffer, lane: int = 0) -> bytes:
    """Decrypt a frame of :func:`otp_seal`, consuming the mirrored key range on the lane.

    Before any key is taken, a frame shorter than its offset, one over
    ``CHAT_CHUNK_BYTES`` and one whose offset is not the lane's cursor (a
    dropped, repeated or reordered frame) are refused, in that order.  Each
    lane has one reader, so the take starts at the cursor just checked.
    """
    if len(frame) < 8:
        raise KeyStreamDesync("short chat frame")
    if len(frame) > 8 + CHAT_CHUNK_BYTES:
        raise ProtocolError(f"chat frame of {len(frame) - 8} bytes, over {CHAT_CHUNK_BYTES}")
    offset, expected = int.from_bytes(frame[:8], "big"), buf.next_range_start(lane)
    if offset != expected:
        raise KeyStreamDesync(f"frame uses key at bit {offset}, receiver cursor at {expected}")
    return _xor(memoryview(frame)[8:], buf.take(8 * (len(frame) - 8), lane=lane))


class ChatEndpoint:
    """Duplex OTP messaging endpoint bound to a channel and a key buffer.

    The transmitter-side terminal sends on the even page stripe and receives
    on the odd one; the receiver-side terminal mirrors that.  Every frame,
    the EOF marker too, must start at the receive lane's cursor.
    """

    def __init__(self, chan, buf: KeyBuffer, role: str):
        if role not in ("alice", "bob"):
            raise ValueError("role must be alice or bob")
        self.chan = chan
        self.buf = buf
        self.send_lane = 0 if role == "alice" else 1
        self.recv_lane = 1 - self.send_lane

    def handshake(self) -> None:
        """Take the first 64 key bits and exchange their parity; establish iff it matches.

        A single flipped bit anywhere in the window flips the parity, so
        desynchronized buffers are refused before any key is spent on
        traffic.  The window is taken (even lane, page 0) before its parity
        is disclosed, so it is burned on a refusal too.
        """
        buf = self.buf
        if len(buf) < HANDSHAKE_BITS or buf.consumed_total > 0:
            raise ChatRefused(
                f"need {HANDSHAKE_BITS} fresh key bits for the handshake, have {len(buf)} "
                f"(consumed {buf.consumed_total})"
            )
        window = buf.take(HANDSHAKE_BITS, lane=0)
        parity = int.from_bytes(window.tobytes(), "big").bit_count() & 1
        self.chan.send(MsgType.CHAT_HANDSHAKE, bytes([parity]))
        msg = self.chan.recv(MsgType.CHAT_HANDSHAKE)
        if len(msg.payload) != 1:
            raise ChatRefused("malformed handshake payload")
        if msg.payload[0] != parity:
            raise ChatRefused("key parities differ: buffers are desynchronized")

    def send_bytes(self, data: bytes) -> int:
        """Seal and transmit in frames of up to ``CHAT_CHUNK_BYTES``; returns frames sent.

        Each frame is sealed with one take of its own, so a frame the lane
        cannot cover raises after every earlier frame was sent.
        """
        starts = range(0, len(data), CHAT_CHUNK_BYTES)
        for pos in starts:
            self.chan.send(MsgType.CHAT_DATA,
                           otp_seal(data[pos : pos + CHAT_CHUNK_BYTES], self.buf, self.send_lane))
        return len(starts)

    def send_eof(self) -> None:
        self.chan.send(MsgType.CHAT_DATA, otp_seal(b"", self.buf, self.send_lane))

    def recv_frame(self) -> bytes | None:
        """One frame's plaintext, or None on the peer's EOF marker."""
        frame = self.chan.recv(MsgType.CHAT_DATA).payload
        # data frames are never empty: an empty one is the EOF marker
        return otp_open(frame, self.buf, lane=self.recv_lane) or None

    def recv_all(self) -> bytes:
        """Collect plaintext through :meth:`recv_frame` until the peer's EOF marker.

        A frame that fails raises with exactly the frames before it consumed.
        """
        parts = []
        while (part := self.recv_frame()) is not None:
            parts.append(part)
        return b"".join(parts)
