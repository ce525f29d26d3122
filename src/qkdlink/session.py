"""Two-terminal protocol engine: wire format, channels, the two burst engines.

The classical channel carries length-prefixed binary messages (4-byte
big-endian length of type+payload, 1-byte type, payload laid out as
``LAYOUTS`` declares for every message the burst engines exchange, the
pulse stream included).  A burst runs one fixed sequence of phases on both
ends: handshake, qubit exchange, frame sync, sifting, QBER check, error
correction, privacy amplification.  The code order of :func:`run_burst_alice`
and :func:`run_burst_bob` is that phase order, and each receive names the
message types it accepts and the one ABORT reason the peer can send there:
no lock at frame sync, a failed QBER check, or a rejected key hash.  A
message carries only what its receiver uses and cannot take from the shared
configuration, which HELLO's fingerprint pins: BURST_START is the burst id
alone, FRAME_OFFSET_ACK the FIFO choice and R_N, and each Winnow pass's
WINNOW_PARITIES from Alice also carries that pass's layout seed.
The engines and ``simulate --eve-log`` draw a burst's pulses and clicks
through one recipe: :func:`transmitted_burst` and :func:`received_burst`.

The quantum channel of the real system is replaced by a simulation
transport that hands Bob the encoding of the burst: its pulse count and the
two PRBS11 states that fix every pulse's basis and bit (the receiver draws
the detected photons itself).  In process that is the :class:`TxBurst`
itself; between two terminals it is one 12-byte SIM_PULSESTREAM message on
the classical stream, between BURST_START and SYNC_SUBSET.  That message is
simulation plumbing only and is excluded from any security consideration.
"""

from __future__ import annotations

import hashlib
import queue
import socket
import struct
import time
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import postproc
from .core import SimConfig, Worker, format_config, rng_stream
from .eve import Eavesdropper
from .photonics import PRBS11_MASK, RxBurst, TxBurst, generate_burst, transmit_and_detect
from .timing import FifoChoice, NoLockError, nnc_match, offset_window, synchronize

PROTOCOL_MAGIC = b"QKL1"
PROTOCOL_VERSION = 8
DEFAULT_PORT = 47000
DEFAULT_PHASE_TIMEOUT = 30.0
MAX_PAYLOAD = 2**32 - 2  # length field also covers the type byte


class ProtocolError(RuntimeError):
    """Malformed, unexpected or truncated traffic; the session cannot continue."""


class MsgType(IntEnum):
    HELLO = 0x01
    BURST_START = 0x02
    SYNC_SUBSET = 0x03
    FRAME_OFFSET_ACK = 0x04
    BASES = 0x05
    QBER_SAMPLE = 0x06
    ABORT = 0x07
    WINNOW_PARITIES = 0x08
    WINNOW_SYNDROMES = 0x09
    PA_SEED = 0x0B
    KEY_HASH = 0x0C
    CHAT_DATA = 0x0D
    CHAT_HANDSHAKE = 0x0E
    SIM_PULSESTREAM = 0x0F


class AbortReason(IntEnum):
    QBER = 1
    NO_LOCK = 2
    BURST_REJECTED = 3


# --- wire format --------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    msg_type: int
    payload: bytes


def _known_type(msg_type: int) -> MsgType:
    if msg_type not in MsgType._value2member_map_:
        raise ProtocolError(f"unknown message type 0x{msg_type:02X}")
    return MsgType(msg_type)


def _accepted(msg_type: int, types: tuple) -> MsgType:
    """``msg_type`` if it is one of ``types``; an unknown or unexpected type is a ProtocolError."""
    msg_type = _known_type(msg_type)
    if msg_type not in types:
        raise ProtocolError(f"expected {'/'.join(MsgType(t).name for t in types)}, "
                            f"got {msg_type.name}")
    return msg_type


def encode_message(msg: Message) -> bytes:
    _known_type(msg.msg_type)
    if len(msg.payload) > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(msg.payload)} bytes exceeds frame limit")
    return struct.pack(">IB", len(msg.payload) + 1, msg.msg_type) + msg.payload


def decode_message(data: bytes) -> Message:
    """Exact inverse of encode_message for one complete frame."""
    if len(data) < 5:
        raise ProtocolError(f"truncated frame: {len(data)} bytes")
    (length,) = struct.unpack(">I", data[:4])
    if length < 1 or len(data) != 4 + length:
        raise ProtocolError(f"frame length {length} does not match {len(data)} bytes on wire")
    return Message(msg_type=_known_type(data[4]), payload=data[5:])


class ChannelClosed(ProtocolError):
    pass


class SocketChannel:
    """Length-prefixed message stream over a TCP socket, read through one buffered
    reader: a body larger than its buffer is read straight into the message's bytes."""

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_PHASE_TIMEOUT):
        self.sock = sock
        self.sock.settimeout(timeout)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            # Alice sends some messages back to back (WINNOW_SYNDROMES then the
            # next pass's WINNOW_PARITIES, PA_SEED then KEY_HASH); with Nagle's
            # algorithm the second waits for the peer's delayed ACK, tens of ms each time
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = sock.makefile("rb")
        self.tap: list | None = None  # if set, every sent (type, payload) is appended

    def send(self, msg_type: int, payload: bytes = b"") -> None:
        if self.tap is not None:
            self.tap.append((MsgType(msg_type), payload))
        self.sock.sendall(encode_message(Message(msg_type, payload)))

    def _recv_exact(self, n: int, at_boundary: bool = False) -> bytes:
        try:
            data = self._reader.read(n)
        except socket.timeout as exc:
            raise ProtocolError("receive timeout") from exc
        if len(data) < n:
            torn = f" mid-frame ({len(data)}/{n} bytes)" if data or not at_boundary else ""
            raise ChannelClosed("peer closed" + torn)  # "peer closed" alone: between messages
        return data

    def recv(self, *types: int) -> Message:
        """One message of one of ``types``; its header is checked before any of its
        body is read, so an unknown or unexpected type is refused at once."""
        (length,) = struct.unpack(">I", self._recv_exact(4, at_boundary=True))
        if length < 1:
            raise ProtocolError("zero-length frame")
        msg_type = _accepted(self._recv_exact(1)[0], types)
        return Message(msg_type=msg_type, payload=self._recv_exact(length - 1))

    def close(self) -> None:
        """Shuts the socket down first, so a receive blocked on another thread returns."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.close()
        self.sock.close()


class LoopChannel:
    """In-process channel endpoint; frames still pass through the codec.  Each
    direction is a ``queue.SimpleQueue`` of encoded frames; ``None`` closes it."""

    def __init__(self, rx: queue.SimpleQueue, tx: queue.SimpleQueue, timeout=DEFAULT_PHASE_TIMEOUT):
        self._rx = rx
        self._tx = tx
        self.timeout = timeout
        self.tap: list | None = None

    def send(self, msg_type: int, payload: bytes = b"") -> None:
        if self.tap is not None:
            self.tap.append((MsgType(msg_type), payload))
        self._tx.put(encode_message(Message(msg_type, payload)))

    def recv(self, *types: int) -> Message:
        """One message of one of ``types``, checked after it is decoded."""
        try:
            data = self._rx.get(timeout=self.timeout)
        except queue.Empty as exc:
            raise ProtocolError("receive timeout") from exc
        if data is None:
            raise ChannelClosed("peer closed")
        msg = decode_message(data)
        _accepted(msg.msg_type, types)
        return msg

    def close(self) -> None:
        self._tx.put(None)


def make_loop_pair(timeout: float = DEFAULT_PHASE_TIMEOUT) -> tuple[LoopChannel, LoopChannel]:
    q_ab, q_ba = queue.SimpleQueue(), queue.SimpleQueue()
    return LoopChannel(q_ba, q_ab, timeout), LoopChannel(q_ab, q_ba, timeout)


# --- payload packing ----------------------------------------------------------


def pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bits(data: bytes, n: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n)


def config_fingerprint(cfg: SimConfig) -> bytes:
    return hashlib.sha256(format_config(cfg).encode("utf-8")).digest()[:8]


def check_hello(hello: tuple, cfg: SimConfig, n_bursts: int) -> None:
    magic, version, fingerprint, bursts = hello
    if magic != PROTOCOL_MAGIC:
        raise ProtocolError("malformed HELLO")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version mismatch: {version} != {PROTOCOL_VERSION}")
    if fingerprint != config_fingerprint(cfg):
        raise ProtocolError("configuration fingerprint mismatch between terminals")
    if bursts != n_bursts:
        raise ProtocolError(f"burst count mismatch: peer wants {bursts}, local {n_bursts}")


# --- quantum transport ---------------------------------------------------------


class InProcessTransport:
    """Direct hand-off of the :class:`TxBurst` between two threads."""

    def __init__(self, timeout: float = DEFAULT_PHASE_TIMEOUT):
        self._q: queue.Queue = queue.Queue()
        self.timeout = timeout

    def deliver(self, tx: TxBurst) -> None:
        self._q.put(tx)

    def receive(self) -> TxBurst:
        try:
            tx = self._q.get(timeout=self.timeout)
        except queue.Empty as exc:
            raise ProtocolError("quantum transport timeout") from exc
        if tx is None:
            raise ChannelClosed("transmitter closed the quantum transport")
        return tx

    def close(self) -> None:
        """Ends a pending or later :meth:`receive` at once."""
        self._q.put(None)


class NetworkTransport:
    """The :class:`TxBurst` serialized as one SIM_PULSESTREAM message on a channel;
    a terminal passes its classical channel, so one connection carries both."""

    def __init__(self, chan):
        self.chan = chan

    def deliver(self, tx: TxBurst) -> None:
        self.chan.send(MsgType.SIM_PULSESTREAM, pack_tx_burst(tx))

    def receive(self) -> TxBurst:
        return unpack_tx_burst(self.chan.recv(MsgType.SIM_PULSESTREAM).payload)


# --- payload layouts: every burst message, declared once ---------------------------


@dataclass(frozen=True)
class Layout:
    """Fixed struct fields, then n entries per section, where n is the last field
    (a u32) when there are sections.  Fixed fields are big-endian, as is the
    frame header; sections are arrays in their own (little-endian) byte order.
    Section kinds: "positions" (n u32, strictly increasing, below the
    receiver's bound), "bits" (n bits, packed) and "bytes" (n u8, below the
    receiver's bound).  ``limits`` holds a closed (lo, hi) range for each
    leading fixed field.  Every message the burst engines exchange,
    SIM_PULSESTREAM included, has one.
    """

    fields: str
    sections: tuple[str, ...] = ()
    limits: tuple[tuple[float, float], ...] = ()


_ITEM = {"positions": "<u4", "bytes": "u1"}  # "bits" are packed
_QBER = (0.0, 1.0)
_REASON = (min(AbortReason), max(AbortReason))  # AbortReason values are contiguous
_HASH = f"{postproc.KEY_HASH_BITS // 8}s"
_PRBS11 = (1, PRBS11_MASK)  # the nonzero PRBS11 states
_FIFO = (min(FifoChoice), max(FifoChoice))

# (sender, message type) -> layout
LAYOUTS = {
    # magic, protocol version, configuration fingerprint, bursts
    ("alice", MsgType.HELLO): Layout(">4sH8sI"),
    ("bob", MsgType.HELLO): Layout(">4sH8sI"),
    # burst id
    ("alice", MsgType.BURST_START): Layout(">I"),
    # bases and bits of the first n pulses
    ("alice", MsgType.SYNC_SUBSET): Layout(">I", ("bits", "bits")),
    # FIFO choice, R_N
    ("bob", MsgType.FRAME_OFFSET_ACK): Layout(">Bi", limits=(_FIFO,)),
    # matched pulse indices and Bob's bases there; Alice's basis-agreement mask
    ("bob", MsgType.BASES): Layout(">I", ("positions", "bits")),
    ("alice", MsgType.BASES): Layout(">I", ("bits",)),
    # sample positions in the sifted key and Alice's bits there; Bob's QBER on them
    ("alice", MsgType.QBER_SAMPLE): Layout(">I", ("positions", "bits")),
    ("bob", MsgType.QBER_SAMPLE): Layout(">d", limits=(_QBER,)),
    # reason, QBER
    ("alice", MsgType.ABORT): Layout(">Bd", limits=(_REASON, _QBER)),
    ("bob", MsgType.ABORT): Layout(">Bd", limits=(_REASON, _QBER)),
    # Winnow pass, its layout seed and Alice's block parities; the blocks whose
    # parities differ; Alice's syndromes of those
    ("alice", MsgType.WINNOW_PARITIES): Layout(">BQI", ("bits",)),
    ("bob", MsgType.WINNOW_PARITIES): Layout(">I", ("positions",)),
    ("alice", MsgType.WINNOW_SYNDROMES): Layout(">I", ("bytes",)),
    # Toeplitz seed
    ("alice", MsgType.PA_SEED): Layout(">I", ("bits",)),
    # verification hash of the corrected key and the Toeplitz seed
    ("alice", MsgType.KEY_HASH): Layout(">" + _HASH),
    ("bob", MsgType.KEY_HASH): Layout(">" + _HASH),
    # the simulated quantum channel: pulse count, PRBS11 states of the bases and the bits
    ("alice", MsgType.SIM_PULSESTREAM): Layout(">QHH", limits=((0, 2**64 - 1), _PRBS11, _PRBS11)),
}


def pack_payload(sender: str, msg_type: MsgType, *values) -> bytes:
    """The payload of ``msg_type`` from ``sender``: its fixed fields, then its sections."""
    layout = LAYOUTS[sender, msg_type]
    k = len(values) - len(layout.sections)
    fixed = values[:k] + ((len(values[k]),) if layout.sections else ())
    # one join, of the sections themselves: a burst-sized payload is copied once
    return b"".join([struct.pack(layout.fields, *fixed), *(
        pack_bits(v) if kind == "bits" else np.ascontiguousarray(v, dtype=_ITEM[kind])
        for kind, v in zip(layout.sections, values[k:]))])


def unpack_payload(sender: str, msg_type: MsgType, payload: bytes, n: int | None = None,
                   bound: int | None = None) -> tuple:
    """Inverse of :func:`pack_payload`; anything malformed or out of range is a ProtocolError.

    ``n`` is the section count the receiver expects of a layout with sections
    (a layout without any, such as ABORT, ignores it), ``bound`` the exclusive
    upper limit of positions and bytes.  Sections come back at their wire
    width: uint32 positions and uint8 bytes as read-only views of ``payload``,
    bits unpacked.
    """
    layout = LAYOUTS[sender, msg_type]
    what = f"{MsgType(msg_type).name} from {sender}"
    head = struct.calcsize(layout.fields)
    if len(payload) < head:
        raise ProtocolError(f"truncated {what}: {len(payload)} bytes")
    values = list(struct.unpack(layout.fields, payload[:head]))
    count = values.pop() if layout.sections else 0
    sizes = [-(-count // 8) if kind == "bits" else count * np.dtype(_ITEM[kind]).itemsize
             for kind in layout.sections]
    if len(payload) != head + sum(sizes):
        raise ProtocolError(f"malformed {what}: {len(payload)} bytes, expected {head + sum(sizes)}")
    if layout.sections and n is not None and count != n:
        raise ProtocolError(f"{what} carries {count} entries, expected {n}")
    for value, (lo, hi) in zip(values, layout.limits):
        if not lo <= value <= hi:
            raise ProtocolError(f"{what}: {value} outside [{lo}, {hi}]")
    pos = head
    for kind, size in zip(layout.sections, sizes):
        raw, pos = np.frombuffer(payload, np.uint8, size, pos), pos + size
        if kind == "bits":
            values.append(unpack_bits(raw, count))
            continue
        section = raw.view(_ITEM[kind])
        if count and (section.max() >= bound
                      or kind == "positions" and np.any(section[1:] <= section[:-1])):
            raise ProtocolError(f"{what}: {kind} out of order or not below {bound}")
        values.append(section)
    return tuple(values)


def pack_tx_burst(tx: TxBurst) -> bytes:
    return pack_payload("alice", MsgType.SIM_PULSESTREAM, tx.n, tx.state_bases, tx.state_bits)


def unpack_tx_burst(payload: bytes) -> TxBurst:
    return TxBurst(*unpack_payload("alice", MsgType.SIM_PULSESTREAM, payload))


# --- burst outcome --------------------------------------------------------------


@dataclass
class BurstOutcome:
    """One terminal's account of a burst, filled in as the burst proceeds."""

    burst_id: int
    sifted_bits: int = 0
    qber: float = float("nan")
    secure_bits: int = 0
    elapsed_s: float = 0.0
    offset_frames: int | None = None  # R_N, signed; None until frame sync locks
    fifo_choice: int = 0
    disclosed_bits: int = 0
    aborted_reason: str | None = None
    sync_curve: list | None = None  # (offset_frames, interim qber) of Bob's search

    def sifted_kbps(self, burst_seconds: float) -> float:
        return self.sifted_bits / burst_seconds / 1e3

    def secure_kbps(self, burst_seconds: float) -> float:
        return self.secure_bits / burst_seconds / 1e3


@dataclass
class SessionResult:
    role: str
    outcomes: list[BurstOutcome]
    key_buffer: postproc.KeyBuffer

    @property
    def any_aborted(self) -> bool:
        return any(o.aborted_reason is not None for o in self.outcomes)


class _Abort(Exception):
    """Ends a burst early with ``reason`` and ``qber``; ``notify`` tells the peer first."""

    def __init__(self, reason: AbortReason, qber: float, notify: bool = True):
        super().__init__(reason.name)
        self.reason, self.qber, self.notify = reason, qber, notify


class _Burst:
    """One terminal's side of a burst: its outcome, its messages, and the single
    exit through which an :class:`_Abort` leaves it.  The engines' code order is
    the phase order; each :meth:`recv` names the one ABORT reason it accepts."""

    def __init__(self, k: int, chan, role: str):
        self.chan, self.role = chan, role
        self.peer = "bob" if role == "alice" else "alice"
        self.out = BurstOutcome(burst_id=k)
        self.t0 = time.monotonic()

    def send(self, msg_type: MsgType, *values) -> None:
        self.chan.send(msg_type, pack_payload(self.role, msg_type, *values))

    def recv(self, *types: MsgType, n: int | None = None, bound: int | None = None,
             abort: AbortReason | None = None) -> tuple:
        """The unpacked payload of one of ``types``; the peer's ABORT with reason
        ``abort`` ends the burst, and one with any other reason is a ProtocolError."""
        msg = self.chan.recv(*types, *(() if abort is None else (MsgType.ABORT,)))
        values = unpack_payload(self.peer, msg.msg_type, msg.payload, n, bound)
        if msg.msg_type == MsgType.ABORT:
            if values[0] != abort:
                raise ProtocolError(f"ABORT({AbortReason(values[0]).name}) from {self.peer} "
                                    f"where only {abort.name} can occur")
            raise _Abort(abort, values[1], notify=False)
        return values

    def __enter__(self) -> _Burst:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        aborted = isinstance(exc, _Abort)
        if aborted:
            if exc.notify:
                self.send(MsgType.ABORT, exc.reason, exc.qber)
            self.out.aborted_reason = exc.reason.name.lower()
            self.out.qber = exc.qber
        self.out.elapsed_s = time.monotonic() - self.t0
        return aborted


# --- the two burst engines ----------------------------------------------------


def transmitted_burst(cfg: SimConfig, k: int) -> TxBurst:
    """The pulses Alice sends in burst k, drawn from the burst's own stream."""
    return generate_burst(cfg, rng_stream(cfg.rng_seed, f"txgen:{k}"))


def received_burst(cfg: SimConfig, k: int, tx: TxBurst, eve_log: list | None = None) -> RxBurst:
    """Bob's clicks of burst k, after Eve when enabled (logging to ``eve_log``)."""
    eve = (Eavesdropper(rng_stream(cfg.rng_seed, f"eve:{k}"), cfg.eve_fraction, log=eve_log)
           if cfg.eve_enabled else None)
    return transmit_and_detect(tx, cfg, eve=eve, rng=rng_stream(cfg.rng_seed, f"channel:{k}"))


def run_burst_alice(k: int, cfg: SimConfig, chan, transport, key_buffer: postproc.KeyBuffer,
                    carry: np.ndarray) -> tuple[BurstOutcome, np.ndarray]:
    """Transmitter-side burst: generate, stream, disclose, sift, distill."""
    seed = cfg.rng_seed
    with _Burst(k, chan, "alice") as burst:
        out = burst.out
        burst.send(MsgType.BURST_START, k)

        tx = transmitted_burst(cfg, k)
        transport.deliver(tx)

        s = cfg.sync_subset_size
        burst.send(MsgType.SYNC_SUBSET, *tx.at(np.arange(s)))
        out.fifo_choice, out.offset_frames = burst.recv(MsgType.FRAME_OFFSET_ACK,
                                                        abort=AbortReason.NO_LOCK)
        if out.offset_frames not in offset_window(cfg):
            raise ProtocolError(f"FRAME_OFFSET_ACK: R_N {out.offset_frames} outside the window")

        idx, bob_bases = burst.recv(MsgType.BASES, bound=cfg.n_pulses)
        alice_bases, alice_bits = tx.at(idx)
        mask = postproc.sift_mask(alice_bases, bob_bases)
        burst.send(MsgType.BASES, mask)
        # compress, not alice_bits[mask]: a boolean index branches on each entry of a random mask
        alice_sifted = alice_bits.compress(mask)
        del idx, bob_bases, alice_bases, alice_bits, mask

        out.sifted_bits = n_sift = len(alice_sifted)
        sample_idx = np.empty(0, dtype=np.int64)
        if n_sift >= 2:
            sample_idx = postproc.qber_sample_indices(n_sift, cfg.link.qber_sample_fraction,
                                                      rng_stream(seed, f"qber:{k}"))
        burst.send(MsgType.QBER_SAMPLE, sample_idx, alice_sifted[sample_idx])
        (out.qber,) = burst.recv(MsgType.QBER_SAMPLE)
        if n_sift < 2 or postproc.check_abort(out.qber):
            # a degenerate burst has nothing to estimate on: its QBER check fails
            raise _Abort(AbortReason.QBER, out.qber if n_sift >= 2 else 1.0)

        wrng = rng_stream(seed, f"winnow:{k}")
        key = postproc.winnow_key(postproc.without(alice_sifted, sample_idx))
        for p in range(postproc.WINNOW_MAX_PASSES):
            perm_seed = postproc.draw_perm_seed(wrng)
            _, permuted, parities = postproc.winnow_pass(key, perm_seed)
            burst.send(MsgType.WINNOW_PARITIES, p, perm_seed, parities)
            (mism,) = burst.recv(MsgType.WINNOW_PARITIES, bound=len(parities))
            out.disclosed_bits += postproc.winnow_disclosed(parities, mism)
            if len(mism) == 0:
                break
            burst.send(MsgType.WINNOW_SYNDROMES, postproc.winnow_syndromes(permuted, mism))

        # the hash covers the seed too, so a corrupted seed fails verification
        pa_seed = rng_stream(seed, f"pa:{k}").integers(0, 2, postproc.PA_SEED_BITS, dtype=np.uint8)
        burst.send(MsgType.PA_SEED, pa_seed)
        out.disclosed_bits += postproc.KEY_HASH_BITS
        digest = postproc.key_hash(np.concatenate([key, pa_seed]))
        burst.send(MsgType.KEY_HASH, digest)
        if burst.recv(MsgType.KEY_HASH, abort=AbortReason.BURST_REJECTED) != (digest,):
            raise ProtocolError("peer verification hash does not match local key")

        secure, carry = postproc.amplify_with_carry(carry, key, pa_seed)
        key_buffer.append(secure)
        out.secure_bits = len(secure)
    return out, carry


def run_burst_bob(k: int, cfg: SimConfig, chan, transport, key_buffer: postproc.KeyBuffer,
                  carry: np.ndarray) -> tuple[BurstOutcome, np.ndarray]:
    """Receiver-side burst: detect, synchronize, match, sift, distill."""
    with _Burst(k, chan, "bob") as burst:
        out = burst.out
        (burst_id,) = burst.recv(MsgType.BURST_START)
        if burst_id != k:
            raise ProtocolError(f"BURST_START of burst {burst_id}, expected {k}")

        tx = transport.receive()
        if len(tx) != cfg.n_pulses:
            raise ProtocolError(f"pulse stream of {len(tx)} pulses, expected {cfg.n_pulses}")
        rx = received_burst(cfg, k, tx)

        s = cfg.sync_subset_size
        sync_bases, sync_bits = burst.recv(MsgType.SYNC_SUBSET, n=s)
        try:
            sync = synchronize(sync_bases, sync_bits, rx, cfg)
        except NoLockError as exc:
            raise _Abort(AbortReason.NO_LOCK, exc.min_qber) from exc
        out.offset_frames, out.fifo_choice, out.sync_curve = \
            sync.r_n, int(sync.fifo_choice), sync.curve
        burst.send(MsgType.FRAME_OFFSET_ACK, out.fifo_choice, sync.r_n)

        match = nnc_match(cfg.n_pulses, rx, cfg.bins_per_frame, sync.shift, sync.central,
                          sync.r_n, first_tx=s)
        del rx
        bob_bits = match.channel - 1
        bob_bases = bob_bits >> 1
        bob_bits &= 1
        positions = match.tx_index.view(np.uint32)
        burst.send(MsgType.BASES, positions, bob_bases)
        (mask,) = burst.recv(MsgType.BASES, n=len(positions))
        bob_sifted = bob_bits.compress(mask.view(bool))
        del match, bob_bits, bob_bases, mask

        out.sifted_bits = n_sift = len(bob_sifted)
        sample_idx, alice_sample = burst.recv(MsgType.QBER_SAMPLE, bound=n_sift)
        out.qber = postproc.sample_qber(bob_sifted, sample_idx, alice_sample)
        burst.send(MsgType.QBER_SAMPLE, out.qber)
        if postproc.check_abort(out.qber):
            burst.recv(abort=AbortReason.QBER)  # Alice's ABORT ends the burst

        key = postproc.winnow_key(postproc.without(bob_sifted, sample_idx))
        del bob_sifted
        for p in range(postproc.WINNOW_MAX_PASSES):
            pass_no, perm_seed, alice_parities = burst.recv(
                MsgType.WINNOW_PARITIES, n=len(key) // postproc.WINNOW_BLOCK)
            if pass_no != p:
                raise ProtocolError(f"Winnow pass {pass_no} arrived as pass {p}")
            layout, permuted, parities = postproc.winnow_pass(key, perm_seed)
            mism = postproc.mismatched_blocks(parities, alice_parities)
            burst.send(MsgType.WINNOW_PARITIES, mism)
            out.disclosed_bits += postproc.winnow_disclosed(parities, mism)
            if len(mism) == 0:
                break
            (alice_syn,) = burst.recv(MsgType.WINNOW_SYNDROMES, n=len(mism),
                                      bound=1 << postproc.SYNDROME_BITS)
            postproc.winnow_repair(key, layout, permuted, mism, alice_syn)
            del layout, permuted

        (pa_seed,) = burst.recv(MsgType.PA_SEED, n=postproc.PA_SEED_BITS)
        out.disclosed_bits += postproc.KEY_HASH_BITS
        digest = postproc.key_hash(np.concatenate([key, pa_seed]))
        if burst.recv(MsgType.KEY_HASH) != (digest,):
            raise _Abort(AbortReason.BURST_REJECTED, out.qber)
        burst.send(MsgType.KEY_HASH, digest)

        secure, carry = postproc.amplify_with_carry(carry, key, pa_seed)
        key_buffer.append(secure)
        out.secure_bits = len(secure)
    return out, carry


def run_session(role: str, cfg: SimConfig, chan, transport, n_bursts: int,
                on_burst=None) -> SessionResult:
    """HELLO handshake (Bob speaks first), then n bursts back to back.

    A protocol abort inside a burst is recorded and the session moves on to
    the next burst; transport failures terminate the session.
    """
    cfg.validate()
    peer = "bob" if role == "alice" else "alice"
    hello = pack_payload(role, MsgType.HELLO, PROTOCOL_MAGIC, PROTOCOL_VERSION,
                         config_fingerprint(cfg), n_bursts)
    if role == "bob":
        chan.send(MsgType.HELLO, hello)
    check_hello(unpack_payload(peer, MsgType.HELLO, chan.recv(MsgType.HELLO).payload),
                cfg, n_bursts)
    if role == "alice":
        chan.send(MsgType.HELLO, hello)

    key_buffer = postproc.KeyBuffer()
    carry = np.empty(0, dtype=np.uint8)
    outcomes = []
    # looked up per session, so wrappers installed on the module attributes take effect
    engine = run_burst_alice if role == "alice" else run_burst_bob
    for k in range(n_bursts):
        outcome, carry = engine(k, cfg, chan, transport, key_buffer, carry)
        outcomes.append(outcome)
        if on_burst is not None:
            on_burst(outcome)
    return SessionResult(role=role, outcomes=outcomes, key_buffer=key_buffer)


def simulate_session(cfg: SimConfig, n_bursts: int, on_burst=None,
                     alice_tap: list | None = None, bob_tap: list | None = None,
                     timeout: float = DEFAULT_PHASE_TIMEOUT) -> tuple[SessionResult, SessionResult]:
    """Run both terminals in one process over loopback channels.

    Alice runs on a :class:`~qkdlink.core.Worker` thread and Bob on the
    calling one.  Bob holds the burst-sized arrays (his peak is ~20 MB above
    a bare import at a 1-s burst), and the allocator keeps what a thread
    freed in that thread's arena; a worker that has not yet handed its arena
    back when the next session's worker starts leaves that one a fresh arena.
    On the calling thread Bob's memory is reused from session to session, and
    a stray arena holds only Alice's few MB.  Bob's encoding worker
    (:func:`~qkdlink.photonics.detector_entries`) has an arena of its own,
    which keeps the ~2.6 MB of a clean burst's encoding and the ~4 MB of an
    eavesdropped one's from burst to burst.
    The burst callback fires on Alice's outcomes (the canonical report), on
    her thread.  A terminal's exception re-raises here once Alice's worker is
    done, and ``TimeoutError`` if it is still running ``timeout`` seconds after
    Bob finished.
    """
    chan_a, chan_b = make_loop_pair(timeout)
    chan_a.tap, chan_b.tap = alice_tap, bob_tap
    transport = InProcessTransport(timeout)

    def alice_main() -> SessionResult:
        try:
            return run_session("alice", cfg, chan_a, transport, n_bursts, on_burst=on_burst)
        except BaseException:
            # Bob's pending receive, classical or quantum, ends now, not at the timeout
            chan_a.close()
            transport.close()
            raise

    alice = Worker(alice_main)
    try:
        bob = run_session("bob", cfg, chan_b, transport, n_bursts)
    except BaseException as exc:
        chan_b.close()
        try:
            alice.result(timeout)
        except BaseException as alice_exc:
            if isinstance(exc, ChannelClosed):
                # Bob saw Alice's end close because Alice failed: her error is the cause
                raise alice_exc from exc
            if isinstance(alice_exc, ChannelClosed):
                # Alice only saw Bob's end close: his error stands, chained to what she saw
                raise exc from alice_exc
        raise
    return alice.result(timeout), bob
