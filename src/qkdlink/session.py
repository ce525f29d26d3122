"""Two-terminal protocol engine: wire format, channels, per-burst state machine.

The classical channel carries length-prefixed binary messages (4-byte
big-endian length of type+payload, 1-byte type, payload).  A burst walks a
fixed phase sequence on both ends: handshake, qubit exchange, frame sync,
sifting, QBER check, error correction, privacy amplification, key ready.
Aborts can occur at frame sync (no lock), the QBER check (Eve suspected) or
error correction (residual mismatch).

The quantum channel of the real system is replaced by a simulation
transport: in-process hand-off of the pulse arrays, or a dedicated side
connection carrying them serialized.  That side channel is simulation
plumbing only and is excluded from any security consideration.
"""

from __future__ import annotations

import hashlib
import queue
import socket
import struct
import time
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from . import postproc
from .core import SimConfig, format_config, rng_stream
from .eve import Eavesdropper
from .photonics import TxBurst, generate_burst, transmit_and_detect
from .timing import NoLockError, nnc_match, synchronize

PROTOCOL_MAGIC = b"QKL1"
PROTOCOL_VERSION = 1
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
    PERM_SEED = 0x0A
    PA_SEED = 0x0B
    KEY_HASH = 0x0C
    CHAT_DATA = 0x0D
    CHAT_HANDSHAKE = 0x0E
    SIM_PULSESTREAM = 0x0F


class AbortReason(IntEnum):
    QBER = 1
    NO_LOCK = 2
    BURST_REJECTED = 3
    TRANSPORT = 4
    TIMEOUT = 5


class BurstPhase(Enum):
    IDLE = "idle"
    HANDSHAKE = "handshake"
    QUBIT_EXCHANGE = "qubit_exchange"
    FRAME_SYNC = "frame_sync"
    SIFTING = "sifting"
    QBER_CHECK = "qber_check"
    ERROR_CORRECTION = "error_correction"
    PRIVACY_AMPLIFICATION = "privacy_amplification"
    KEY_READY = "key_ready"
    ABORTED = "aborted"


_PHASE_ORDER = [
    BurstPhase.IDLE,
    BurstPhase.HANDSHAKE,
    BurstPhase.QUBIT_EXCHANGE,
    BurstPhase.FRAME_SYNC,
    BurstPhase.SIFTING,
    BurstPhase.QBER_CHECK,
    BurstPhase.ERROR_CORRECTION,
    BurstPhase.PRIVACY_AMPLIFICATION,
    BurstPhase.KEY_READY,
]

# phases from which an abort is a legal transition
_ABORTABLE = {BurstPhase.FRAME_SYNC, BurstPhase.QBER_CHECK, BurstPhase.ERROR_CORRECTION}


class BurstState:
    """Tracks the phase sequence and rejects out-of-order transitions."""

    def __init__(self):
        self.phase = BurstPhase.IDLE

    def advance(self, phase: BurstPhase) -> None:
        if phase == BurstPhase.ABORTED:
            if self.phase not in _ABORTABLE:
                raise ProtocolError(f"abort is not legal from phase {self.phase.value}")
        else:
            want = _PHASE_ORDER.index(self.phase) + 1
            if _PHASE_ORDER[want] is not phase:
                raise ProtocolError(
                    f"illegal transition {self.phase.value} -> {phase.value}"
                )
        self.phase = phase


# --- wire format --------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    msg_type: int
    payload: bytes


def encode_message(msg: Message) -> bytes:
    if msg.msg_type not in MsgType._value2member_map_:
        raise ProtocolError(f"unknown message type 0x{msg.msg_type:02X}")
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
    msg_type = data[4]
    if msg_type not in MsgType._value2member_map_:
        raise ProtocolError(f"unknown message type 0x{msg_type:02X}")
    return Message(msg_type=MsgType(msg_type), payload=data[5:])


class ChannelClosed(ProtocolError):
    pass


class SocketChannel:
    """Length-prefixed message stream over a TCP socket."""

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_PHASE_TIMEOUT,
                 tap: list | None = None):
        self.sock = sock
        self.sock.settimeout(timeout)
        self.tap = tap

    def send(self, msg_type: int, payload: bytes = b"") -> None:
        if self.tap is not None:
            self.tap.append((MsgType(msg_type), payload))
        self.sock.sendall(encode_message(Message(msg_type, payload)))

    def _recv_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self.sock.recv(n - len(buf))
            except socket.timeout as exc:
                raise ProtocolError("receive timeout") from exc
            if not chunk:
                raise ChannelClosed(f"peer closed mid-frame ({len(buf)}/{n} bytes)")
            buf.extend(chunk)
        return bytes(buf)

    def recv(self) -> Message:
        header = self._recv_exact(4)
        (length,) = struct.unpack(">I", header)
        if length < 1:
            raise ProtocolError("zero-length frame")
        body = self._recv_exact(length)
        return decode_message(header + body)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class LoopChannel:
    """In-process channel endpoint; frames still pass through the codec."""

    def __init__(self, rx: queue.Queue, tx: queue.Queue, timeout: float = DEFAULT_PHASE_TIMEOUT,
                 tap: list | None = None):
        self._rx = rx
        self._tx = tx
        self.timeout = timeout
        self.tap = tap

    def send(self, msg_type: int, payload: bytes = b"") -> None:
        if self.tap is not None:
            self.tap.append((MsgType(msg_type), payload))
        self._tx.put(encode_message(Message(msg_type, payload)))

    def recv(self) -> Message:
        try:
            data = self._rx.get(timeout=self.timeout)
        except queue.Empty as exc:
            raise ProtocolError("receive timeout") from exc
        if data is None:
            raise ChannelClosed("peer closed")
        return decode_message(data)

    def close(self) -> None:
        self._tx.put(None)


def make_loop_pair(timeout: float = DEFAULT_PHASE_TIMEOUT) -> tuple[LoopChannel, LoopChannel]:
    q_ab: queue.Queue = queue.Queue()
    q_ba: queue.Queue = queue.Queue()
    return LoopChannel(q_ba, q_ab, timeout), LoopChannel(q_ab, q_ba, timeout)


def recv_expect(chan, *types: int) -> Message:
    msg = chan.recv()
    if msg.msg_type not in types:
        names = "/".join(MsgType(t).name for t in types)
        raise ProtocolError(f"expected {names}, got {MsgType(msg.msg_type).name}")
    return msg


# --- payload packing ----------------------------------------------------------


def pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bits(data: bytes, n: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n)


def config_fingerprint(cfg: SimConfig) -> bytes:
    return hashlib.sha256(format_config(cfg).encode("utf-8")).digest()[:8]


def pack_hello(cfg: SimConfig, n_bursts: int) -> bytes:
    return PROTOCOL_MAGIC + struct.pack(">H", PROTOCOL_VERSION) + config_fingerprint(cfg) \
        + struct.pack(">I", n_bursts)


def check_hello(payload: bytes, cfg: SimConfig, n_bursts: int) -> None:
    if len(payload) != 18 or payload[:4] != PROTOCOL_MAGIC:
        raise ProtocolError("malformed HELLO")
    (version,) = struct.unpack(">H", payload[4:6])
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version mismatch: {version} != {PROTOCOL_VERSION}")
    if payload[6:14] != config_fingerprint(cfg):
        raise ProtocolError("configuration fingerprint mismatch between terminals")
    (bursts,) = struct.unpack(">I", payload[14:18])
    if bursts != n_bursts:
        raise ProtocolError(f"burst count mismatch: peer wants {bursts}, local {n_bursts}")


def pack_tx_burst(tx: TxBurst) -> bytes:
    n = len(tx)
    return struct.pack(">Q", n) + pack_bits(tx.bases) + pack_bits(tx.bits) \
        + tx.photon_counts.tobytes()


def unpack_tx_burst(payload: bytes) -> TxBurst:
    if len(payload) < 8:
        raise ProtocolError("truncated pulse stream header")
    (n,) = struct.unpack(">Q", payload[:8])
    nbytes = -(-n // 8)
    need = 8 + 2 * nbytes + n
    if len(payload) != need:
        raise ProtocolError(f"pulse stream length {len(payload)} != expected {need}")
    bases = unpack_bits(payload[8 : 8 + nbytes], n)
    bits = unpack_bits(payload[8 + nbytes : 8 + 2 * nbytes], n)
    counts = np.frombuffer(payload[8 + 2 * nbytes :], dtype=np.uint8).copy()
    return TxBurst(bases, bits, counts)


# --- quantum transport ---------------------------------------------------------


class InProcessTransport:
    """Direct hand-off of the pulse arrays between two threads."""

    def __init__(self, timeout: float = DEFAULT_PHASE_TIMEOUT):
        self._q: queue.Queue = queue.Queue()
        self.timeout = timeout

    def deliver(self, tx: TxBurst) -> None:
        self._q.put(tx)

    def receive(self) -> TxBurst:
        try:
            return self._q.get(timeout=self.timeout)
        except queue.Empty as exc:
            raise ProtocolError("quantum transport timeout") from exc


class NetworkTransport:
    """Pulse arrays serialized over the dedicated simulation side connection."""

    def __init__(self, chan):
        self.chan = chan

    def deliver(self, tx: TxBurst) -> None:
        self.chan.send(MsgType.SIM_PULSESTREAM, pack_tx_burst(tx))

    def receive(self) -> TxBurst:
        msg = recv_expect(self.chan, MsgType.SIM_PULSESTREAM)
        return unpack_tx_burst(msg.payload)


# --- burst outcome --------------------------------------------------------------


@dataclass
class BurstOutcome:
    burst_id: int
    sifted_bits: int
    qber: float
    secure_bits: int
    elapsed_s: float
    offset_frames: int
    fifo_choice: int
    disclosed_bits: int = 0
    aborted_reason: str | None = None
    sync_curve: list = None  # (offset_frames, interim qber) diagnostics

    @property
    def key_appended(self) -> bool:
        return self.aborted_reason is None

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
        return any(not o.key_appended for o in self.outcomes)


def _abort_payload(reason: AbortReason, qber: float) -> bytes:
    return struct.pack(">Bd", reason, qber)


# --- payload decoding: anything malformed or out of range is a ProtocolError ------


def _exact(payload: bytes, size: int, what: str) -> bytes:
    if len(payload) != size:
        raise ProtocolError(f"malformed {what}: {len(payload)} bytes, expected {size}")
    return payload


def _fields(fmt: str, payload: bytes, what: str) -> tuple:
    return struct.unpack(fmt, _exact(payload, struct.calcsize(fmt), what))


def _split_counted(payload: bytes, what: str, *parts: str) -> tuple[int, list[bytes]]:
    """Read a u32 count n, then one section per part: n u32 "indices" or n packed "bits"."""
    if len(payload) < 4:
        raise ProtocolError(f"truncated {what}")
    (n,) = struct.unpack(">I", payload[:4])
    sizes = [4 * n if part == "indices" else -(-n // 8) for part in parts]
    _exact(payload, 4 + sum(sizes), what)
    sections, pos = [], 4
    for size in sizes:
        sections.append(payload[pos : pos + size])
        pos += size
    return n, sections


def _indices(raw: bytes, bound: int, what: str) -> np.ndarray:
    """Peer-supplied positions: strictly increasing and below ``bound``."""
    idx = np.frombuffer(raw, dtype=">u4").astype(np.int64)
    if len(idx) and (idx[-1] >= bound or np.any(idx[1:] <= idx[:-1])):
        raise ProtocolError(f"{what}: positions out of order or not below {bound}")
    return idx


def _parse_abort(payload: bytes) -> tuple[AbortReason, float]:
    reason, qber = _fields(">Bd", payload, "ABORT")
    if reason not in AbortReason._value2member_map_:
        raise ProtocolError(f"unknown abort reason {reason}")
    return AbortReason(reason), qber


def _parse_qber(payload: bytes) -> float:
    (qber,) = _fields(">d", payload, "QBER_SAMPLE")
    if not 0.0 <= qber <= 1.0:
        raise ProtocolError(f"peer QBER {qber} outside [0, 1]")
    return qber


def pack_offset_ack(r_n: int, fifo_choice: int, central: int,
                    curve: list[tuple[int, float]]) -> bytes:
    head = struct.pack(">IBBH", r_n, fifo_choice, central, len(curve))
    return head + b"".join(struct.pack(">Hd", off, q) for off, q in curve)


def unpack_offset_ack(payload: bytes) -> tuple[int, int, int, list[tuple[int, float]]]:
    r_n, fifo_choice, central, n = _fields(">IBBH", payload[:8], "FRAME_OFFSET_ACK")
    _exact(payload, 8 + 10 * n, "FRAME_OFFSET_ACK")
    curve = [struct.unpack(">Hd", payload[8 + 10 * i : 18 + 10 * i]) for i in range(n)]
    return r_n, fifo_choice, central, [(int(o), float(q)) for o, q in curve]


# --- per-burst state machines ----------------------------------------------------


def run_burst_alice(k: int, cfg: SimConfig, chan, transport, key_buffer: postproc.KeyBuffer,
                    carry: np.ndarray) -> tuple[BurstOutcome, np.ndarray]:
    """Transmitter-side burst: generate, stream, disclose, sift, distill."""
    t0 = time.monotonic()
    seed = cfg.rng_seed
    state = BurstState()
    state.advance(BurstPhase.HANDSHAKE)

    chan.send(MsgType.BURST_START, struct.pack(">IQ", k, cfg.n_pulses))
    state.advance(BurstPhase.QUBIT_EXCHANGE)
    tx = generate_burst(cfg, rng_stream(seed, f"txgen:{k}"))
    transport.deliver(tx)

    state.advance(BurstPhase.FRAME_SYNC)
    s = cfg.sync_subset_size
    chan.send(MsgType.SYNC_SUBSET,
              struct.pack(">I", s) + pack_bits(tx.bases[:s]) + pack_bits(tx.bits[:s]))
    msg = recv_expect(chan, MsgType.FRAME_OFFSET_ACK, MsgType.ABORT)
    if msg.msg_type == MsgType.ABORT:
        reason, qber = _parse_abort(msg.payload)
        state.advance(BurstPhase.ABORTED)
        return _aborted_outcome(k, t0, reason, qber), carry
    r_n, fifo_choice, central, sync_curve = unpack_offset_ack(msg.payload)

    state.advance(BurstPhase.SIFTING)
    n_matched, (raw_idx, raw_bases) = _split_counted(
        recv_expect(chan, MsgType.BASES).payload, "BASES", "indices", "bits")
    idx = _indices(raw_idx, cfg.n_pulses, "BASES")
    mask = postproc.sift_mask(tx.bases[idx], unpack_bits(raw_bases, n_matched))
    chan.send(MsgType.BASES, struct.pack(">I", n_matched) + pack_bits(mask))
    alice_sifted = tx.bits[idx][mask]

    state.advance(BurstPhase.QBER_CHECK)
    n_sift = len(alice_sifted)
    if n_sift < 2:
        # degenerate burst: nothing to estimate on, treat as a failed QBER check
        chan.send(MsgType.QBER_SAMPLE, struct.pack(">I", 0))
        _parse_qber(recv_expect(chan, MsgType.QBER_SAMPLE).payload)
        chan.send(MsgType.ABORT, _abort_payload(AbortReason.QBER, 1.0))
        state.advance(BurstPhase.ABORTED)
        return _aborted_outcome(k, t0, AbortReason.QBER, 1.0, sifted=n_sift,
                                r_n=r_n, fifo=fifo_choice, sync_curve=sync_curve), carry
    sample_idx = postproc.qber_sample_indices(n_sift, cfg.link.qber_sample_fraction,
                                              rng_stream(seed, f"qber:{k}"))
    chan.send(MsgType.QBER_SAMPLE,
              struct.pack(">I", len(sample_idx)) + sample_idx.astype(">u4").tobytes()
              + pack_bits(alice_sifted[sample_idx]))
    qber = _parse_qber(recv_expect(chan, MsgType.QBER_SAMPLE).payload)

    if postproc.check_abort(qber) is postproc.Decision.ABORT:
        chan.send(MsgType.ABORT, _abort_payload(AbortReason.QBER, qber))
        state.advance(BurstPhase.ABORTED)
        return _aborted_outcome(k, t0, AbortReason.QBER, qber, sifted=n_sift,
                                r_n=r_n, fifo=fifo_choice, sync_curve=sync_curve), carry

    state.advance(BurstPhase.ERROR_CORRECTION)
    wrng = rng_stream(seed, f"winnow:{k}")
    key = postproc.winnow_key(postproc.without(alice_sifted, sample_idx))
    disclosed = 0
    for p in range(postproc.WINNOW_MAX_PASSES):
        perm_seed = postproc.draw_perm_seed(wrng)
        chan.send(MsgType.PERM_SEED, struct.pack(">BQ", p, perm_seed))
        _, permuted, parities = postproc.winnow_pass(key, perm_seed)
        chan.send(MsgType.WINNOW_PARITIES,
                  struct.pack(">I", len(parities)) + pack_bits(parities))
        _, (raw_mism,) = _split_counted(recv_expect(chan, MsgType.WINNOW_PARITIES).payload,
                                        "WINNOW_PARITIES", "indices")
        mism = _indices(raw_mism, len(parities), "WINNOW_PARITIES")
        disclosed += postproc.winnow_disclosed(parities, mism)
        if len(mism) == 0:
            break
        syndromes = postproc.winnow_syndromes(permuted, mism)
        chan.send(MsgType.WINNOW_SYNDROMES, syndromes.astype(np.uint8).tobytes())

    disclosed += postproc.KEY_HASH_BITS
    digest = postproc.key_hash(key)
    chan.send(MsgType.KEY_HASH, digest)
    msg = recv_expect(chan, MsgType.KEY_HASH, MsgType.ABORT)
    if msg.msg_type == MsgType.ABORT:
        reason, _ = _parse_abort(msg.payload)
        state.advance(BurstPhase.ABORTED)
        return _aborted_outcome(k, t0, reason, qber, sifted=n_sift,
                                r_n=r_n, fifo=fifo_choice, sync_curve=sync_curve), carry
    if msg.payload != digest:
        raise ProtocolError("peer verification hash does not match local key")

    state.advance(BurstPhase.PRIVACY_AMPLIFICATION)
    pa_seed = rng_stream(seed, f"pa:{k}").integers(0, 2, postproc.PA_SEED_BITS, dtype=np.uint8)
    chan.send(MsgType.PA_SEED, pack_bits(pa_seed))
    secure, carry = postproc.amplify_with_carry(carry, key, pa_seed)
    key_buffer.append(secure)

    state.advance(BurstPhase.KEY_READY)
    return BurstOutcome(
        burst_id=k,
        sifted_bits=n_sift,
        qber=qber,
        secure_bits=len(secure),
        elapsed_s=time.monotonic() - t0,
        offset_frames=r_n,
        fifo_choice=fifo_choice,
        disclosed_bits=disclosed,
        sync_curve=sync_curve,
    ), carry


def run_burst_bob(k: int, cfg: SimConfig, chan, transport, key_buffer: postproc.KeyBuffer,
                  carry: np.ndarray) -> tuple[BurstOutcome, np.ndarray]:
    """Receiver-side burst: detect, synchronize, match, sift, distill."""
    t0 = time.monotonic()
    seed = cfg.rng_seed
    state = BurstState()
    state.advance(BurstPhase.HANDSHAKE)

    burst_id, n_pulses = _fields(">IQ", recv_expect(chan, MsgType.BURST_START).payload,
                                 "BURST_START")
    if burst_id != k or n_pulses != cfg.n_pulses:
        raise ProtocolError(f"burst header mismatch: got burst {burst_id} x {n_pulses} pulses")

    state.advance(BurstPhase.QUBIT_EXCHANGE)
    tx = transport.receive()
    eavesdropper = None
    if cfg.eve_enabled:
        eavesdropper = Eavesdropper(rng_stream(seed, f"eve:{k}"), cfg.eve_fraction)
    rx = transmit_and_detect(tx, cfg, eve=eavesdropper, rng=rng_stream(seed, f"channel:{k}"))

    state.advance(BurstPhase.FRAME_SYNC)
    s, (raw_bases, raw_bits) = _split_counted(recv_expect(chan, MsgType.SYNC_SUBSET).payload,
                                              "SYNC_SUBSET", "bits", "bits")
    if s != cfg.sync_subset_size:
        raise ProtocolError(f"sync subset of {s} pulses, configuration says {cfg.sync_subset_size}")
    try:
        sync = synchronize(unpack_bits(raw_bases, s), unpack_bits(raw_bits, s), rx, cfg)
    except NoLockError as exc:
        chan.send(MsgType.ABORT, _abort_payload(AbortReason.NO_LOCK, exc.min_qber))
        state.advance(BurstPhase.ABORTED)
        return _aborted_outcome(k, t0, AbortReason.NO_LOCK, exc.min_qber), carry
    chan.send(MsgType.FRAME_OFFSET_ACK,
              pack_offset_ack(sync.r_n, int(sync.fifo_choice), sync.central, sync.curve))

    state.advance(BurstPhase.SIFTING)
    match = nnc_match(cfg.n_pulses, sync.fifo, sync.central, sync.r_n, first_tx=s)
    bob_bases = ((match.channel - 1) >> 1).astype(np.uint8)
    bob_bits = ((match.channel - 1) & 1).astype(np.uint8)
    chan.send(MsgType.BASES,
              struct.pack(">I", len(match.tx_index))
              + match.tx_index.astype(">u4").tobytes() + pack_bits(bob_bases))
    n_matched, (raw_mask,) = _split_counted(recv_expect(chan, MsgType.BASES).payload,
                                            "BASES", "bits")
    if n_matched != len(match.tx_index):
        raise ProtocolError("agreement mask length mismatch")
    bob_sifted = bob_bits[unpack_bits(raw_mask, n_matched).astype(bool)]

    state.advance(BurstPhase.QBER_CHECK)
    n_sift = len(bob_sifted)
    n_sample, (raw_idx, raw_sample) = _split_counted(
        recv_expect(chan, MsgType.QBER_SAMPLE).payload, "QBER_SAMPLE", "indices", "bits")
    sample_idx = _indices(raw_idx, n_sift, "QBER_SAMPLE")
    qber = postproc.sample_qber(bob_sifted, sample_idx, unpack_bits(raw_sample, n_sample))
    chan.send(MsgType.QBER_SAMPLE, struct.pack(">d", qber))

    if postproc.check_abort(qber) is postproc.Decision.ABORT:
        _parse_abort(recv_expect(chan, MsgType.ABORT).payload)
        state.advance(BurstPhase.ABORTED)
        return _aborted_outcome(k, t0, AbortReason.QBER, qber, sifted=n_sift,
                                r_n=sync.r_n, fifo=int(sync.fifo_choice),
                                sync_curve=sync.curve), carry

    state.advance(BurstPhase.ERROR_CORRECTION)
    key = postproc.winnow_key(postproc.without(bob_sifted, sample_idx))
    disclosed = 0
    for p in range(postproc.WINNOW_MAX_PASSES):
        pass_no, perm_seed = _fields(">BQ", recv_expect(chan, MsgType.PERM_SEED).payload,
                                     "PERM_SEED")
        if pass_no != p:
            raise ProtocolError(f"Winnow pass {pass_no} arrived as pass {p}")
        perm, permuted, parities = postproc.winnow_pass(key, perm_seed)
        n_blocks, (raw_par,) = _split_counted(recv_expect(chan, MsgType.WINNOW_PARITIES).payload,
                                              "WINNOW_PARITIES", "bits")
        if n_blocks != len(parities):
            raise ProtocolError(f"{n_blocks} peer parities for {len(parities)} blocks")
        mism = postproc.mismatched_blocks(parities, unpack_bits(raw_par, n_blocks))
        chan.send(MsgType.WINNOW_PARITIES,
                  struct.pack(">I", len(mism)) + mism.astype(">u4").tobytes())
        disclosed += postproc.winnow_disclosed(parities, mism)
        if len(mism) == 0:
            break
        raw_syn = _exact(recv_expect(chan, MsgType.WINNOW_SYNDROMES).payload, len(mism),
                         "WINNOW_SYNDROMES")
        alice_syn = np.frombuffer(raw_syn, dtype=np.uint8).astype(np.int64)
        if np.any(alice_syn >= 1 << postproc.SYNDROME_BITS):
            raise ProtocolError("Winnow syndrome out of range")
        postproc.winnow_repair(key, perm, permuted, mism, alice_syn)

    disclosed += postproc.KEY_HASH_BITS
    digest = postproc.key_hash(key)
    msg = recv_expect(chan, MsgType.KEY_HASH)
    if _exact(msg.payload, postproc.KEY_HASH_BITS // 8, "KEY_HASH") != digest:
        chan.send(MsgType.ABORT, _abort_payload(AbortReason.BURST_REJECTED, qber))
        state.advance(BurstPhase.ABORTED)
        return _aborted_outcome(k, t0, AbortReason.BURST_REJECTED, qber, sifted=n_sift,
                                r_n=sync.r_n, fifo=int(sync.fifo_choice),
                                sync_curve=sync.curve), carry
    chan.send(MsgType.KEY_HASH, digest)

    state.advance(BurstPhase.PRIVACY_AMPLIFICATION)
    raw_seed = _exact(recv_expect(chan, MsgType.PA_SEED).payload, -(-postproc.PA_SEED_BITS // 8),
                      "PA_SEED")
    secure, carry = postproc.amplify_with_carry(carry, key,
                                                unpack_bits(raw_seed, postproc.PA_SEED_BITS))
    key_buffer.append(secure)

    state.advance(BurstPhase.KEY_READY)
    return BurstOutcome(
        burst_id=k,
        sifted_bits=n_sift,
        qber=qber,
        secure_bits=len(secure),
        elapsed_s=time.monotonic() - t0,
        offset_frames=sync.r_n,
        fifo_choice=int(sync.fifo_choice),
        disclosed_bits=disclosed,
        sync_curve=sync.curve,
    ), carry


def _aborted_outcome(k: int, t0: float, reason: AbortReason, qber: float,
                     sifted: int = 0, r_n: int = -1, fifo: int = 0,
                     sync_curve: list | None = None) -> BurstOutcome:
    return BurstOutcome(
        burst_id=k,
        sifted_bits=sifted,
        qber=qber,
        secure_bits=0,
        elapsed_s=time.monotonic() - t0,
        offset_frames=r_n,
        fifo_choice=fifo,
        aborted_reason=reason.name.lower(),
        sync_curve=sync_curve,
    )


def run_burst(role: str, k: int, cfg: SimConfig, chan, transport,
              key_buffer: postproc.KeyBuffer, carry: np.ndarray):
    if role == "alice":
        return run_burst_alice(k, cfg, chan, transport, key_buffer, carry)
    if role == "bob":
        return run_burst_bob(k, cfg, chan, transport, key_buffer, carry)
    raise ValueError(f"role must be alice or bob, got {role!r}")


def run_session(role: str, cfg: SimConfig, chan, transport, n_bursts: int,
                hello_first: bool = False,
                on_burst=None) -> SessionResult:
    """HELLO handshake, then n bursts back to back.

    A protocol abort inside a burst is recorded and the session moves on to
    the next burst; transport failures terminate the session.
    """
    cfg.validate()
    if hello_first:
        chan.send(MsgType.HELLO, pack_hello(cfg, n_bursts))
        check_hello(recv_expect(chan, MsgType.HELLO).payload, cfg, n_bursts)
    else:
        check_hello(recv_expect(chan, MsgType.HELLO).payload, cfg, n_bursts)
        chan.send(MsgType.HELLO, pack_hello(cfg, n_bursts))

    key_buffer = postproc.KeyBuffer()
    carry = np.empty(0, dtype=np.uint8)
    outcomes = []
    for k in range(n_bursts):
        outcome, carry = run_burst(role, k, cfg, chan, transport, key_buffer, carry)
        outcomes.append(outcome)
        if on_burst is not None:
            on_burst(outcome)
    return SessionResult(role=role, outcomes=outcomes, key_buffer=key_buffer)


def simulate_session(cfg: SimConfig, n_bursts: int,
                     on_burst=None,
                     alice_tap: list | None = None,
                     bob_tap: list | None = None,
                     timeout: float = DEFAULT_PHASE_TIMEOUT,
                     ) -> tuple[SessionResult, SessionResult]:
    """Run both terminals in one process over loopback channels.

    Bob runs on a helper thread; his exceptions re-raise here after the join.
    The burst callback fires on Alice's outcomes (the canonical report).
    """
    import threading

    chan_a, chan_b = make_loop_pair(timeout)
    chan_a.tap = alice_tap
    chan_b.tap = bob_tap
    transport = InProcessTransport(timeout)

    bob_result: list[SessionResult] = []
    bob_error: list[BaseException] = []

    def bob_main():
        try:
            bob_result.append(run_session("bob", cfg, chan_b, transport, n_bursts,
                                          hello_first=True))
        except BaseException as exc:  # re-raised on the main thread
            bob_error.append(exc)
            chan_b.close()

    worker = threading.Thread(target=bob_main, name="bob", daemon=True)
    worker.start()
    try:
        alice = run_session("alice", cfg, chan_a, transport, n_bursts,
                            hello_first=False, on_burst=on_burst)
    finally:
        worker.join(timeout=timeout)
    if bob_error:
        raise bob_error[0]
    if not bob_result:
        raise ProtocolError("receiver thread produced no result")
    return alice, bob_result[0]
