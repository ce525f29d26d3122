import hashlib
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlink.core import rng_stream
from qkdlink.postproc import KeyBuffer, KeyExhausted
from qkdlink.securecomm import (
    CHAT_CHUNK_BYTES,
    HANDSHAKE_BITS,
    ChatEndpoint,
    ChatRefused,
    KeyStreamDesync,
    otp_open,
    otp_seal,
)
from qkdlink.session import MsgType, ProtocolError, make_loop_pair


def _filled_buffer(nbits, seed=1):
    buf = KeyBuffer()
    buf.append(rng_stream(seed, "key").integers(0, 2, nbits, dtype=np.uint8))
    return buf


def _pair_of_buffers(nbits, seed=1):
    return _filled_buffer(nbits, seed), _filled_buffer(nbits, seed)


# --- OTP primitives ------------------------------------------------------------


def test_seal_open_roundtrip():
    tx_buf, rx_buf = _pair_of_buffers(10_000)
    frame = otp_seal(b"attack at dawn", tx_buf)
    assert otp_open(frame, rx_buf) == b"attack at dawn"


def test_zero_plaintext_exposes_key_bytes():
    tx_buf, probe = _pair_of_buffers(10_000)
    frame = otp_seal(bytes(32), tx_buf)
    key = probe.take(32 * 8)
    assert frame[8:] == key.tobytes()
    assert np.array_equal(np.unpackbits(key, count=32 * 8), probe.bits()[: 32 * 8])


def test_tampered_bit_flips_exactly_that_plaintext_bit():
    tx_buf, rx_buf = _pair_of_buffers(10_000)
    frame = otp_seal(bytes(range(64)), tx_buf)
    damaged = bytearray(frame)
    damaged[8 + 5] ^= 0x10  # after the 8-byte key offset
    out = otp_open(bytes(damaged), rx_buf)
    expect = bytearray(range(64))
    expect[5] ^= 0x10
    assert out == bytes(expect)


def test_cursor_advances_exactly_payload_bits():
    tx_buf, _ = _pair_of_buffers(10_000)
    otp_seal(b"x" * 10, tx_buf)
    assert tx_buf.consumed_total == 80


def test_open_rejects_offset_gap():
    tx_buf, rx_buf = _pair_of_buffers(10_000)
    f1 = otp_seal(b"first", tx_buf)
    f2 = otp_seal(b"second", tx_buf)
    with pytest.raises(KeyStreamDesync):
        otp_open(f2, rx_buf)  # out of order: receiver cursor still at f1


def test_seal_timeout_when_starved():
    # a seal the lane cannot cover fails at once and consumes nothing
    buf = _filled_buffer(40)
    with pytest.raises(KeyExhausted):
        otp_seal(b"too much", buf)
    assert buf.consumed_total == 0 and buf.issued_ranges == []


def test_seal_over_the_frame_cap_is_refused_before_any_key_is_taken():
    # every otp_open refuses such a frame, so sealing one would only burn key
    buf = _filled_buffer(KeyBuffer.PAGE_BITS * 6)
    otp_seal(b"first", buf, lane=1)
    before = buf.consumed_total, list(buf.issued_ranges), buf.next_range_start(1)
    with pytest.raises(ValueError, match=f"{CHAT_CHUNK_BYTES + 1} bytes, over {CHAT_CHUNK_BYTES}"):
        otp_seal(bytes(CHAT_CHUNK_BYTES + 1), buf, lane=1)
    assert (buf.consumed_total, buf.issued_ranges, buf.next_range_start(1)) == before


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_seal_open_roundtrip_property(payload):
    tx_buf, rx_buf = _pair_of_buffers(8 * 300, seed=7)
    frame = otp_seal(payload, tx_buf)
    assert otp_open(frame, rx_buf) == payload


# --- handshake -------------------------------------------------------------------


def test_handshake_establishes_and_burns_window():
    ca, cb = make_loop_pair(timeout=2.0)
    buf_a, buf_b = _pair_of_buffers(10_000)
    results = []

    def side_b():
        ChatEndpoint(cb, buf_b, "bob").handshake()
        results.append(True)

    t = threading.Thread(target=side_b)
    t.start()
    ChatEndpoint(ca, buf_a, "alice").handshake()
    t.join(timeout=5)
    assert results
    assert buf_a.consumed_total == HANDSHAKE_BITS
    assert buf_b.consumed_total == HANDSHAKE_BITS


def test_handshake_refuses_on_flipped_bit():
    ca, cb = make_loop_pair(timeout=2.0)
    buf_a = _filled_buffer(10_000)
    bits = rng_stream(1, "key").integers(0, 2, 10_000, dtype=np.uint8)
    bits[13] ^= 1  # single flip inside the parity window always flips parity
    buf_b = KeyBuffer()
    buf_b.append(bits)
    refused = []

    def side_b():
        try:
            ChatEndpoint(cb, buf_b, "bob").handshake()
        except ChatRefused:
            refused.append(True)

    t = threading.Thread(target=side_b)
    t.start()
    with pytest.raises(ChatRefused):
        ChatEndpoint(ca, buf_a, "alice").handshake()
    t.join(timeout=5)
    assert refused
    # the window's parity was disclosed, so it is burned on a refusal too
    assert buf_a.consumed_total == buf_b.consumed_total == HANDSHAKE_BITS


def test_handshake_requires_fresh_key():
    ca, _ = make_loop_pair(timeout=0.5)
    with pytest.raises(ChatRefused):
        ChatEndpoint(ca, KeyBuffer(), "alice").handshake()


# --- duplex endpoints ----------------------------------------------------------------


def _endpoints(nbits=KeyBuffer.PAGE_BITS * 6, seed=3, timeout=5.0):
    ca, cb = make_loop_pair(timeout=timeout)
    buf_a, buf_b = _pair_of_buffers(nbits, seed)
    return ChatEndpoint(ca, buf_a, "alice"), ChatEndpoint(cb, buf_b, "bob")


def _do_handshake(ea, eb):
    t = threading.Thread(target=eb.handshake)
    t.start()
    ea.handshake()
    t.join(timeout=5)


def test_duplex_roundtrip():
    ea, eb = _endpoints()
    _do_handshake(ea, eb)
    payload_a = rng_stream(4, "pa").integers(0, 256, 5000, dtype=np.uint8).tobytes()
    payload_b = rng_stream(4, "pb").integers(0, 256, 7000, dtype=np.uint8).tobytes()

    got_at_b = []
    t = threading.Thread(target=lambda: got_at_b.append(eb.recv_all()))
    t.start()
    ea.send_bytes(payload_a)
    ea.send_eof()
    t.join(timeout=10)
    assert got_at_b == [payload_a]

    got_at_a = []
    t = threading.Thread(target=lambda: got_at_a.append(ea.recv_all()))
    t.start()
    eb.send_bytes(payload_b)
    eb.send_eof()
    t.join(timeout=10)
    assert got_at_a == [payload_b]


def test_sequence_gap_aborts():
    ea, eb = _endpoints()
    _do_handshake(ea, eb)
    ea.send_bytes(b"one")
    ea.send_bytes(b"two")
    eb.chan.recv(MsgType.CHAT_DATA)  # the frame of b"one" is lost on the way
    with pytest.raises(KeyStreamDesync) as info:
        eb.recv_frame()
    assert isinstance(info.value, ProtocolError)  # a peer fault: the CLI exits 2


FRAME_BITS = 8 * CHAT_CHUNK_BYTES  # one lane page
THREE_FRAMES = bytes(range(256)) * (5 * CHAT_CHUNK_BYTES // 512)  # two whole frames and a half


def _recorded_frames():
    # Bob's three data frames, the last one short, then his EOF marker
    chan, _ = make_loop_pair()
    chan.tap = []
    end = ChatEndpoint(chan, _filled_buffer(KeyBuffer.PAGE_BITS * 6), "bob")
    end.send_bytes(THREE_FRAMES)
    end.send_eof()
    return [payload for _, payload in chan.tap]


def _alice_receiving(frames, nbits=KeyBuffer.PAGE_BITS * 6):
    """Alice's endpoint, with ``frames`` already sent to her in that order."""
    peer, chan = make_loop_pair(timeout=2.0)
    for payload in frames:
        peer.send(MsgType.CHAT_DATA, payload)
    return ChatEndpoint(chan, _filled_buffer(nbits), "alice")


@pytest.mark.parametrize("order", [
    (1, 2, 3), (0, 2, 3), (0, 1, 3),                    # a frame dropped
    (0, 0, 1, 2, 3), (0, 1, 1, 2, 3), (0, 1, 2, 2, 3),  # a frame repeated
    (1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2),           # two frames swapped
])
def test_dropped_repeated_or_reordered_frame_desyncs(order):
    # every frame, the EOF marker too, must start at the receiver's cursor, so
    # losing the last data frame before EOF is caught like any other
    frames = _recorded_frames()
    assert len(frames) == 4
    assert _alice_receiving(frames).recv_all() == THREE_FRAMES
    with pytest.raises(KeyStreamDesync):
        _alice_receiving([frames[i] for i in order]).recv_all()


TEN_FRAMES = bytes(range(256)) * (9 * CHAT_CHUNK_BYTES // 256) + bytes(32)  # nine whole, one short
TEN_FRAMES_KEY = KeyBuffer.PAGE_BITS * 20  # ten pages on each lane


def _recorded_transfer(nbits=TEN_FRAMES_KEY):
    """Bob's frames of one transfer, then his EOF marker, and Bob's endpoint."""
    chan, _ = make_loop_pair()
    chan.tap = []
    end = ChatEndpoint(chan, _filled_buffer(nbits), "bob")
    try:
        end.send_bytes(TEN_FRAMES)
        end.send_eof()
    except KeyExhausted as exc:
        return [payload for _, payload in chan.tap], end, exc
    return [payload for _, payload in chan.tap], end, None


def _rx_lane_bits(end):
    return end.buf.available(end.recv_lane)


@pytest.mark.parametrize("order, accepted", [
    ((0, 1, 2, 3, 4, 6, 7, 8, 9, 10), 5),        # a frame dropped inside the transfer
    ((0, 1, 2, 3, 4, 5, 5, 6, 7, 8, 9, 10), 6),  # a frame repeated
    ((0, 1, 2, 3, 4, 6, 5, 7, 8, 9, 10), 5),     # two frames swapped
    ((0, 1, 2, 3, 4, 5, 6, 7, 8, 10), 9),        # the short last frame dropped
])
def test_desync_inside_a_run_consumes_exactly_the_accepted_frames(order, accepted):
    # a run of frames is one transfer's frames: the fault raises with exactly the
    # frames before it consumed, and the cursor at the first frame not accepted
    frames, _, _ = _recorded_transfer()
    assert len(frames) == 11
    end = _alice_receiving([frames[i] for i in order], TEN_FRAMES_KEY)
    before = _rx_lane_bits(end)
    with pytest.raises(KeyStreamDesync, match="receiver cursor at"):
        end.recv_all()
    assert before - _rx_lane_bits(end) == FRAME_BITS * accepted
    assert end.buf.next_range_start(end.recv_lane) == int.from_bytes(frames[accepted][:8], "big")


@pytest.mark.parametrize("ending", ["closed", "timeout", "short frame", "wrong type"])
def test_receive_ended_mid_run_consumes_exactly_the_accepted_frames(ending):
    frames, _, _ = _recorded_transfer()
    peer, chan = make_loop_pair(timeout=0.2)
    for payload in frames[:4]:
        peer.send(MsgType.CHAT_DATA, payload)
    if ending == "closed":
        peer.close()
    elif ending == "short frame":
        peer.send(MsgType.CHAT_DATA, b"\x00" * 7)
    elif ending == "wrong type":
        peer.send(MsgType.CHAT_HANDSHAKE, b"\x00")
    end = ChatEndpoint(chan, _filled_buffer(TEN_FRAMES_KEY), "alice")
    before = _rx_lane_bits(end)
    with pytest.raises(ProtocolError):
        end.recv_all()
    assert before - _rx_lane_bits(end) == FRAME_BITS * 4


def test_receive_fails_at_the_frame_its_lane_cannot_cover():
    # Alice's receive lane covers three and a half frames: the fourth raises as it
    # arrives, with nothing after it, not at the receive timeout
    frames, _, _ = _recorded_transfer()
    peer, chan = make_loop_pair(timeout=5.0)
    for payload in frames[:4]:
        peer.send(MsgType.CHAT_DATA, payload)
    half = FRAME_BITS // 2
    end = ChatEndpoint(chan, _filled_buffer(KeyBuffer.PAGE_BITS * 7 + half), "alice")
    assert _rx_lane_bits(end) == FRAME_BITS * 3 + half
    start = time.monotonic()
    with pytest.raises(KeyExhausted, match=f"need {FRAME_BITS} bits, lane has {half}$"):
        end.recv_all()
    assert time.monotonic() - start < 1.0
    assert _rx_lane_bits(end) == half


def test_send_fails_at_the_frame_its_lane_cannot_cover():
    # Bob's send lane covers six and a half frames: the first six go out exactly as
    # they do with plenty of key, and the seventh raises before anything of it is sent
    full, _, _ = _recorded_transfer()
    half = FRAME_BITS // 2
    sent, end, exc = _recorded_transfer(nbits=KeyBuffer.PAGE_BITS * 13 + half)
    assert str(exc) == f"key buffer exhausted: need {FRAME_BITS} bits, lane has {half}"
    assert sent == full[:6]
    assert end.buf.consumed_total == FRAME_BITS * 6


@pytest.mark.parametrize("size", [CHAT_CHUNK_BYTES // 2, CHAT_CHUNK_BYTES, CHAT_CHUNK_BYTES + 1],
                         ids=["half_cap", "at_cap", "over_cap"])
def test_incoming_frame_is_bounded_before_any_key_is_taken(size):
    # a frame of up to CHAT_CHUNK_BYTES opens, the 2 KiB frames of earlier v8 senders
    # too; one byte more is refused before the receive lane gives up any key
    plaintext = rng_stream(2, "frame").bytes(size)
    sender = _filled_buffer(KeyBuffer.PAGE_BITS * 6)
    if size > CHAT_CHUNK_BYTES:  # otp_seal refuses to make it: the lane offset, then raw bytes
        frame = sender.next_range_start(1).to_bytes(8, "big") + plaintext
    else:
        frame = otp_seal(plaintext, sender, lane=1)
    end = _alice_receiving([frame])
    before = _rx_lane_bits(end)
    if size > CHAT_CHUNK_BYTES:
        with pytest.raises(ProtocolError, match=f"chat frame of {size} bytes"):
            end.recv_frame()
        assert _rx_lane_bits(end) == before
    else:
        assert end.recv_frame() == plaintext
        assert before - _rx_lane_bits(end) == 8 * size


def _lane_key_digest(buf, lane):
    """sha256 of the key bits a lane consumed, in lane order."""
    page, held = KeyBuffer.PAGE_BITS, buf.bits()
    spans = sorted(r for r in buf.issued_ranges if r[0] // page % 2 == lane)
    return hashlib.sha256(np.packbits(np.concatenate([held[a:b] for a, b in spans]))).hexdigest()


def test_chat_wire_is_pinned():
    # both lanes cross pages and appended chunks, and each direction ends on a short frame
    key = rng_stream(12, "key").integers(0, 2, 2_400_000, dtype=np.uint8)
    bufs = KeyBuffer(), KeyBuffer()
    for start in range(0, len(key), 295_548):
        for buf in bufs:
            buf.append(key[start : start + 295_548])
    ca, cb = make_loop_pair(timeout=5.0)
    ca.tap, cb.tap = [], []
    ea, eb = ChatEndpoint(ca, bufs[0], "alice"), ChatEndpoint(cb, bufs[1], "bob")
    _do_handshake(ea, eb)
    for end, peer, name, size in ((ea, eb, "alice", 140_001), (eb, ea, "bob", 130_000)):
        payload = rng_stream(12, name).bytes(size)
        end.send_bytes(payload)
        end.send_eof()
        assert peer.recv_all() == payload
    digest = hashlib.sha256()
    for msg_type, payload in ca.tap + cb.tap:
        digest.update(bytes([msg_type]) + len(payload).to_bytes(4, "big") + payload)
    assert (len(ca.tap), len(cb.tap)) == (37, 34)
    assert digest.hexdigest() == "3579d55f79ea1dc9cdd79a6a62b6b648faeea2fb8868aa19085276433a2fe093"
    assert [buf.consumed_total for buf in bufs] == [2_160_072, 2_160_072]
    # the frame size moves only frame boundaries and offsets: each direction's ciphertext
    # and each lane's consumed key bits keep the digests they had with 2 KiB frames
    for tap, want in ((ca.tap, "4bcd7b50ead4c5eba378128a1b6e2b4056622cc62a3be5e146aa4eb96d9ee3a2"),
                      (cb.tap, "5a0ecdc49729edc27017b10c7bebed1d8964fe502a8adb289722db4b38f01cad")):
        ciphertext = b"".join(p[8:] for t, p in tap if t == MsgType.CHAT_DATA)
        assert hashlib.sha256(ciphertext).hexdigest() == want
    for buf in bufs:
        assert [_lane_key_digest(buf, lane) for lane in (0, 1)] == [
            "6ff86583d34ae9aca020b66248d0ed7ed95a6de08b545c02efe38f7fcc348176",
            "d5233ac842926045e9791c2abd4cac1134973d8a37ddbd2de062feb892cc8b6c"]
    # each lane's ledger is its first bits, page by page: the handshake window and
    # Alice's bytes on the even pages, Bob's on the odd ones
    page = KeyBuffer.PAGE_BITS
    lanes = [(0, HANDSHAKE_BITS + 8 * 140_001), (1, 8 * 130_000)]
    pages = [((2 * p + lane) * page, (2 * p + lane) * page + min(page, used - p * page))
             for lane, used in lanes for p in range(-(-used // page))]
    for buf in bufs:
        assert _merged(buf.issued_ranges) == _merged(pages)
        assert sum(b - a for a, b in buf.issued_ranges) == buf.consumed_total


def _merged(ranges):
    out = []
    for a, b in sorted(ranges):
        if out and out[-1][1] == a:
            out[-1][1] = b
        else:
            out.append([a, b])
    return out


def test_chat_ciphertext_is_payload_xor_lane_stripe():
    # frames cross page boundaries in both directions; the ciphertext stream is still
    # the payload XOR the lane's pages read in order, after the handshake window on lane 0
    page = KeyBuffer.PAGE_BITS
    ea, eb = _endpoints(nbits=page * 8, seed=5)
    taps = {"alice": [], "bob": []}
    ea.chan.tap, eb.chan.tap = taps["alice"], taps["bob"]
    _do_handshake(ea, eb)
    pages = rng_stream(5, "key").integers(0, 2, page * 8, dtype=np.uint8).reshape(-1, page)
    lane_key = {"alice": pages[0::2].ravel()[HANDSHAKE_BITS:], "bob": pages[1::2].ravel()}
    for sender, end, peer, sizes in (("alice", ea, eb, (5000, 7001)),
                                     ("bob", eb, ea, (1000, 9000))):
        payload = rng_stream(5, sender).integers(0, 256, sum(sizes), dtype=np.uint8).tobytes()
        end.send_bytes(payload[: sizes[0]])
        end.send_bytes(payload[sizes[0] :])
        end.send_eof()
        assert peer.recv_all() == payload
        frames = [p for t, p in taps[sender] if t == MsgType.CHAT_DATA]
        # a frame is its 8-byte key offset, then the ciphertext
        assert any(int.from_bytes(f[:8], "big") % page + 8 * (len(f) - 8) > page for f in frames)
        key = np.packbits(lane_key[sender][: 8 * len(payload)])
        want = (np.frombuffer(payload, np.uint8) ^ key).tobytes()
        assert b"".join(f[8:] for f in frames) == want


def test_fuzzed_session_key_ranges_disjoint_and_monotone():
    # each lane holds ~20 pages; the fuzz stays well inside that budget
    ea, eb = _endpoints(nbits=KeyBuffer.PAGE_BITS * 40, seed=9)
    _do_handshake(ea, eb)
    rng = rng_stream(9, "fuzz")
    for _ in range(40):
        size = int(rng.integers(1, 1500))
        payload = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        if rng.random() < 0.5:
            n = ea.send_bytes(payload)
            got = b"".join(eb.recv_frame() for _ in range(n))
        else:
            n = eb.send_bytes(payload)
            got = b"".join(ea.recv_frame() for _ in range(n))
        assert got == payload
    for buf in (ea.buf, eb.buf):
        spans = sorted(buf.issued_ranges)
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 <= a2, "key ranges overlap"
        assert buf.consumed_total == sum(b - a for a, b in buf.issued_ranges)


def test_consumption_counter_ten_megabit_transfer():
    # a two-minute call at the reference rate consumes ~10 Mbit of key;
    # transfer exactly that much payload and check the counter agrees
    total_bits = 10_000_000
    page = KeyBuffer.PAGE_BITS
    # one-directional transfer consumes even pages only: provision both stripes
    ea, eb = _endpoints(nbits=2 * total_bits + 4 * page, seed=11, timeout=30.0)
    _do_handshake(ea, eb)
    payload = np.zeros(total_bits // 8, dtype=np.uint8).tobytes()

    received = []
    t = threading.Thread(target=lambda: received.append(eb.recv_all()))
    t.start()
    ea.send_bytes(payload)
    ea.send_eof()
    t.join(timeout=60)
    assert received and len(received[0]) == total_bits // 8
    assert ea.buf.consumed_total == total_bits + HANDSHAKE_BITS
    assert eb.buf.consumed_total == total_bits + HANDSHAKE_BITS
