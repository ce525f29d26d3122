import dataclasses
import hashlib
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scaled_config
from qkdlink import postproc, session
from qkdlink.core import default_config, rng_stream
from qkdlink.photonics import generate_burst, transmit_and_detect
from qkdlink.postproc import KeyBuffer
from qkdlink.session import (
    CHAT_CHUNK_BYTES,
    AbortReason,
    BurstOutcome,
    ChannelClosed,
    InProcessTransport,
    LAYOUTS,
    Message,
    MsgType,
    NetworkTransport,
    ProtocolError,
    SocketChannel,
    decode_message,
    encode_message,
    make_loop_pair,
    pack_payload,
    pack_tx_burst,
    received_burst,
    run_burst_alice,
    run_burst_bob,
    run_session,
    simulate_session,
    transmitted_burst,
    unpack_payload,
    unpack_tx_burst,
)


# --- framing ---------------------------------------------------------------------


def test_hello_frame_bytes():
    assert encode_message(Message(MsgType.HELLO, b"")) == b"\x00\x00\x00\x01\x01"


def test_roundtrip_random_messages():
    rng = rng_stream(1, "msg")
    types = list(MsgType)
    for _ in range(1000):
        t = types[int(rng.integers(0, len(types)))]
        payload = rng.integers(0, 256, int(rng.integers(0, 64)), dtype=np.uint8).tobytes()
        msg = Message(t, payload)
        assert decode_message(encode_message(msg)) == msg


def test_decode_rejects_unknown_type():
    bad = b"\x00\x00\x00\x01\x7f"
    with pytest.raises(ProtocolError):
        decode_message(bad)


def test_decode_rejects_truncated():
    good = encode_message(Message(MsgType.BASES, b"payload"))
    with pytest.raises(ProtocolError):
        decode_message(good[:-2])
    # shorter than the 5-byte header
    with pytest.raises(ProtocolError, match="truncated frame: 4 bytes"):
        decode_message(good[:4])


def test_decode_rejects_length_mismatch():
    with pytest.raises(ProtocolError):
        decode_message(b"\x00\x00\x00\x0a\x01abc")


def test_encode_rejects_oversize():
    class _HugeBytes(bytes):
        def __len__(self):
            return 2**32

    with pytest.raises(ProtocolError):
        encode_message(Message(MsgType.CHAT_DATA, _HugeBytes()))


def test_socket_channel_truncated_stream():
    # length promises 10 bytes, 5 arrive, then the peer goes away
    a, b = socket.socketpair()
    chan = SocketChannel(b, timeout=2.0)
    a.sendall(b"\x00\x00\x00\x0a\x05abcd")
    a.close()
    with pytest.raises(ChannelClosed):
        chan.recv(MsgType.BASES)
    chan.close()


def test_socket_channel_close_at_a_message_boundary_is_not_mid_frame():
    # a close after a whole frame is a clean "peer closed"; after 2 header bytes it is mid-frame
    for sent, error in ((encode_message(Message(MsgType.KEY_HASH, b"12345678")), "^peer closed$"),
                        (b"\x00\x00", r"mid-frame \(2/4 bytes\)")):
        a, b = socket.socketpair()
        chan = SocketChannel(b, timeout=2.0)
        a.sendall(sent)
        a.close()
        if len(sent) > 4:
            assert chan.recv(MsgType.KEY_HASH).payload == b"12345678"
        with pytest.raises(ChannelClosed, match=error):
            chan.recv(MsgType.KEY_HASH)
        chan.close()


def test_socket_channel_refuses_unknown_type_before_reading_the_body():
    # the peer stays open and never sends the body it claims: the type byte alone
    # refuses the frame, of an unknown type or of one not expected there, long
    # before the 2-s receive timeout
    for header, error in ((struct.pack(">IB", 1_000_001, 0xFF), "unknown message type 0xFF"),
                          (struct.pack(">IB", 2**31, MsgType.BURST_START),
                           "expected HELLO, got BURST_START")):
        a, b = socket.socketpair()
        chan = SocketChannel(b, timeout=2.0)
        a.sendall(header)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=error):
            chan.recv(MsgType.HELLO)
        assert time.monotonic() - start < 1.0
        chan.close()
        a.close()


def test_socket_channel_refuses_an_oversized_chat_frame_at_its_header():
    # a CHAT_DATA payload is an 8-byte key offset and at most CHAT_CHUNK_BYTES of
    # ciphertext: a frame at that cap is read whole, a header claiming one byte more (or
    # the most the length field allows) is refused at once while the peer keeps the
    # socket open and never sends the body, not after the 5-s receive timeout
    a, b = socket.socketpair()
    chan = SocketChannel(b, timeout=5.0)
    at_cap = bytes(8 + CHAT_CHUNK_BYTES)
    a.sendall(encode_message(Message(MsgType.CHAT_DATA, at_cap)))
    assert chan.recv(MsgType.CHAT_DATA).payload == at_cap
    chan.close()
    a.close()
    for claimed in (CHAT_CHUNK_BYTES + 1, session.MAX_PAYLOAD - 8):
        a, b = socket.socketpair()
        chan = SocketChannel(b, timeout=5.0)
        a.sendall(struct.pack(">IB", 8 + claimed + 1, MsgType.CHAT_DATA) + bytes(100))
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=f"chat frame of {claimed} bytes, over "
                                                f"{CHAT_CHUNK_BYTES}"):
            chan.recv(MsgType.CHAT_DATA)
        assert time.monotonic() - start < 1.0
        chan.close()
        a.close()


def test_socket_channel_refuses_a_zero_length_frame_and_a_silent_peer():
    # a length of 0 cannot hold the type byte: refused at the header; a peer that
    # stays open and sends nothing ends the receive at the channel's timeout
    a, b = socket.socketpair()
    chan = SocketChannel(b, timeout=0.2)
    a.sendall(b"\x00\x00\x00\x00")
    with pytest.raises(ProtocolError, match="zero-length frame"):
        chan.recv(MsgType.HELLO)
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="receive timeout"):
        chan.recv(MsgType.HELLO)
    assert 0.15 < time.monotonic() - start < 2.0
    chan.close()
    a.close()


def test_socket_channel_roundtrip():
    a, b = socket.socketpair()
    ca, cb = SocketChannel(a, timeout=2.0), SocketChannel(b, timeout=2.0)
    ca.send(MsgType.KEY_HASH, b"12345678")
    msg = cb.recv(MsgType.KEY_HASH)
    assert msg.msg_type == MsgType.KEY_HASH and msg.payload == b"12345678"
    ca.close()
    cb.close()


def test_socket_channel_disables_nagle_on_tcp():
    with socket.create_server(("127.0.0.1", 0)) as server:
        client = socket.create_connection(server.getsockname())
        accepted, _ = server.accept()
    ends = [SocketChannel(client, timeout=2.0), SocketChannel(accepted, timeout=2.0)]
    try:
        for chan in ends:
            assert chan.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
    finally:
        for chan in ends:
            chan.close()


def test_recv_expect_rejects_out_of_order():
    ca, cb = make_loop_pair(timeout=1.0)
    ca.send(MsgType.BASES, b"")
    with pytest.raises(ProtocolError):
        cb.recv(MsgType.BURST_START)


# --- pulse-stream transport ----------------------------------------------------------


def test_tx_burst_codec_roundtrip():
    cfg = scaled_config(0.001, seed=2)
    tx = generate_burst(cfg, rng_stream(2, "g"))
    blob = pack_tx_burst(tx)
    assert blob == struct.pack(">QHH", len(tx), tx.state_bases, tx.state_bits)
    again = unpack_tx_burst(blob)
    assert again == tx
    assert np.array_equal(again.bases, tx.bases)
    assert np.array_equal(again.bits, tx.bits)


def test_tx_burst_codec_full_scale():
    # a complete 1-second burst of 20 M pulses serializes and parses losslessly, in 12 bytes
    cfg = default_config(3)
    tx = generate_burst(cfg, rng_stream(3, "g"))
    blob = pack_tx_burst(tx)
    assert len(blob) == 12
    again = unpack_tx_burst(blob)
    assert len(again) == cfg.n_pulses == 20_000_000
    idx = np.concatenate([np.arange(5000), rng_stream(3, "i").integers(0, len(tx), 5000),
                          np.arange(len(tx) - 5000, len(tx))])
    bases, bits = again.at(idx)
    assert np.array_equal(bases, tx.bases[idx])
    assert np.array_equal(bits, tx.bits[idx])


def test_tx_burst_codec_rejects_truncation():
    cfg = scaled_config(0.0005, seed=4)
    tx = generate_burst(cfg, rng_stream(4, "g"))
    blob = pack_tx_burst(tx)
    for bad in (blob[:4], blob[: len(blob) // 2], blob[:-1], blob + b"\x00"):
        with pytest.raises(ProtocolError):
            unpack_tx_burst(bad)


@pytest.mark.parametrize("states", [(0, 5), (5, 0), (2048, 5), (5, 2048), (0xFFFF, 5)])
def test_tx_burst_codec_rejects_a_state_outside_prbs11(states):
    with pytest.raises(ProtocolError):
        unpack_tx_burst(struct.pack(">QHH", 20_000, *states))


def test_pulse_stream_of_another_length_than_configured_is_a_protocol_error():
    # the configuration fixes the pulse count; a stream of one pulse more ends the burst
    cfg = scaled_config(0.001, seed=4)
    chan_a, chan_b = make_loop_pair(timeout=5.0)
    transport = InProcessTransport(5.0)
    chan_a.send(MsgType.BURST_START, pack_payload("alice", MsgType.BURST_START, 0))
    transport.deliver(unpack_tx_burst(struct.pack(">QHH", cfg.n_pulses + 1, 5, 7)))
    with pytest.raises(ProtocolError, match="pulse stream"):
        run_burst_bob(0, cfg, chan_b, transport, KeyBuffer(), np.empty(0, np.uint8))


def test_network_transport_over_loopback_sockets():
    cfg = scaled_config(0.01, seed=5)  # 200K pulses
    tx = generate_burst(cfg, rng_stream(5, "g"))
    a, b = socket.socketpair()
    sender = NetworkTransport(SocketChannel(a, timeout=10.0))
    receiver = NetworkTransport(SocketChannel(b, timeout=10.0))
    result = []
    t = threading.Thread(target=lambda: result.append(receiver.receive()))
    t.start()
    sender.deliver(tx)
    t.join(timeout=10)
    assert result and np.array_equal(result[0].bits, tx.bits)
    a.close()
    b.close()


def test_transport_disconnect_aborts_burst():
    a, b = socket.socketpair()
    chan = SocketChannel(b, timeout=2.0)
    a.sendall(b"\x00\x01\x00\x00\x0f")  # claims ~64KB pulse stream
    a.close()
    with pytest.raises(ProtocolError):
        NetworkTransport(chan).receive()
    chan.close()


def test_detection_identical_for_direct_and_serialized_pulses():
    # the serialized path must reproduce the in-process RxBurst bit for bit
    cfg = scaled_config(0.005, seed=6)
    tx = generate_burst(cfg, rng_stream(6, "g"))
    rx_direct = transmit_and_detect(tx, cfg, rng=rng_stream(6, "c"))
    rx_wire = transmit_and_detect(unpack_tx_burst(pack_tx_burst(tx)), cfg,
                                  rng=rng_stream(6, "c"))
    assert np.array_equal(rx_direct.bin_index, rx_wire.bin_index)
    assert np.array_equal(rx_direct.channel, rx_wire.channel)
    assert np.array_equal(rx_direct.multi_click, rx_wire.multi_click)


# --- sessions -------------------------------------------------------------------------


def test_two_burst_session_buffers_identical(small_cfg):
    alice, bob = simulate_session(small_cfg, 2)
    assert alice.key_buffer.to_bytes() == bob.key_buffer.to_bytes()
    assert len(alice.key_buffer) > 0
    assert not alice.any_aborted


def test_key_accumulation_is_concatenation(small_cfg):
    one, _ = simulate_session(small_cfg, 1)
    two, _ = simulate_session(small_cfg, 2)
    first, both = (np.unpackbits(np.frombuffer(r.key_buffer.to_bytes(), np.uint8),
                                 count=len(r.key_buffer)) for r in (one, two))
    assert len(both) > len(first) * 1.5
    assert np.array_equal(both[: len(first)], first)


def test_each_terminal_lays_out_only_the_passes_alice_sends(small_cfg, monkeypatch):
    # a 0.01-s burst converges before Winnow's last pass; Bob runs on the calling thread
    on_main = []
    real = postproc.permutation_for_pass

    def counted(seed, n):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(seed, n)

    monkeypatch.setattr(postproc, "permutation_for_pass", counted)
    tap = []
    simulate_session(small_cfg, 1, alice_tap=tap)
    sent = [msg_type for msg_type, _ in tap].count(MsgType.WINNOW_PARITIES)
    assert 0 < sent < postproc.WINNOW_MAX_PASSES
    assert on_main.count(False) == on_main.count(True) == sent


def test_engines_run_winnow_as_the_in_memory_pump_does(monkeypatch):
    # the keys that enter Winnow in a real burst, corrected again by winnow_correct
    steps = {}

    def recorded(step):
        def construct(key, *args):
            made = step(key, *args)
            steps[step] = key.copy(), made
            return made
        return construct

    for step in (postproc.WinnowAlice, postproc.WinnowBob):
        monkeypatch.setattr(postproc, step.__name__, recorded(step))
    cfg = scaled_config(0.01, seed=33)
    tap = []
    alice, bob = simulate_session(cfg, 1, bob_tap=tap)
    monkeypatch.undo()
    wire = [len(unpack_payload("bob", MsgType.WINNOW_PARITIES, payload, bound=2**32)[0])
            for msg_type, payload in tap if msg_type == MsgType.WINNOW_PARITIES]

    pumped = []
    mismatched = postproc.WinnowBob.mismatched

    def counted(step, *args):
        mism = mismatched(step, *args)
        pumped.append(len(mism))
        return mism

    monkeypatch.setattr(postproc.WinnowBob, "mismatched", counted)
    (alice_key, _), (bob_key, bob_step) = steps[postproc.WinnowAlice], steps[postproc.WinnowBob]
    corrected, disclosed, passes = postproc.winnow_correct(
        alice_key, bob_key, rng_stream(cfg.rng_seed, "winnow:0"))
    assert wire == pumped == [84, 26, 0]
    assert passes == len(wire)
    for outcome in (alice.outcomes[0], bob.outcomes[0]):
        assert outcome.disclosed_bits - postproc.KEY_HASH_BITS == disclosed
    assert np.array_equal(bob_step.key, corrected)


def test_session_reproducible(small_cfg):
    a1, _ = simulate_session(small_cfg, 1)
    a2, _ = simulate_session(small_cfg, 1)
    assert a1.key_buffer.to_bytes() == a2.key_buffer.to_bytes()
    assert a1.outcomes[0].qber == a2.outcomes[0].qber
    assert a1.outcomes[0].offset_frames == a2.outcomes[0].offset_frames


@pytest.mark.parametrize("seed,burst_seconds,digest", [(33, 0.01, "b7de37dac37334c6"),
                                                       (7, 0.05, "9c6a0e9cae6e6fbc"),
                                                       (7, 1.0, "4b8cbd525fbe5d27")])
def test_reference_keys_are_bit_identical(seed, burst_seconds, digest):
    # a change that reorders or alters any random draw shows here; one that does
    # so on purpose updates these digests
    alice, _ = simulate_session(scaled_config(burst_seconds, seed=seed), 2)
    assert hashlib.sha256(alice.key_buffer.to_bytes()).hexdigest()[:16] == digest


WIRE_PINS = {  # seed -> {"sender-message type": digest of its payloads in the burst}
    33: {"alice-HELLO": "d440cd4ca0f54b4a", "alice-BURST_START": "525c3368aba80a60",
         "alice-SYNC_SUBSET": "aae5f18025fc422b", "alice-BASES": "5eea6e8862b17b70",
         "alice-QBER_SAMPLE": "aadeb3678a0198b9", "alice-WINNOW_PARITIES": "0feb1ae6c913de05",
         "alice-WINNOW_SYNDROMES": "469b2d6bb411e069", "alice-PA_SEED": "aecd5aa4e20f9fe5",
         "alice-KEY_HASH": "a0c9676759aee61f", "bob-HELLO": "d440cd4ca0f54b4a",
         "bob-FRAME_OFFSET_ACK": "5d88e3fe3e32abc3", "bob-BASES": "3962c529433e2cc6",
         "bob-QBER_SAMPLE": "740fc0d81dee0c63", "bob-WINNOW_PARITIES": "0e64fb1ee8d5f832",
         "bob-KEY_HASH": "a0c9676759aee61f"},
    1: {"alice-HELLO": "517410bf0cb093e2", "alice-BURST_START": "525c3368aba80a60",
        "alice-SYNC_SUBSET": "d939664edca4c63a", "alice-BASES": "061d7071ed230bde",
        "alice-QBER_SAMPLE": "ebf7db56ac061d55", "alice-WINNOW_PARITIES": "b5f4be0b3ceda7d2",
        "alice-WINNOW_SYNDROMES": "77b8c7351eb16573", "alice-PA_SEED": "f0e712e7a51ac9c3",
        "alice-KEY_HASH": "3ed3ad46265e1626", "bob-HELLO": "517410bf0cb093e2",
        "bob-FRAME_OFFSET_ACK": "f85d642cde6b6df6", "bob-BASES": "87e8393763c5c730",
        "bob-QBER_SAMPLE": "a1fd1ead64931fe4", "bob-WINNOW_PARITIES": "7f6a513a26c20646",
        "bob-KEY_HASH": "3ed3ad46265e1626"},
}


@pytest.mark.parametrize("seed", sorted(WIRE_PINS))
def test_classical_burst_wire_is_pinned(seed):
    # every payload each terminal sends in a 0.01-s burst, hashed per message type:
    # a change to any WINNOW_* payload, or to any other message, shows here
    taps = {"alice": [], "bob": []}
    simulate_session(scaled_config(0.01, seed=seed), 1, alice_tap=taps["alice"],
                     bob_tap=taps["bob"])
    hashes = {}
    for sender, tap in taps.items():
        for msg_type, payload in tap:
            h = hashes.setdefault(f"{sender}-{msg_type.name}", hashlib.sha256())
            h.update(len(payload).to_bytes(4, "big") + payload)
    assert {name: h.hexdigest()[:16] for name, h in hashes.items()} == WIRE_PINS[seed]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("eve,digest", [(False, "88dfc282838eef25"), (True, "1fee969f5130b6eb")],
                         ids=["clean", "eve"])
def test_full_burst_clicks_are_pinned(eve, digest):
    # a default 1-s burst's ~945 K photons are encoded on a worker beside the
    # channel draws and cross ~15 draw chunks; an eavesdropped burst distills no
    # key, so its clicks are pinned here
    cfg = dataclasses.replace(default_config(1), eve_enabled=eve)
    rx = received_burst(cfg, 0, transmitted_burst(cfg, 0))
    assert _digest(rx.bin_index, rx.channel, rx.multi_click) == digest


def test_full_burst_eve_log_is_pinned():
    # half interception on a default 1-s burst: Eve's pulses, bases and bits
    cfg = dataclasses.replace(default_config(1), eve_enabled=True, eve_fraction=0.5)
    log = []
    received_burst(cfg, 0, transmitted_burst(cfg, 0), eve_log=log)
    ((index, bases, bits),) = log
    assert len(index) == 462_585
    assert _digest(index, bases, bits) == "871f7b2a04539b3d"


# (which HELLO field the peer gets wrong, its value, the error); the version is
# the field of the unsuffixed ids
HELLO_FAULTS = [("version", session.PROTOCOL_VERSION - 1, "protocol version mismatch"),
                ("magic", b"QKDX", "malformed HELLO"),
                ("bursts", 2, "burst count mismatch: peer wants 2, local 1")]


@pytest.mark.parametrize("role,field,value,error",
                         [(r, *f) for f in HELLO_FAULTS for r in ("alice", "bob")],
                         ids=[r if f[0] == "version" else f"{r}-{f[0]}"
                              for f in HELLO_FAULTS for r in ("alice", "bob")])
def test_hello_of_another_protocol_version_is_refused(small_cfg, role, field, value, error):
    # section bytes changed meaning between versions: the peer of the last
    # version is refused at its HELLO, before any burst message; so is a HELLO of
    # another protocol (magic) or for another number of bursts
    peer = "bob" if role == "alice" else "alice"
    chan, peer_chan = make_loop_pair(timeout=2.0)
    chan.tap = []
    hello = {"magic": session.PROTOCOL_MAGIC, "version": session.PROTOCOL_VERSION,
             "fingerprint": session.config_fingerprint(small_cfg), "bursts": 1, field: value}
    peer_chan.send(MsgType.HELLO, pack_payload(peer, MsgType.HELLO, *hello.values()))
    with pytest.raises(ProtocolError, match=error):
        run_session(role, small_cfg, chan, InProcessTransport(2.0), 1)
    # Bob speaks first, so his HELLO is all that left him
    assert [t for t, _ in chan.tap] == ([MsgType.HELLO] if role == "bob" else [])


def test_hello_mismatch_detected(small_cfg):
    other = dataclasses.replace(small_cfg, rng_seed=999)
    ca, cb = make_loop_pair(timeout=2.0)
    from qkdlink.session import InProcessTransport, run_session
    transport = InProcessTransport(2.0)
    errors = []

    def bob():
        try:
            run_session("bob", other, cb, transport, 1)
        except ProtocolError as exc:
            errors.append(exc)
            cb.close()

    t = threading.Thread(target=bob)
    t.start()
    with pytest.raises(ProtocolError):
        run_session("alice", small_cfg, ca, transport, 1)
    t.join(timeout=5)
    assert errors


ALLOWED_TYPES = {
    MsgType.HELLO, MsgType.BURST_START, MsgType.SYNC_SUBSET, MsgType.FRAME_OFFSET_ACK,
    MsgType.BASES, MsgType.QBER_SAMPLE, MsgType.ABORT, MsgType.WINNOW_PARITIES,
    MsgType.WINNOW_SYNDROMES, MsgType.PA_SEED, MsgType.KEY_HASH,
}


def test_classical_channel_discloses_only_the_allowed_material(small_cfg):
    tap_a, tap_b = [], []
    alice, bob = simulate_session(small_cfg, 1, alice_tap=tap_a, bob_tap=tap_b)
    o = alice.outcomes[0]
    assert {t for t, _ in tap_a + tap_b} <= ALLOWED_TYPES

    # Bob's channel traffic carries bases and block indices, never key bits:
    # his BASES payload has exactly the room for indices + packed bases
    bob_bases = [p for t, p in tap_b if t == MsgType.BASES]
    assert len(bob_bases) == 1
    (n,) = np.frombuffer(bob_bases[0][:4], dtype=">u4")
    assert len(bob_bases[0]) == 4 + 4 * n + -(-int(n) // 8)

    # total disclosed key bits stay within the protocol budget:
    # sync subset bits + QBER sample + parities/syndromes + hash
    sync_payloads = [p for t, p in tap_a if t == MsgType.SYNC_SUBSET]
    sample_payloads = [p for t, p in tap_a if t == MsgType.QBER_SAMPLE]
    (s,) = np.frombuffer(sync_payloads[0][:4], dtype=">u4")
    (n_sample,) = np.frombuffer(sample_payloads[0][:4], dtype=">u4")
    budget = int(s) + int(n_sample) + o.disclosed_bits
    assert budget < o.sifted_bits  # disclosures never exceed the key material


def test_aborted_burst_leaves_buffers_untouched():
    cfg = scaled_config(0.01, seed=7, eve_enabled=True)
    alice, bob = simulate_session(cfg, 2)
    assert all(o.aborted_reason == "qber" for o in alice.outcomes)
    assert len(alice.key_buffer) == 0
    assert len(bob.key_buffer) == 0


def test_alice_failure_ends_bob_without_waiting_out_the_timeout():
    class ReportFailed(Exception):
        pass

    def on_burst(outcome):
        raise ReportFailed

    t0 = time.monotonic()
    with pytest.raises(ReportFailed):
        simulate_session(scaled_config(0.01, seed=33), 2, on_burst=on_burst, timeout=5.0)
    assert time.monotonic() - t0 < 3.0


def test_source_failure_ends_bob_without_waiting_out_the_timeout(monkeypatch):
    # Alice fails after BURST_START, before the pulses reach Bob's quantum transport
    class SourceFailed(Exception):
        pass

    def generate_burst(cfg, rng):
        raise SourceFailed

    monkeypatch.setattr(session, "generate_burst", generate_burst)
    t0 = time.monotonic()
    with pytest.raises(SourceFailed):
        simulate_session(scaled_config(0.01, seed=33), 2, timeout=5.0)
    assert time.monotonic() - t0 < 3.0


def test_receiver_failure_surfaces_as_itself_not_as_peer_closed(monkeypatch):
    # Bob fails; Alice only sees his end of the channel close
    class ReceiverFailed(Exception):
        pass

    def transmit_and_detect(*args, **kwargs):
        raise ReceiverFailed

    monkeypatch.setattr(session, "transmit_and_detect", transmit_and_detect)
    t0 = time.monotonic()
    with pytest.raises(ReceiverFailed) as info:
        simulate_session(scaled_config(0.01, seed=33), 2, timeout=5.0)
    assert time.monotonic() - t0 < 3.0
    assert isinstance(info.value.__cause__, ChannelClosed)


def test_receiver_failure_after_the_last_burst_surfaces_as_itself(monkeypatch):
    # Bob fails once his one burst is done; Alice has finished hers and ends cleanly,
    # so his error stands alone, with no peer-closed cause
    class ReceiverFailed(Exception):
        pass

    def failing_after(*args, **kwargs):
        run_burst_bob(*args, **kwargs)
        raise ReceiverFailed

    monkeypatch.setattr(session, "run_burst_bob", failing_after)
    with pytest.raises(ReceiverFailed) as info:
        simulate_session(scaled_config(0.01, seed=33), 1, timeout=5.0)
    assert info.value.__cause__ is None


def test_receiver_runs_on_the_calling_thread(monkeypatch):
    # Bob's burst arrays stay in the caller's allocator arena from session to session
    threads = {}

    def recording(role, engine):
        def run(*args, **kwargs):
            threads[role] = threading.current_thread()
            return engine(*args, **kwargs)
        return run

    monkeypatch.setattr(session, "run_burst_alice", recording("alice", run_burst_alice))
    monkeypatch.setattr(session, "run_burst_bob", recording("bob", run_burst_bob))
    simulate_session(scaled_config(0.01, seed=33), 1)
    assert threads["bob"] is threading.current_thread()
    assert threads["alice"] is not threading.current_thread()


def test_burst_without_lock_aborts_and_session_continues():
    # no photons and no dark counts: Bob has nothing to lock on in either burst
    cfg = scaled_config(0.01, seed=33, mu=0.0, dark_cps=0.0)
    alice, bob = simulate_session(cfg, 2)
    for result in (alice, bob):
        assert [o.aborted_reason for o in result.outcomes] == ["no_lock", "no_lock"]
        # R_N is signed, so no value of it can stand for "no lock"
        assert [o.offset_frames for o in result.outcomes] == [None, None]
        assert len(result.key_buffer) == 0


# --- hostile peer ------------------------------------------------------------------


_BITS = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
_POSITIONS = np.array([0, 3, 4, 70_000], dtype=np.int64)
# one well-formed payload, as values, per (sender, message type) of the layout table
SAMPLES = {
    ("alice", MsgType.HELLO): (b"QKL1", 2, bytes(range(8)), 3),
    ("bob", MsgType.HELLO): (b"QKL1", 2, bytes(range(8)), 3),
    ("alice", MsgType.BURST_START): (4,),
    ("alice", MsgType.SYNC_SUBSET): (_BITS, _BITS[::-1].copy()),
    ("bob", MsgType.FRAME_OFFSET_ACK): (2, -20),
    ("bob", MsgType.BASES): (_POSITIONS, _BITS[:4]),
    ("alice", MsgType.BASES): (_BITS,),
    ("alice", MsgType.QBER_SAMPLE): (_POSITIONS, _BITS[:4]),
    ("bob", MsgType.QBER_SAMPLE): (0.03,),
    ("alice", MsgType.ABORT): (1, 0.25),
    ("bob", MsgType.ABORT): (2, 0.5),
    ("alice", MsgType.WINNOW_PARITIES): (3, 2**63 + 5, _BITS),
    ("bob", MsgType.WINNOW_PARITIES): (_POSITIONS,),
    ("alice", MsgType.WINNOW_SYNDROMES): (np.array([7, 0, 3], dtype=np.int64),),
    ("alice", MsgType.PA_SEED): (_BITS,),
    ("alice", MsgType.KEY_HASH): (b"12345678",),
    ("bob", MsgType.KEY_HASH): (b"87654321",),
    ("alice", MsgType.SIM_PULSESTREAM): (20_000_000, 1, 0x7FF),
}


def test_every_layout_has_a_sample():
    assert set(SAMPLES) == set(LAYOUTS)


@pytest.mark.parametrize("sender,msg_type", list(LAYOUTS),
                         ids=[f"{s}-{t.name}" for s, t in LAYOUTS])
def test_layout_roundtrip_and_exact_length(sender, msg_type):
    values = SAMPLES[sender, msg_type]
    payload = pack_payload(sender, msg_type, *values)
    again = unpack_payload(sender, msg_type, payload, bound=2**32)
    assert len(again) == len(values)
    for got, want in zip(again, values):
        assert np.array_equal(got, want)
        if isinstance(got, np.ndarray):  # a section, at its wire width in native order
            assert got.dtype in (np.dtype(np.uint32), np.dtype(np.uint8))
    for bad in (payload[:-1], payload + b"\x00"):
        with pytest.raises(ProtocolError):
            unpack_payload(sender, msg_type, bad, bound=2**32)


def test_positions_and_bytes_sections_are_little_endian_views_of_the_payload():
    # arrays cross the wire in their own byte order, so the receiver reads them in place
    payload = pack_payload("bob", MsgType.BASES, _POSITIONS, _BITS[:4])
    assert payload[4:20] == _POSITIONS.astype("<u4").tobytes()
    positions, _ = unpack_payload("bob", MsgType.BASES, payload, bound=2**32)
    assert np.shares_memory(positions, np.frombuffer(payload, np.uint8))
    payload = pack_payload("alice", MsgType.WINNOW_SYNDROMES, np.array([7, 0, 3]))
    (syndromes,) = unpack_payload("alice", MsgType.WINNOW_SYNDROMES, payload, bound=8)
    assert np.shares_memory(syndromes, np.frombuffer(payload, np.uint8))


def test_unknown_abort_reason_is_a_protocol_error():
    with pytest.raises(ProtocolError):
        unpack_payload("bob", MsgType.ABORT, struct.pack(">Bd", 9, 0.5))


def truncated(msg_type, payload):
    return msg_type, payload[:-1]


def last_index_too_large(msg_type, payload):
    (n,) = struct.unpack(">I", payload[:4])
    return msg_type, payload[: 4 * n] + b"\xff\xff\xff\xff" + payload[4 + 4 * n :]


def syndrome_too_large(msg_type, payload):
    return msg_type, payload[:-1] + bytes([8])


def short_abort(msg_type, payload):
    return MsgType.ABORT, b"\x01"


def unknown_abort_reason(msg_type, payload):
    return MsgType.ABORT, struct.pack(">Bd", 9, 0.0)


def abort_qber(msg_type, payload):
    return MsgType.ABORT, struct.pack(">Bd", AbortReason.QBER, 0.02)


def abort_reason_5(msg_type, payload):
    return MsgType.ABORT, struct.pack(">Bd", 5, 0.0)


def abort_no_lock(msg_type, payload):
    return MsgType.ABORT, struct.pack(">Bd", AbortReason.NO_LOCK, 0.0)


def offset_outside_window(msg_type, payload):
    return msg_type, payload[:1] + b"\xff\xff\xff\xff"


def unknown_fifo_choice(msg_type, payload):
    return msg_type, bytes([3]) + payload[1:]


def burst_id_off(msg_type, payload):
    (burst_id,) = struct.unpack(">I", payload)
    return msg_type, struct.pack(">I", burst_id + 1)


def wrong_pass(msg_type, payload):
    return msg_type, bytes([payload[0] + 1]) + payload[1:]


def count_999(msg_type, payload):
    # the 0.01-s burst's 1,000 sync pulses and 999 pack into the same 125 bytes a
    # section, so only the count check can refuse it
    return msg_type, struct.pack(">I", 999) + payload[4:]


def first_bit_flipped(msg_type, payload):
    return msg_type, bytes([payload[0] ^ 0x80]) + payload[1:]


# (sender, the message it sends, how it is rewritten, which of those messages); every
# message a burst receives, and an ABORT whose reason that point of the burst cannot
# produce; the seed-33 burst of _run_tampered has three Winnow passes, two with syndromes
HOSTILE = [(s, t, r, 1) for s, t, r in [
    ("alice", MsgType.BURST_START, truncated),
    ("alice", MsgType.BURST_START, burst_id_off),
    ("alice", MsgType.SYNC_SUBSET, truncated),
    ("alice", MsgType.SYNC_SUBSET, count_999),
    ("bob", MsgType.FRAME_OFFSET_ACK, truncated),
    ("bob", MsgType.FRAME_OFFSET_ACK, short_abort),
    ("bob", MsgType.FRAME_OFFSET_ACK, unknown_abort_reason),
    ("bob", MsgType.FRAME_OFFSET_ACK, abort_qber),
    ("bob", MsgType.FRAME_OFFSET_ACK, abort_reason_5),
    ("bob", MsgType.FRAME_OFFSET_ACK, offset_outside_window),
    ("bob", MsgType.FRAME_OFFSET_ACK, unknown_fifo_choice),
    ("bob", MsgType.BASES, truncated),
    ("bob", MsgType.BASES, last_index_too_large),
    ("alice", MsgType.BASES, truncated),
    ("alice", MsgType.QBER_SAMPLE, truncated),
    ("alice", MsgType.QBER_SAMPLE, last_index_too_large),
    ("bob", MsgType.QBER_SAMPLE, truncated),
    ("alice", MsgType.ABORT, truncated),
    ("alice", MsgType.ABORT, abort_no_lock),
    ("alice", MsgType.WINNOW_PARITIES, truncated),
    ("alice", MsgType.WINNOW_PARITIES, wrong_pass),
    ("bob", MsgType.WINNOW_PARITIES, truncated),
    ("bob", MsgType.WINNOW_PARITIES, last_index_too_large),
    ("alice", MsgType.WINNOW_SYNDROMES, truncated),
    ("alice", MsgType.WINNOW_SYNDROMES, syndrome_too_large),
    ("alice", MsgType.KEY_HASH, truncated),
    ("alice", MsgType.PA_SEED, truncated),
    ("bob", MsgType.KEY_HASH, truncated),
    ("bob", MsgType.KEY_HASH, abort_no_lock),
    ("bob", MsgType.KEY_HASH, first_bit_flipped),
]] + [
    ("alice", MsgType.WINNOW_PARITIES, truncated, 2),
    ("alice", MsgType.WINNOW_PARITIES, wrong_pass, 2),
    ("bob", MsgType.WINNOW_PARITIES, truncated, 2),
    ("bob", MsgType.WINNOW_PARITIES, last_index_too_large, 2),
    ("alice", MsgType.WINNOW_SYNDROMES, truncated, 2),
    ("alice", MsgType.WINNOW_SYNDROMES, syndrome_too_large, 2),
]


class _Tampered:
    """Channel end that rewrites the n-th message of one type it sends."""

    def __init__(self, chan, msg_type, rewrite, n=1):
        self.chan, self.msg_type, self.rewrite, self.left = chan, msg_type, rewrite, n

    def send(self, msg_type, payload=b""):
        if msg_type == self.msg_type:
            self.left -= 1
            if self.left == 0:
                msg_type, payload = self.rewrite(msg_type, payload)
        self.chan.send(msg_type, payload)

    def recv(self, *types):
        return self.chan.recv(*types)

    def close(self):
        self.chan.close()


def _run_tampered(sender, msg_type, rewrite, n=1):
    """One 0.01-s burst in which ``sender`` rewrites the n-th ``msg_type`` it sends.

    Returns each terminal's burst outcome or exception, and the key buffers.
    """
    # Alice sends ABORT only when the QBER check fails, hence the eavesdropper
    cfg = scaled_config(0.01, seed=33, eve_enabled=msg_type == MsgType.ABORT)
    chans = dict(zip(("alice", "bob"), make_loop_pair(timeout=10.0)))
    chans[sender] = _Tampered(chans[sender], msg_type, rewrite, n)
    transport = InProcessTransport(10.0)
    bufs = {role: KeyBuffer() for role in chans}
    ends = {}

    def run(role):
        engine = run_burst_alice if role == "alice" else run_burst_bob
        try:
            ends[role], _ = engine(0, cfg, chans[role], transport, bufs[role],
                                   np.empty(0, np.uint8))
        except Exception as exc:  # inspected by the caller
            ends[role] = exc
            chans[role].close()

    threads = [threading.Thread(target=run, args=(role,)) for role in chans]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    return ends, bufs


@pytest.mark.parametrize("sender,msg_type,rewrite,n", HOSTILE,
                         ids=[f"{s}-{t.name}-{r.__name__}" + (f"-{n}" if n > 1 else "")
                              for s, t, r, n in HOSTILE])
def test_hostile_payload_is_a_protocol_error(sender, msg_type, rewrite, n):
    ends, bufs = _run_tampered(sender, msg_type, rewrite, n)
    receiver = "bob" if sender == "alice" else "alice"
    assert isinstance(ends[receiver], ProtocolError), ends
    assert not isinstance(ends[receiver], ChannelClosed), ends
    assert len(bufs[receiver]) == 0
    # Bob's KEY_HASH is a burst's last message: he has committed his key before sending it
    if (sender, msg_type) != ("bob", MsgType.KEY_HASH):
        assert len(bufs[sender]) == 0


def test_corrupted_pa_seed_rejects_the_burst():
    def flip_first_seed_bit(msg_type, payload):
        return msg_type, payload[:4] + bytes([payload[4] ^ 0x80]) + payload[5:]

    ends, bufs = _run_tampered("alice", MsgType.PA_SEED, flip_first_seed_bit)
    for role in ("alice", "bob"):
        assert isinstance(ends[role], BurstOutcome), ends
        assert ends[role].aborted_reason == "burst_rejected"
        assert len(bufs[role]) == 0


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(dict.fromkeys((s, t, n) for s, t, _, n in HOSTILE))),
       st.booleans(), st.integers(0, 2**20), st.integers(0, 255))
def test_corrupted_message_ends_in_protocol_error_or_outcome(message, truncate, where, value):
    # truncate the message, or overwrite one of its bytes; a rewrite may still parse
    sender, msg_type, n = message

    def corrupt(msg_type, payload):
        pos = where % len(payload)
        if truncate:
            return msg_type, payload[:pos]
        return msg_type, payload[:pos] + bytes([value]) + payload[pos + 1 :]

    ends, _ = _run_tampered(sender, msg_type, corrupt, n)
    receiver = "bob" if sender == "alice" else "alice"
    assert isinstance(ends[receiver], (ProtocolError, BurstOutcome)), ends
