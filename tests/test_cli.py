import csv
import dataclasses
import hashlib
import io
import re
import socket
import struct
import threading
import time

import numpy as np
import pytest

from conftest import free_port
from qkdlink import cli, photonics
from qkdlink.cli import ReportWriter, main
from qkdlink.core import load_config, rng_stream
from qkdlink.eve import Eavesdropper
from qkdlink.photonics import generate_burst, transmit_and_detect
from qkdlink.securecomm import CHAT_CHUNK_BYTES, ChatEndpoint
from qkdlink.session import (
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    MsgType,
    NetworkTransport,
    SocketChannel,
    config_fingerprint,
    pack_payload,
    run_session,
)


CFG_SMALL = "burst_seconds=0.01\n"


def _write_cfg(tmp_path, text=CFG_SMALL):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_estimate_prints_reference_rates(capsys):
    assert main(["estimate"]) == 0
    out = capsys.readouterr().out
    assert _digest(out.encode()) == "1dbaea7766ea51ea"  # the whole table, pinned
    match = re.search(r"secure key rate\s+([\d.]+) Kbps", out)
    assert match, out
    secure = float(match.group(1))
    assert abs(secure - 299.0) <= 0.015 * 299.0
    assert "920" in out or "927" in out  # total clicks row


def test_sweep_stdout(capsys):
    assert main(["sweep", "--from", "0", "--to", "100", "--step", "50"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "distance_m,secure_kbps"
    assert len(lines) == 4


def test_default_sweep_stdout_is_pinned(capsys):
    assert main(["sweep"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 52  # the header and 0, 50, ..., 2500 m
    assert _digest(out.encode()) == "3c216319e1c06a41"


def test_sweep_out_is_the_stdout_table_with_crlf_line_ends(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep"]) == 0
    table = capsys.readouterr().out
    assert main(["sweep", "--out", str(out)]) == 0
    assert out.read_bytes() == table.replace("\n", "\r\n").encode()


def test_sweep_csv_anchors(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--from", "0", "--to", "2500", "--step", "50",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = {float(r["distance_m"]): float(r["secure_kbps"]) for r in csv.DictReader(fh)}
    assert rows[300.0] == pytest.approx(301.2, abs=5)
    assert rows[750.0] >= 280.0
    assert 40.0 <= rows[2500.0] <= 60.0


def test_simulate_writes_report_and_key(tmp_path):
    cfg = _write_cfg(tmp_path)
    report = tmp_path / "report.csv"
    key = tmp_path / "key.bin"
    code = main(["simulate", "--config", cfg, "--seed", "5", "--bursts", "2",
                 "--out", str(report), "--key-out", str(key)])
    assert code == 0
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert [r["burst_id"] for r in rows] == ["0", "1"]
    for row in rows:
        assert 0.0 <= float(row["qber"]) <= 0.05
        assert float(row["secure_kbps"]) > 0
        assert row["fifo_choice"] in ("1", "2")
        assert row["abort_reason"] == ""
        assert int(row["disclosed_bits"]) > 0
    assert key.stat().st_size > 0
    # new columns are appended; the first six keep their order
    assert report.read_text().splitlines()[0] == ",".join(ReportWriter.COLUMNS)
    assert ReportWriter.COLUMNS[:6] == ["burst_id", "sifted_kbps", "qber", "secure_kbps",
                                        "offset_frames", "fifo_choice"]


@pytest.mark.parametrize("cfg_text, flags, code, digest", [
    (CFG_SMALL, [], 0, "1c07b5625b9698e3"),
    (CFG_SMALL, ["--eve"], 2, "49265ba6e9b83e81"),  # each burst aborts at the QBER check
    (CFG_SMALL + "link.mu=0.0\nlink.dark_cps=0.0\n", [], 2, "91a710bc1d9b870f"),  # no lock
], ids=["clean", "eve", "no_lock"])
def test_simulate_report_is_pinned(tmp_path, cfg_text, flags, code, digest):
    # every column of two bursts, an empty offset_frames and abort_reason among them
    report = tmp_path / "report.csv"
    assert main(["simulate", "--config", _write_cfg(tmp_path, cfg_text), "--seed", "1",
                 "--bursts", "2", "--out", str(report), *flags]) == code
    assert _digest(report.read_bytes()) == digest


def test_simulate_deterministic_reports(tmp_path):
    cfg = _write_cfg(tmp_path)
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["simulate", "--config", cfg, "--seed", "7", "--bursts", "3",
                 "--out", str(r1)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "7", "--bursts", "3",
                 "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_simulate_seed_changes_report(tmp_path):
    cfg = _write_cfg(tmp_path)
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    main(["simulate", "--config", cfg, "--seed", "7", "--out", str(r1)])
    main(["simulate", "--config", cfg, "--seed", "8", "--out", str(r2)])
    assert r1.read_bytes() != r2.read_bytes()


def test_simulate_writes_one_sync_report_per_burst(tmp_path):
    # the receiver's offset search curve of each burst; a change to the search or
    # to the draws before it shows in the digest
    cfg = _write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg, "--seed", "1", "--bursts", "2",
                 "--sync-report", str(tmp_path / "sync.csv")]) == 0
    assert sorted(p.name for p in tmp_path.glob("sync-*.csv")) == ["sync-0.csv", "sync-1.csv"]
    assert _digest((tmp_path / "sync-0.csv").read_bytes()) == "51146aa8769c9262"


def test_simulate_with_eve_aborts(tmp_path):
    # a realistically sized sync subset so the offset search stays solid under Eve
    cfg = _write_cfg(tmp_path, CFG_SMALL + "link.sync_efficiency=0.9\n")
    report = tmp_path / "report.csv"
    code = main(["simulate", "--config", cfg, "--seed", "5", "--eve",
                 "--out", str(report)])
    assert code == 2
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["qber"]) == pytest.approx(0.25, abs=0.05)
    assert float(rows[0]["secure_kbps"]) == 0.0
    assert rows[0]["abort_reason"] == "qber"
    assert rows[0]["disclosed_bits"] == "0"  # aborted before Winnow


def test_simulate_eve_log_matches_replayed_interception(tmp_path, capsys, monkeypatch):
    cfg_path = _write_cfg(tmp_path, "burst_seconds=0.001\neve_fraction=0.5\n")
    log_path = tmp_path / "eve.csv"
    # a 20K-pulse burst samples too few bits for a dependable QBER abort: the
    # exit code is not what this test checks
    main(["simulate", "--config", cfg_path, "--seed", "3", "--eve", "--eve-log", str(log_path)])
    # the same interception, written row by row with the csv module
    cfg = dataclasses.replace(load_config(cfg_path), rng_seed=3, eve_enabled=True)
    tx = generate_burst(cfg, rng_stream(3, "txgen:0"))
    parts = []
    eve = Eavesdropper(rng_stream(3, "eve:0"), cfg.eve_fraction, log=parts)
    transmit_and_detect(tx, cfg, eve=eve, rng=rng_stream(3, "channel:0"))
    ((index, bases, bits),) = parts
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["index", "basis", "bit"])
    writer.writerows(zip(index.tolist(), bases.tolist(), bits.tolist()))
    assert log_path.read_bytes() == expected.getvalue().encode()
    assert f"intercepted={len(index)}" in capsys.readouterr().err
    assert 0 < len(index) < len(tx)
    assert len(str(index[0])) < len(str(index[-1]))
    # blocks that split within and across digit widths give the same bytes
    monkeypatch.setattr(cli, "EVE_LOG_BLOCK_ROWS", 77)
    cli._dump_eve_log(cfg, tmp_path / "chunked.csv")
    assert (tmp_path / "chunked.csv").read_bytes() == log_path.read_bytes()


def test_eve_log_holds_the_states_the_receiver_measured(tmp_path, capsys, monkeypatch):
    # full interception, no polarization error and no dark counts: a photon Bob
    # measures in Eve's basis reads Eve's bit
    cfg_path = _write_cfg(tmp_path, "burst_seconds=0.002\nlink.e_pol=0.0\nlink.dark_cps=0.0\n")
    received = []
    detect = photonics.detector_entries

    def entries(*args, **kwargs):
        out = detect(*args, **kwargs)
        received.append((out[0].copy(), out[1]))  # the merge sorts the keys in place
        return out

    monkeypatch.setattr(photonics, "detector_entries", entries)
    log_path = tmp_path / "eve.csv"
    main(["simulate", "--config", cfg_path, "--seed", "4", "--eve", "--eve-log", str(log_path)])
    # the detector entries of Bob's own burst, then those of the log's replay of it
    (key, src), (replay_key, replay_src) = received
    assert np.array_equal(replay_key, key)
    assert np.array_equal(replay_src, src)
    assert len(key) == len(src)  # no dark counts: every entry is a detected photon
    channel = key & 7
    index, basis, bit = np.loadtxt(log_path, delimiter=",", skiprows=1, dtype=np.int64,
                                   ndmin=2).T
    assert f"intercepted={len(index)}" in capsys.readouterr().err
    # the logged pulses are the pulses that reached Bob, in ascending order
    assert np.array_equal(index, np.unique(src))
    row = np.searchsorted(index, src)
    meas_basis = (channel - 1) >> 1
    same = meas_basis == basis[row]
    assert np.count_nonzero(same) > 0.4 * len(src)
    assert np.array_equal(((channel - 1) & 1)[same], bit[row][same])


def test_eve_log_is_pinned(tmp_path, capsys):
    # Eve's states of burst 0 at seed 3: a change to the replay or to the draws shows here
    log_path = tmp_path / "eve.csv"
    main(["simulate", "--config", _write_cfg(tmp_path), "--seed", "3", "--eve",
          "--eve-log", str(log_path)])
    assert _digest(log_path.read_bytes()) == "77a782a2e1a13678"
    rows = len(log_path.read_bytes().splitlines()) - 1
    assert f"intercepted={rows}" in capsys.readouterr().err


def test_eve_log_without_eve_is_usage_error(tmp_path, capsys):
    log_path = tmp_path / "eve.csv"
    assert main(["simulate", "--config", _write_cfg(tmp_path), "--eve-log", str(log_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --eve-log")
    assert "event=burst" not in err  # refused before the session runs
    assert not log_path.exists()


@pytest.mark.parametrize("fields", [(0, 0, 5), (0, 5, 2048), (1, 5, 7)],
                         ids=["state_0", "state_2048", "one_pulse_more"])
def test_bob_exits_2_on_a_hostile_pulse_stream(tmp_path, capsys, fields):
    # a peer posing as Alice sends a valid BURST_START, then SIM_PULSESTREAM
    # (pulse count over the configuration's, PRBS11 state of the bases, of the bits)
    cfg_path = _write_cfg(tmp_path)
    cfg = dataclasses.replace(load_config(cfg_path), rng_seed=33)
    extra, state_bases, state_bits = fields
    codes = []
    with socket.create_server(("127.0.0.1", 0)) as srv:
        port = srv.getsockname()[1]
        bob = threading.Thread(target=lambda: codes.append(main(
            ["bob", "--connect", f"127.0.0.1:{port}", "--config", cfg_path, "--seed", "33",
             "--timeout", "5"])), daemon=True)
        bob.start()
        srv.settimeout(15.0)
        conn, _ = srv.accept()
    chan = SocketChannel(conn, timeout=10.0)
    try:
        chan.recv(MsgType.HELLO)
        chan.send(MsgType.HELLO, pack_payload("alice", MsgType.HELLO, PROTOCOL_MAGIC,
                                              PROTOCOL_VERSION, config_fingerprint(cfg), 1))
        chan.send(MsgType.BURST_START, pack_payload("alice", MsgType.BURST_START, 0))
        chan.send(MsgType.SIM_PULSESTREAM,
                  struct.pack(">QHH", cfg.n_pulses + extra, state_bases, state_bits))
        bob.join(timeout=30)
    finally:
        chan.close()
    assert codes == [2]
    assert "error=ProtocolError" in capsys.readouterr().err


def _connect_when_listening(port: int, timeout: float = 15.0) -> socket.socket:
    deadline = time.monotonic() + timeout
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=timeout)
        except ConnectionRefusedError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def test_chat_receive_that_cannot_finish_exits_2(tmp_path, capsys):
    # the peer sends every whole frame the receive lane covers, then one more at the
    # right key offset: the receive fails at once, and the chat must not exit 0
    cfg_path = _write_cfg(tmp_path)
    port = free_port()
    recv_out = tmp_path / "recv.bin"
    codes = []
    alice = threading.Thread(target=lambda: codes.append(main(
        ["chat", "--listen", "--port", str(port), "--config", cfg_path, "--seed", "33",
         "--timeout", "2", "--recv-out", str(recv_out)])), daemon=True)
    alice.start()
    chan = SocketChannel(_connect_when_listening(port), timeout=10.0)
    try:
        cfg = dataclasses.replace(load_config(cfg_path), rng_seed=33)
        result = run_session("bob", cfg, chan, NetworkTransport(chan), 1)
        peer = ChatEndpoint(chan, result.key_buffer, "bob")
        peer.handshake()
        frame_bits = 8 * CHAT_CHUNK_BYTES
        peer.send_bytes(bytes(result.key_buffer.available(peer.send_lane) // frame_bits
                              * CHAT_CHUNK_BYTES))
        offset = result.key_buffer.next_range_start(peer.send_lane)
        assert result.key_buffer.available(peer.send_lane) < frame_bits
        chan.send(MsgType.CHAT_DATA, offset.to_bytes(8, "big") + bytes(CHAT_CHUNK_BYTES))
        alice.join(timeout=30)
    finally:
        chan.close()
    assert codes == [2]
    err = capsys.readouterr().err
    assert "error=KeyExhausted" in err
    assert "chat_done" not in err
    assert not recv_out.exists()


def test_chat_receive_past_its_deadline_exits_2(tmp_path, capsys):
    # the peer, as Alice, sends a one-byte frame every 0.2 s and never its EOF: every
    # read ends inside --timeout, so only the receive deadline (--timeout after the
    # local EOF) ends Bob's chat
    cfg_path = _write_cfg(tmp_path)
    codes = []
    with socket.create_server(("127.0.0.1", 0)) as srv:
        port = srv.getsockname()[1]
        bob = threading.Thread(target=lambda: codes.append(main(
            ["chat", "--connect", f"127.0.0.1:{port}", "--config", cfg_path, "--seed", "33",
             "--timeout", "2"])), daemon=True)
        bob.start()
        srv.settimeout(15.0)
        conn, _ = srv.accept()
    chan = SocketChannel(conn, timeout=10.0)
    try:
        cfg = dataclasses.replace(load_config(cfg_path), rng_seed=33)
        result = run_session("alice", cfg, chan, NetworkTransport(chan), 1)
        peer = ChatEndpoint(chan, result.key_buffer, "alice")
        peer.handshake()
        start = time.monotonic()
        while bob.is_alive() and time.monotonic() - start < 10:
            try:
                peer.send_bytes(b"x")
            except OSError:  # the chat closed the connection on its way out
                break
            time.sleep(0.2)
        bob.join(timeout=10)
        elapsed = time.monotonic() - start
    finally:
        chan.close()
    assert codes == [2]
    assert elapsed < 2 * 2
    err = capsys.readouterr().err
    # 2,970 key bits fill less than one lane page: Bob's send lane is empty, and the
    # handshake took 64 bits of his receive lane
    assert "event=chat_established role=bob send_bits=0 recv_bits=2906" in err
    assert "event=abort error=TimeoutError" in err
    assert "chat_done" not in err and "Traceback" not in err


def test_terminal_logs_each_burst_as_simulate_does(tmp_path, capsys):
    # Alice over TCP, with Bob's engine as the peer, logs the event=burst lines
    # simulate logs for the same seed and configuration
    cfg_path = _write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg_path, "--seed", "5", "--bursts", "2"]) == 0
    want = [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("event=burst ")]
    assert len(want) == 2
    port = free_port()
    codes = []
    alice = threading.Thread(target=lambda: codes.append(main(
        ["alice", "--port", str(port), "--config", cfg_path, "--seed", "5", "--bursts", "2",
         "--timeout", "10"])), daemon=True)
    alice.start()
    chan = SocketChannel(_connect_when_listening(port), timeout=10.0)
    try:
        cfg = dataclasses.replace(load_config(cfg_path), rng_seed=5)
        run_session("bob", cfg, chan, NetworkTransport(chan), 2)
        alice.join(timeout=30)
    finally:
        chan.close()
    assert codes == [0]
    got = [line for line in capsys.readouterr().err.splitlines()
           if line.startswith("event=burst ")]
    assert got == want


def _chat_pair(capture, common, alice_args=(), bob_args=()):
    """Runs a ``chat --listen`` terminal on a thread and its ``--connect`` peer on
    this one, through ``capsys`` or ``capsysbinary``; returns the exit codes in the
    order the terminals end, their stdout as captured and their stderr as text."""
    def text(s):
        return s.decode() if isinstance(s, bytes) else s

    port = free_port()
    codes = []
    alice = threading.Thread(target=lambda: codes.append(main(
        ["chat", "--listen", "--port", str(port), *common, *alice_args])), daemon=True)
    alice.start()
    err, deadline = "", time.monotonic() + 15
    while "event=listening" not in err and time.monotonic() < deadline:
        err += text(capture.readouterr().err)  # nothing is on stdout before a chat
        time.sleep(0.02)
    start = time.monotonic()
    codes.append(main(["chat", "--connect", f"127.0.0.1:{port}", *common, *bob_args]))
    alice.join(timeout=30)
    assert time.monotonic() - start < 15  # nothing waits out --timeout
    out, rest = capture.readouterr()
    return codes, out, err + text(rest)


def test_chat_send_past_the_key_exits_2_at_once(tmp_path, capsys):
    # a 0.2-s burst at seed 1 distills 58,949 key bits, so Bob's send lane holds
    # 26,181 (3,272 B): Bob's one 4,000-byte frame needs 32,000, so his send fails
    # before any data frame goes out, and both terminals exit 2
    cfg_path = _write_cfg(tmp_path, "burst_seconds=0.2\n")
    send = tmp_path / "send.bin"
    send.write_bytes(bytes(4000))
    codes, _, err = _chat_pair(capsys, ["--config", cfg_path, "--seed", "1", "--timeout", "30"],
                               bob_args=["--send-file", str(send)])
    assert codes == [2, 2]
    assert "key_bits=58949" in err
    # each terminal logs its lanes before any frame: 32,768 bits less the handshake's
    # 64 on Alice's send lane, the rest on Bob's
    assert "event=chat_established role=alice send_bits=32704 recv_bits=26181" in err
    assert "event=chat_established role=bob send_bits=26181 recv_bits=32704" in err
    assert "event=abort error=KeyExhausted detail=key buffer exhausted: need 32000 bits, " \
           "lane has 26181" in err
    assert err.count("event=abort") == 2
    assert "chat_done" not in err and "Traceback" not in err


def test_chat_refused_for_want_of_key_exits_2(tmp_path, capsys):
    # the eavesdropped 0.01-s burst aborts, so neither buffer holds the handshake's 64
    # bits: each terminal refuses the chat as a protocol abort
    cfg_path = _write_cfg(tmp_path)
    codes, _, err = _chat_pair(capsys, ["--config", cfg_path, "--seed", "1", "--eve",
                                        "--timeout", "30"])
    assert codes == [2, 2]
    assert err.count("event=abort error=ChatRefused detail=need 64 fresh key bits for the "
                     "handshake, have 0 (consumed 0)") == 2
    assert "chat_established" not in err
    assert "chat_done" not in err and "Traceback" not in err


def test_chat_text_goes_out_and_the_peer_bytes_come_out_on_stdout(tmp_path, capsysbinary):
    # Alice sends --text and, with no --recv-out, writes what Bob sent to stdout
    cfg_path = _write_cfg(tmp_path, "burst_seconds=0.2\n")
    send, recv = tmp_path / "send.bin", tmp_path / "recv.bin"
    send.write_bytes(bytes(range(256)) * 7)
    text = "h\u00e9llo \u2713"
    codes, out, err = _chat_pair(capsysbinary, ["--config", cfg_path, "--seed", "1"],
                                 alice_args=["--text", text],
                                 bob_args=["--send-file", str(send), "--recv-out", str(recv)])
    assert codes == [0, 0]
    assert out == send.read_bytes()
    assert recv.read_bytes() == text.encode("utf-8")
    assert err.count("event=chat_done") == 2 and "Traceback" not in err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["simulate", "--frobnicate"]) == 1


@pytest.mark.parametrize("argv, prefix", [
    (["sweep", "--from", "-10", "--to", "20", "--step", "10"], "usage error: sweep needs"),
    (["simulate", "--bursts", "-1"], "usage error: argument --bursts"),
    (["simulate", "--bursts", "0"], "usage error: argument --bursts"),
    (["bob", "--connect", "127.0.0.1:1", "--bursts", "0"], "usage error: argument --bursts"),
    (["chat", "--connect", "127.0.0.1:1", "--bursts", "-1"], "usage error: argument --bursts"),
    (["estimate", "--config", "missing.cfg"], "configuration error: cannot read missing.cfg"),
    (["simulate", "--out", "missing/r.csv"], "usage error: cannot write --out missing/r.csv"),
    (["simulate", "--out", "."], "usage error: cannot write --out ."),
    (["simulate", "--key-out", "missing/k.bin"], "usage error: cannot write --key-out"),
    (["simulate", "--sync-report", "missing/s.csv"], "usage error: cannot write --sync-report"),
    (["simulate", "--eve", "--eve-log", "missing/e.csv"], "usage error: cannot write --eve-log"),
    (["sweep", "--out", "missing/s.csv"], "usage error: cannot write --out"),
    (["bob", "--connect", "127.0.0.1:1", "--out", "missing/r.csv"],
     "usage error: cannot write --out"),
    (["bob", "--connect", "127.0.0.1:1", "--key-out", "missing/k.bin"],
     "usage error: cannot write --key-out"),
    (["chat", "--connect", "127.0.0.1:1", "--recv-out", "missing/r.bin"],
     "usage error: cannot write --recv-out"),
    (["chat", "--connect", "127.0.0.1:1", "--send-file", "missing.bin"],
     "usage error: cannot open missing.bin: No such file or directory"),
    (["chat"], "usage error: chat needs --listen or --connect"),
    (["alice", "--port", "99999"], "usage error: argument --port"),
    (["alice", "--port", "-5"], "usage error: argument --port"),
    (["bob", "--connect", "127.0.0.1:abc"], "usage error: argument --connect"),
    (["bob", "--connect", ":47000"], "usage error: argument --connect"),
    (["bob", "--connect", "127.0.0.1:1", "--timeout", "0"], "usage error: argument --timeout"),
    (["bob", "--connect", "127.0.0.1:1", "--timeout", "-1"], "usage error: argument --timeout"),
    (["chat", "--connect", "127.0.0.1:1", "--timeout", "inf"],
     "usage error: argument --timeout"),
], ids=["sweep_from_negative", "simulate_bursts_negative", "simulate_bursts_zero",
        "bob_bursts_zero", "chat_bursts_negative", "estimate_missing_config",
        "simulate_out_missing_dir", "simulate_out_a_dir", "simulate_key_out_missing_dir",
        "simulate_sync_report_missing_dir", "simulate_eve_log_missing_dir",
        "sweep_out_missing_dir", "bob_out_missing_dir", "bob_key_out_missing_dir",
        "chat_recv_out_missing_dir", "chat_send_file_missing", "chat_neither_listen_nor_connect",
        "alice_port_over_65535", "alice_port_negative", "bob_connect_port_not_a_number",
        "bob_connect_no_host", "bob_timeout_zero", "bob_timeout_negative",
        "chat_timeout_infinite"])
def test_bad_input_exits_1(tmp_path, monkeypatch, capsys, argv, prefix):
    monkeypatch.chdir(tmp_path)  # where missing.cfg does not exist
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("case, error", [("refused", "ConnectionRefusedError"),
                                         ("port_in_use", "OSError"),
                                         ("unresolvable_host", "gaierror")])
def test_socket_failure_exits_2(tmp_path, capsys, case, error):
    # a closed loopback port, a --port another socket listens on, and a host that never
    # resolves (.invalid, RFC 6761): each ends as a logged abort, not a traceback
    cfg_path = _write_cfg(tmp_path)
    with socket.create_server(("", 0)) as held:
        argv = {"refused": ["bob", "--connect", f"127.0.0.1:{free_port()}"],
                "port_in_use": ["alice", "--port", str(held.getsockname()[1])],
                "unresolvable_host": ["bob", "--connect", "nosuchhost.invalid:47000"]}[case]
        assert main([*argv, "--config", cfg_path, "--timeout", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"event=abort error={error} detail=")
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("argv", [["alice"], ["bob", "--connect", "127.0.0.1:1"]],
                         ids=["alice", "bob"])
@pytest.mark.parametrize("option", ["--chat", "--send-file=f", "--text=t", "--recv-out=f",
                                    "--listen"])
def test_chat_options_belong_to_chat_alone(argv, option):
    cli.build_parser().parse_args(argv)
    with pytest.raises(cli.UsageError):
        cli.build_parser().parse_args([*argv, option])


def test_unknown_subcommand_is_usage_error():
    assert main(["dance"]) == 1


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1


def test_bad_config_file_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("link.wavelength=785\n")
    assert main(["estimate", "--config", str(cfg)]) == 1


def test_config_overrides_estimate(tmp_path, capsys):
    cfg = tmp_path / "mu.cfg"
    cfg.write_text("link.mu=0.0\n")
    assert main(["estimate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"secure key rate\s+0.0 Kbps", out)
