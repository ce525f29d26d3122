"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion PASS/FAIL
lines appear in the terminal summary.
"""

import csv
import dataclasses
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qkdlink
from conftest import count_split_events, detect_with_sources, free_port, scaled_config
from qkdlink.analysis import distance_sweep, estimate_rates
from qkdlink.core import default_config, rng_stream
from qkdlink.photonics import generate_burst, transmit_and_detect
from qkdlink.postproc import (
    KeyBuffer,
    block_parities,
    privacy_amplify,
    winnow_correct,
)
from qkdlink.securecomm import HANDSHAKE_BITS, ChatEndpoint
from qkdlink.session import make_loop_pair, simulate_session
from qkdlink.timing import synchronize


def test_criterion_1_analytic_estimator(acceptance_recorder):
    link = default_config().link
    est = estimate_rates(link)
    checks = {
        "clicks": (est.clicks_per_s, 920e3),
        "after_sync": (est.clicks_after_sync, 915e3),
        "secure": (est.secure_rate, 299e3),
    }
    ok = all(abs(got - ref) <= 0.015 * ref for got, ref in checks.values())
    detail = ", ".join(f"{k}={got / 1e3:.1f}K vs {ref / 1e3:.0f}K"
                       for k, (got, ref) in checks.items())
    acceptance_recorder(1, "analytic rate estimator", ok, detail)
    for name, (got, ref) in checks.items():
        assert abs(got - ref) <= 0.015 * ref, name


def test_criterion_2_full_burst_monte_carlo(acceptance_recorder):
    cfg = default_config(rng_seed=20)
    start = time.monotonic()
    alice, bob = simulate_session(cfg, 1, timeout=300.0)
    elapsed = time.monotonic() - start
    o = alice.outcomes[0]
    sifted = o.sifted_kbps(cfg.burst_seconds)
    secure = o.secure_kbps(cfg.burst_seconds)
    ok = (400 <= sifted <= 470 and 265 <= secure <= 310
          and 0.02 <= o.qber <= 0.032 and elapsed < 120
          and alice.key_buffer.to_bytes() == bob.key_buffer.to_bytes())
    acceptance_recorder(
        2, "desk-scale Monte Carlo burst", ok,
        f"sifted={sifted:.1f}Kbps secure={secure:.1f}Kbps qber={o.qber:.4f} "
        f"elapsed={elapsed:.1f}s")
    assert 400 <= sifted <= 470
    assert 265 <= secure <= 310
    assert 0.02 <= o.qber <= 0.032
    assert elapsed < 120
    assert alice.key_buffer.to_bytes() == bob.key_buffer.to_bytes()


def _eve_branch_error_weight() -> Fraction:
    """Exact sifted error probability of intercept-resend over all 16 branches."""
    error = Fraction(0)
    total = Fraction(0)
    for a_basis in (0, 1):
        for a_bit in (0, 1):
            for e_basis in (0, 1):
                outcomes = [(a_bit, Fraction(1))] if e_basis == a_basis else [
                    (0, Fraction(1, 2)), (1, Fraction(1, 2))]
                for e_bit, w_e in outcomes:
                    for b_basis in (0, 1):
                        if b_basis != a_basis:
                            continue
                        w = Fraction(1, 16) * w_e
                        total += w
                        if b_basis == e_basis:
                            if e_bit != a_bit:
                                error += w
                        else:
                            error += w * Fraction(1, 2)
    return error / total


def test_criterion_3_eavesdropper_detection(acceptance_recorder):
    oracle = _eve_branch_error_weight()
    cfg = dataclasses.replace(default_config(rng_seed=21), eve_enabled=True)
    alice, _ = simulate_session(cfg, 1, timeout=300.0)
    o = alice.outcomes[0]
    ok = (oracle == Fraction(1, 4) and 0.23 <= o.qber <= 0.27
          and o.aborted_reason == "qber" and len(alice.key_buffer) == 0)
    acceptance_recorder(
        3, "intercept-resend detection", ok,
        f"oracle={oracle} qber={o.qber:.4f} aborted={o.aborted_reason}")
    assert oracle == Fraction(1, 4)
    assert 0.23 <= o.qber <= 0.27
    assert o.aborted_reason == "qber"
    assert len(alice.key_buffer) == 0


def test_criterion_4_synchronization_recovery(acceptance_recorder):
    trials = 1000
    hits = 0
    for t in range(trials):
        cfg = scaled_config(0.001, seed=40_000 + t, tof_override_ns=1000.0)
        tx = generate_burst(cfg, rng_stream(cfg.rng_seed, "g"))
        rx = transmit_and_detect(tx, cfg, rng=rng_stream(cfg.rng_seed, "c"))
        sync = synchronize(tx.bases, tx.bits, rx, cfg)
        if sync.recovered_bin_offset == rx.true_bin_offset:
            hits += 1

    # the reference geometry: 1000 ns of flight is exactly 20 frames
    cfg0 = scaled_config(0.002, seed=41, tof_override_ns=1000.0, pps_jitter_sigma_ns=0.0)
    tx0 = generate_burst(cfg0, rng_stream(41, "g"))
    rx0, source0 = detect_with_sources(tx0, cfg0, rng=rng_stream(41, "c"))
    sync0 = synchronize(tx0.bases, tx0.bits, rx0, cfg0)

    # worst boundary alignment: clicks sit on the FIFO1 frame edge
    s1 = count_split_events(rx0, source0, 0, cfg0)
    s_chosen = count_split_events(rx0, source0, sync0.shift, cfg0)
    reduction = (s1 - s_chosen) / s1 if s1 else 0.0

    ok = hits >= 0.99 * trials and sync0.r_n == 20 and s1 > 0 and reduction >= 0.40
    acceptance_recorder(
        4, "synchronization pipeline", ok,
        f"recovered={hits}/{trials} r_n@1000ns={sync0.r_n} "
        f"split_reduction={reduction:.0%}")
    assert hits >= 0.99 * trials
    assert sync0.r_n == 20
    assert s1 > 0 and reduction >= 0.40


def test_criterion_5_postprocessing_oracles(acceptance_recorder):
    # every single-error pattern in a block is repaired in one pass
    rng = rng_stream(50, "t")
    alice_block = rng.integers(0, 2, 8, dtype=np.uint8)
    singles_ok = True
    for pos in range(8):
        bob_block = alice_block.copy()
        bob_block[pos] ^= 1
        corrected, _, _ = winnow_correct(alice_block, bob_block,
                                         rng_stream(pos, "w"), max_passes=1)
        singles_ok &= bool(np.array_equal(corrected, alice_block))

    # every two-error pattern keeps block parity (hence invisible to pass 1)
    doubles_ok = True
    for i in range(8):
        for j in range(i + 1, 8):
            damaged = alice_block.copy()
            damaged[i] ^= 1
            damaged[j] ^= 1
            doubles_ok &= bool(block_parities(damaged) == block_parities(alice_block))

    # 1000 random 3%-error keys of 2^14 bits: all resolved within 4 passes
    residual_failures = 0
    max_passes_seen = 0
    for trial in range(1000):
        krng = rng_stream(trial, "keys5")
        a = krng.integers(0, 2, 2**14, dtype=np.uint8)
        b = a.copy()
        flips = krng.random(2**14) < 0.03
        b[flips] ^= 1
        corrected, _, passes = winnow_correct(a, b, rng_stream(trial, "w5"))
        max_passes_seen = max(max_passes_seen, passes)
        if not np.array_equal(corrected, a):
            residual_failures += 1

    # Toeplitz hashing against a naive GF(2) matrix-vector oracle
    orng = rng_stream(51, "t")
    pa_mismatches = 0
    for _ in range(10_000):
        seed = orng.integers(0, 2, 26, dtype=np.uint8)
        block = orng.integers(0, 2, 16, dtype=np.uint8)
        got = privacy_amplify(block, seed)
        want = np.array(
            [np.bitwise_xor.reduce(seed[10 + np.arange(16) - i] & block) for i in range(11)],
            dtype=np.uint8)
        if len(got) != 11 or not np.array_equal(got, want):
            pa_mismatches += 1

    ok = (singles_ok and doubles_ok and residual_failures == 0
          and max_passes_seen <= 4 and pa_mismatches == 0)
    acceptance_recorder(
        5, "post-processing oracles", ok,
        f"singles={singles_ok} doubles={doubles_ok} "
        f"residual_failures={residual_failures}/1000 (max {max_passes_seen} passes) "
        f"toeplitz_mismatches={pa_mismatches}/10000")
    assert singles_ok and doubles_ok
    assert residual_failures == 0 and max_passes_seen <= 4
    assert pa_mismatches == 0


def test_criterion_6_distance_sweep(acceptance_recorder):
    link = default_config().link
    rows = dict(distance_sweep(link, [750.0, 2500.0]))
    ok = rows[750.0] >= 280e3 and 40e3 <= rows[2500.0] <= 60e3
    acceptance_recorder(
        6, "distance sweep anchors", ok,
        f"750m={rows[750.0] / 1e3:.1f}Kbps 2500m={rows[2500.0] / 1e3:.1f}Kbps")
    assert rows[750.0] >= 280e3
    assert 40e3 <= rows[2500.0] <= 60e3


# --- criterion 7: networked protocol and OTP messaging -----------------------------


def _cli_env() -> dict:
    # the child starts in cwd, where a relative PYTHONPATH would not find the package
    src = str(Path(qkdlink.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_cli(args, cwd, stderr_path):
    return subprocess.Popen(
        [sys.executable, "-m", "qkdlink.cli", *args],
        cwd=cwd,
        env=_cli_env(),
        stdout=subprocess.DEVNULL,
        stderr=open(stderr_path, "w"),
    )


def _wait_for_marker(path: Path, marker: str, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and marker in path.read_text():
            return True
        time.sleep(0.05)
    return False


def test_criterion_7_networked_protocol_and_otp(acceptance_recorder, tmp_path):
    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text("burst_seconds=0.01\n")

    # three bursts over loopback in two separate processes
    port = free_port()
    a_key, b_key = tmp_path / "a.key", tmp_path / "b.key"
    a_err, b_err = tmp_path / "a.err", tmp_path / "b.err"
    common = ["--config", str(cfg_path), "--seed", "33", "--bursts", "3"]
    alice = _run_cli(["alice", "--port", str(port), *common, "--key-out", str(a_key),
                      "--out", str(tmp_path / "a.csv")], tmp_path, a_err)
    assert _wait_for_marker(a_err, "event=listening"), a_err.read_text()
    bob = _run_cli(["bob", "--connect", f"127.0.0.1:{port}", *common,
                    "--key-out", str(b_key)], tmp_path, b_err)
    assert alice.wait(timeout=120) == 0, a_err.read_text()
    assert bob.wait(timeout=120) == 0, b_err.read_text()
    keys_equal = a_key.read_bytes() == b_key.read_bytes() and a_key.stat().st_size > 0
    with open(tmp_path / "a.csv") as fh:
        n_rows = len(list(csv.DictReader(fh)))

    # chat between two processes: arbitrary payloads round-trip both ways
    port2 = free_port()
    payload_a = bytes(rng_stream(71, "pa").integers(0, 256, 2000, dtype=np.uint8).tolist())
    payload_b = bytes(rng_stream(72, "pb").integers(0, 256, 1500, dtype=np.uint8).tolist())
    (tmp_path / "send_a.bin").write_bytes(payload_a)
    (tmp_path / "send_b.bin").write_bytes(payload_b)
    chat_cfg = tmp_path / "chat.cfg"
    chat_cfg.write_text("burst_seconds=0.25\n")
    c_common = ["--config", str(chat_cfg), "--seed", "34", "--bursts", "1"]
    ca_err, cb_err = tmp_path / "ca.err", tmp_path / "cb.err"
    chat_a = _run_cli(["chat", "--listen", "--port", str(port2), *c_common,
                       "--send-file", str(tmp_path / "send_a.bin"),
                       "--recv-out", str(tmp_path / "recv_a.bin")], tmp_path, ca_err)
    assert _wait_for_marker(ca_err, "event=listening"), ca_err.read_text()
    chat_b = _run_cli(["chat", "--connect", f"127.0.0.1:{port2}", *c_common,
                       "--send-file", str(tmp_path / "send_b.bin"),
                       "--recv-out", str(tmp_path / "recv_b.bin")], tmp_path, cb_err)
    assert chat_a.wait(timeout=120) == 0, ca_err.read_text()
    assert chat_b.wait(timeout=120) == 0, cb_err.read_text()
    chat_ok = ((tmp_path / "recv_b.bin").read_bytes() == payload_a
               and (tmp_path / "recv_a.bin").read_bytes() == payload_b)

    # key reuse structurally impossible: fuzzed duplex session, ranges disjoint
    chan_a, chan_b = make_loop_pair(timeout=10.0)
    bits = rng_stream(73, "key").integers(0, 2, KeyBuffer.PAGE_BITS * 40, dtype=np.uint8)
    buf_a, buf_b = KeyBuffer(), KeyBuffer()
    buf_a.append(bits.copy())
    buf_b.append(bits.copy())
    ea = ChatEndpoint(chan_a, buf_a, "alice")
    eb = ChatEndpoint(chan_b, buf_b, "bob")
    worker = threading.Thread(target=eb.handshake)
    worker.start()
    ea.handshake()
    worker.join(timeout=10)
    frng = rng_stream(74, "fuzz")
    for _ in range(50):
        payload = frng.integers(0, 256, int(frng.integers(1, 2000)), dtype=np.uint8).tobytes()
        if frng.random() < 0.5:
            for _ in range(ea.send_bytes(payload)):
                eb.recv_frame()
        else:
            for _ in range(eb.send_bytes(payload)):
                ea.recv_frame()
    disjoint = True
    for buf in (buf_a, buf_b):
        spans = sorted(buf.issued_ranges)
        disjoint &= all(b1 <= a2 for (_, b1), (a2, _) in zip(spans, spans[1:]))

    # consumption accounting over a 10-Mbit transfer (the two-minute call)
    total_bits = 10_000_000
    chan_a2, chan_b2 = make_loop_pair(timeout=60.0)
    big = rng_stream(75, "key").integers(0, 2, 2 * total_bits + 4 * KeyBuffer.PAGE_BITS,
                                         dtype=np.uint8)
    buf_a2, buf_b2 = KeyBuffer(), KeyBuffer()
    buf_a2.append(big.copy())
    buf_b2.append(big.copy())
    ea2 = ChatEndpoint(chan_a2, buf_a2, "alice")
    eb2 = ChatEndpoint(chan_b2, buf_b2, "bob")
    worker = threading.Thread(target=eb2.handshake)
    worker.start()
    ea2.handshake()
    worker.join(timeout=10)
    received = []
    rx = threading.Thread(target=lambda: received.append(eb2.recv_all()))
    rx.start()
    ea2.send_bytes(bytes(total_bits // 8))
    ea2.send_eof()
    rx.join(timeout=120)
    counter_ok = (received and len(received[0]) == total_bits // 8
                  and ea2.buf.consumed_total == total_bits + HANDSHAKE_BITS)

    ok = keys_equal and n_rows == 3 and chat_ok and disjoint and bool(counter_ok)
    acceptance_recorder(
        7, "networked protocol and OTP", ok,
        f"keys_equal={keys_equal} bursts={n_rows} chat_roundtrip={chat_ok} "
        f"ranges_disjoint={disjoint} consumed={ea2.buf.consumed_total}bits")
    assert keys_equal and n_rows == 3
    assert chat_ok
    assert disjoint
    assert counter_ok


def test_tcp_key_matches_in_process(tmp_path):
    # two terminal processes over loopback distill the same key as simulate_session
    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text("burst_seconds=0.01\n")
    port = free_port()
    a_key, b_key = tmp_path / "a.key", tmp_path / "b.key"
    a_err, b_err = tmp_path / "a.err", tmp_path / "b.err"
    common = ["--config", str(cfg_path), "--seed", "33", "--bursts", "2"]
    alice = _run_cli(["alice", "--port", str(port), *common, "--key-out", str(a_key)],
                     tmp_path, a_err)
    assert _wait_for_marker(a_err, "event=listening"), a_err.read_text()
    bob = _run_cli(["bob", "--connect", f"127.0.0.1:{port}", *common, "--key-out", str(b_key)],
                   tmp_path, b_err)
    assert alice.wait(timeout=120) == 0, a_err.read_text()
    assert bob.wait(timeout=120) == 0, b_err.read_text()

    reference, _ = simulate_session(
        dataclasses.replace(default_config(33), burst_seconds=0.01), 2)
    expected = reference.key_buffer.to_bytes()
    assert len(expected) > 0
    assert a_key.read_bytes() == expected
    assert b_key.read_bytes() == expected


# Reaps one default 1-s burst's terminals, and a child that only imports the CLI,
# and prints each one's exit code and peak RSS in MB.  It runs in a bare interpreter
# because a child's ru_maxrss counts the pages of the process it was forked from.
_PEAK_RSS_PROBE = r"""
import os, subprocess, sys, time
port, a_err, b_err = sys.argv[1:]
cli = [sys.executable, "-m", "qkdlink.cli"]
common = ["--seed", "1", "--bursts", "1"]

def reap(proc):
    _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024  # KiB on Linux

imports = reap(subprocess.Popen([sys.executable, "-c", "import qkdlink.cli"]))
with open(a_err, "w") as fa, open(b_err, "w") as fb:
    alice = subprocess.Popen([*cli, "alice", "--port", port, *common], stderr=fa,
                             stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + 15
    while "event=listening" not in open(a_err).read() and time.monotonic() < deadline:
        time.sleep(0.05)
    bob = subprocess.Popen([*cli, "bob", "--connect", "127.0.0.1:" + port, *common],
                           stderr=fb, stdout=subprocess.DEVNULL)
    print(*imports, *reap(alice), *reap(bob))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux alone")
def test_terminal_peak_rss_above_import_is_bounded(tmp_path):
    # each terminal's peak for one default 1-s burst, above the bare import: Bob
    # +20.6 to +20.7 MB (his encoding worker's arena included) and Alice +14.3;
    # gathering each pulse through a burst-sized phase took Bob +19.9 to +20.1
    # and Alice +13.2 to +13.6. Selecting through 8-byte index arrays,
    # drawing burst-sized float64 scratch, holding each phase's arrays into the
    # next and packing Bob's BASES through five burst-sized copies took Bob
    # +27.4 to +27.6 and Alice +18.0 to +20.3
    a_err, b_err = tmp_path / "a.err", tmp_path / "b.err"
    probe = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_PROBE, str(free_port()), str(a_err), str(b_err)],
        cwd=tmp_path, env=_cli_env(), capture_output=True, text=True, timeout=180)
    assert probe.returncode == 0, probe.stderr
    values = [float(v) for v in probe.stdout.split()]
    codes, (base, alice, bob) = values[::2], values[1::2]
    assert codes == [0, 0, 0], (a_err.read_text(), b_err.read_text())
    assert bob - base <= 24.0, (base, alice, bob)
    assert alice - base <= 16.0, (base, alice, bob)
