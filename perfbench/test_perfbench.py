"""Tests of the benchmark itself: span arithmetic, metric names, and that every
correctness check rejects a corrupted output.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qkdlink.core import default_config, rng_stream  # noqa: E402
from qkdlink.photonics import generate_burst, transmit_and_detect  # noqa: E402
from qkdlink.postproc import KeyBuffer  # noqa: E402
from qkdlink.securecomm import HANDSHAKE_BITS, ChatEndpoint  # noqa: E402
from qkdlink.session import BurstOutcome, make_loop_pair, simulate_session  # noqa: E402
from qkdlink.timing import synchronize  # noqa: E402

S = spans.Span


# --- spans -------------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    records = [
        S(1, 0, "root", 0.0, 10.0, None, None, None),
        S(2, 1, "a", 1.0, 3.0, None, None, None),
        S(3, 1, "b", 2.0, 5.0, None, None, None),     # overlaps a: counted once
        S(4, 1, "c", 9.0, 12.0, None, None, None),    # runs past the parent's end
        S(5, 2, "a.inner", 1.5, 2.0, None, None, None),
    ]
    selfs = spans.self_times(records)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 0.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(0.5)


def test_wrapped_calls_nest_and_inherit_burst_and_role():
    ticks = iter(range(100))
    tracer = spans.Tracer(default_role="alice", clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    mid = tracer.wrap("mid", lambda x: leaf(x) * 2)
    root = tracer.wrap("root", lambda k, x: mid(x), context=lambda args: (args[0], "bob"))
    assert root(7, 1) == 4
    mid(0)
    by_name = {s.name: s for s in tracer.records[:3]}
    assert by_name["leaf"].parent == by_name["mid"].id
    assert by_name["mid"].parent == by_name["root"].id
    assert {(s.burst, s.role) for s in tracer.records[:3]} == {(7, "bob")}
    assert (tracer.records[-1].burst, tracer.records[-1].role) == (None, "alice")
    selfs = spans.self_times(tracer.records[:3])
    assert selfs[by_name["root"].id] == 2.0 and selfs[by_name["leaf"].id] == 1.0


def test_merge_renumbers_child_spans_and_keeps_parents():
    tracer = spans.Tracer()
    tracer.record("cli.connect", 0.0, 1.0)
    child = [S(1, 0, "session.run_burst_bob", 1.0, 3.0, 0, "bob", None),
             S(2, 1, "session.recv", 1.0, 2.0, 0, "bob", None)]
    tracer.merge(child)
    ids = [s.id for s in tracer.records]
    assert len(set(ids)) == 3
    assert tracer.records[2].parent == tracer.records[1].id


def test_layer_metrics_are_per_unit_and_account_for_the_wall_time():
    records = [
        S(1, 0, "session.run_burst_alice", 0.0, 4.0, 0, "alice",
          {"sifted_bits": 100, "secure_bits": 60, "disclosed_bits": 30}),
        S(2, 1, "photonics.generate_burst", 0.0, 1.0, 0, "alice", None),
        S(3, 1, "session.recv", 1.0, 3.5, 0, "alice", None),
        S(4, 0, "session.run_burst_alice", 4.0, 6.0, 1, "alice",
          {"sifted_bits": 300, "secure_bits": 0, "disclosed_bits": 0}),
        S(5, 4, "session.recv", 4.0, 6.0, 1, "alice", None),
        S(6, 0, "session.run_burst_bob", 0.0, 6.0, 0, "bob", None),
        S(7, 6, "session.recv", 0.0, 6.0, 0, "bob", None),
    ]
    m = spans.layer_metrics(records, overhead_share=0.02)
    assert set(m) == set(spans.PER_LAYER_UNITS)
    assert m["photonics.generate_burst.s"][0] == pytest.approx(0.5)
    assert m["session.recv_wait.alice.s"][0] == pytest.approx(2.25)
    assert m["session.recv_wait.bob.s"][0] == pytest.approx(3.0)
    assert m["postproc.sifted_bits"][0] == pytest.approx(200)
    # only 0.5 s of alice's first burst is outside a child span
    assert m["trace.unattributed_share"][0] == pytest.approx(0.5 / 12.0)
    assert m["trace.overhead_share"] == (0.02, "ratio")


def test_install_wraps_every_target_and_uninstall_restores_it():
    before = [vars(owner)[attr] for owner, attr, *_ in spans.targets()]
    restore = spans.install(spans.Tracer())
    try:
        assert all(vars(o)[a] is not f for (o, a, *_), f in zip(spans.targets(), before))
    finally:
        spans.uninstall(restore)
    assert [vars(owner)[attr] for owner, attr, *_ in spans.targets()] == before


def test_benchmark_json_matches_what_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER_UNITS
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "ops_per_s", "peak_rss_mb"]


# --- correctness checks on real outputs, then corrupted ones ---------------------------------


@pytest.fixture(scope="module")
def short_session():
    cfg = dataclasses.replace(default_config(5), burst_seconds=0.05)
    alice, bob = simulate_session(cfg, 1)
    return cfg, alice, bob


def test_key_check_rejects_one_flipped_bit(short_session):
    _, alice, bob = short_session
    a, b = alice.key_buffer.to_bytes(), bob.key_buffer.to_bytes()
    assert checks.check_keys_equal(a, b) == []
    flipped = bytes([b[0] ^ 1]) + b[1:]
    assert checks.check_keys_equal(a, flipped) == ["key_mismatch"]
    assert checks.check_keys_equal(b"", b"") == ["key_mismatch"]


def test_offset_window_holds_true_offsets_and_sync_check_rejects_a_one_bin_shift():
    cfg = dataclasses.replace(default_config(), burst_seconds=workloads.SYNC_BURST_S)
    lo, hi = checks.offset_window(cfg)
    assert (lo, hi) == (18, 22)
    for seed in range(5):
        c = dataclasses.replace(cfg, rng_seed=seed)
        tx = generate_burst(c, rng_stream(seed, "txgen:0"))
        rx = transmit_and_detect(tx, c, rng=rng_stream(seed, "channel:0"))
        sync = synchronize(tx.bases, tx.bits, rx, c)
        assert lo <= sync.r_n <= hi
        assert checks.check_sync_trial(sync.recovered_bin_offset, rx.true_bin_offset) == []
        assert checks.check_sync_trial(sync.recovered_bin_offset + 1,
                                       rx.true_bin_offset) == ["wrong_offset"]


def _outcome(**kw):
    base = dict(burst_id=0, sifted_bits=455_000, qber=0.025, secure_bits=290_000,
                elapsed_s=1.0, offset_frames=20, fifo_choice=1, disclosed_bits=250_000)
    base.update(kw)
    return BurstOutcome(**base)


def test_clean_burst_check_names_each_corruption():
    cfg = default_config()
    assert checks.check_clean_burst(_outcome(), cfg) == []
    assert checks.check_clean_burst(_outcome(aborted_reason="no_lock"), cfg) == ["aborted_no_lock"]
    assert checks.check_clean_burst(_outcome(sifted_bits=400_000), cfg) == ["sifted_off_model"]
    assert checks.check_clean_burst(_outcome(qber=0.04), cfg) == ["qber_out_of_band"]
    assert checks.check_clean_burst(_outcome(offset_frames=23), cfg) == ["offset_out_of_window"]
    assert checks.check_clean_burst(_outcome(secure_bits=0), cfg) == ["no_key"]


def test_eve_burst_check_names_each_corruption():
    cfg = dataclasses.replace(default_config(), eve_enabled=True)
    ok = _outcome(qber=checks.expected_eve_qber(cfg), secure_bits=0, aborted_reason="qber")
    assert checks.check_eve_burst(ok, cfg, 0) == []
    assert checks.check_eve_burst(dataclasses.replace(ok, aborted_reason=None), cfg, 0) \
        == ["eve_not_detected"]
    assert checks.check_eve_burst(dataclasses.replace(ok, qber=0.25 - 0.02), cfg, 0) \
        == ["eve_qber_off"]
    assert checks.check_eve_burst(ok, cfg, 11) == ["eve_key_added"]


def test_otp_checks_reject_a_dropped_frame_reused_key_and_a_miscount():
    n = 3 * 2048 + 100
    bits = rng_stream(9, "key").integers(0, 2, 8 * KeyBuffer.PAGE_BITS, dtype=np.uint8)
    buf_a, buf_b = KeyBuffer(), KeyBuffer()
    buf_a.append(bits)
    buf_b.append(bits)
    chan_a, chan_b = make_loop_pair(timeout=10.0)
    ea, eb = ChatEndpoint(chan_a, buf_a, "alice"), ChatEndpoint(chan_b, buf_b, "bob")
    helper = threading.Thread(target=eb.handshake)
    helper.start()
    ea.handshake()
    helper.join(timeout=10)
    sent = rng_stream(9, "payload").integers(0, 256, n, dtype=np.uint8).tobytes()
    ea.send_bytes(sent)
    ea.send_eof()
    frames = []
    while (part := eb.recv_frame()) is not None:
        frames.append(part)

    assert checks.check_otp(sent, b"".join(frames)) == []
    assert checks.check_otp(sent, b"".join(frames[:1] + frames[2:])) == ["payload_mismatch"]
    expected = 8 * n + HANDSHAKE_BITS
    for buf in (buf_a, buf_b):
        assert checks.check_key_ledger(buf.issued_ranges, buf.consumed_total, expected) == []
    reused = buf_a.issued_ranges + [buf_a.issued_ranges[-1]]
    assert checks.check_key_ledger(reused, buf_a.consumed_total, expected) == ["key_reuse"]
    assert checks.check_key_ledger(buf_a.issued_ranges, buf_a.consumed_total - 8,
                                   expected) == ["consumed_mismatch"]


def test_failures_explained_by_a_named_fault_keep_the_run_correct():
    res = workloads.Result()
    res.check([])
    res.check(["no_lock"], workloads.FAR_FAULT)
    res.check(["wrong_offset"], workloads.FAR_FAULT)
    assert res.correct and res.failed == 2


def test_a_failure_no_fault_explains_makes_the_run_incorrect_even_with_a_known_cause():
    res = workloads.Result()
    res.check(["wrong_offset"], workloads.FAR_FAULT)  # a 750 m trial
    res.check(["wrong_offset"])                       # a 300 m trial: no fault explains it
    assert not res.correct and res.failed == 2


def test_failed_counts_operations_not_causes():
    res = workloads.Result()
    res.check(["sifted_off_model", "key_mismatch"])
    res.check(["key_mismatch"], ops=3)
    assert res.failed == 4
    assert res.failures[("key_mismatch", None)] == 4
    assert res.failures[("sifted_off_model", None)] == 1


# --- the command ---------------------------------------------------------------------------


def test_run_fails_without_the_repository_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sync_trials",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
