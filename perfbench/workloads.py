"""The four workloads, run against qkdlink's shipped entry points.

Every workload runs whole rounds of the same operations until the run's
seconds are used up, so the share of failed operations does not depend on the
run length.  Inputs are drawn from the benchmark seed with NumPy's
``SeedSequence``; the program only ever sees the resulting configurations,
payloads and key material.  In a traced run, odd rounds run with the span
wrappers installed and even rounds without, so the same run also gives the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans
from qkdlink import photonics, postproc, securecomm, session, timing
from qkdlink.core import default_config, rng_stream

now = time.monotonic

# burst_inprocess: one session of clean bursts, one of eavesdropped bursts, per round;
# each burst is timed on its own
CLEAN_BURSTS = 2
EVE_BURSTS = 1
# burst_tcp: bursts per two-process session (one session per round)
TCP_BURSTS = 1
# longest wait for any one step: a protocol phase, a terminal's start or exit
TIMEOUT_S = 60.0
# sync_trials: one round is nine 300 m trials and one 750 m trial of 1-ms bursts
SYNC_BURST_S = 0.001
NEAR_M, FAR_M = 300.0, 750.0
NEAR_PER_ROUND = 9
# 750 m trials use seeds that do not depend on the benchmark seed: they fail every
# time (the true offset, ~50 frames, is outside the fixed 40-frame search), and the
# inputs are fixed so that how each one fails is the same in every run.
FAR_SEED_BASE = 750_000
FAR_FAULT = "fixed 40-frame window in timing.estimate_frame_offset"
# otp_duplex: each side sends one payload per round; keys arrive in burst-sized chunks
OTP_PAYLOAD_BYTES = 2_500_000
KEY_CHUNK_BITS = 295_548


# Host-speed calibration for the interpreter-bound workloads.  On a shared host the
# same work can take 30% longer from one minute to the next.  A fixed kernel of the
# same kind of work (an interpreter loop over Python objects) runs before every round,
# and once per CAL_EVERY_S when rounds are longer.  Throughput is reported at the host
# speed where the kernel takes KERNEL_REF_S, its median on a quiet development host
# (2 vCPUs, Python 3.11).  No kernel tracked the burst workloads better than their own
# wall time.
CALIBRATED = ("sync_trials", "otp_duplex")
CAL_EVERY_S = 1.0
KERNEL_REF_S = 0.020
_SCAN = [(i, i + 7) for i in range(20_000)]


def kernel_seconds() -> float:
    """Wall time of one calibration kernel run; it does not use qkdlink."""
    t0 = now()
    hits = 0
    for _ in range(36):
        for lo, hi in _SCAN:
            if lo < 5 and hi > 3:
                hits += 1
    return now() - t0


class Calibrator:
    """Samples the kernel before every round, once per CAL_EVERY_S since the last sample."""

    def __init__(self):
        self.samples: list[float] = []
        self._last: float | None = None

    def sample(self) -> None:
        n = 1 if self._last is None else max(1, round((now() - self._last) / CAL_EVERY_S))
        self.samples += [kernel_seconds() for _ in range(n)]
        self._last = now()

    @property
    def host_speed(self) -> float:
        """How fast this host ran the kernel, relative to the reference host."""
        return KERNEL_REF_S / statistics.median(self.samples)


# Import and configuration in a fresh interpreter, timed from inside it.  The host's
# speed drifts over tens of seconds, so probes are spread over the whole run.
PROBE_EVERY_S = 2.0
PROBE = """
import time
t0 = time.monotonic()
import qkdlink.cli
from qkdlink.core import default_config
default_config({seed}).validate()
print(time.monotonic() - t0)
"""


class Prober:
    """Set-up probes between rounds: one before the first, then one per PROBE_EVERY_S of run."""

    def __init__(self, env: dict, seed: int):
        self.env, self.seed = env, seed
        self.samples: list[float] = []
        self._start: float | None = None

    def sample(self) -> None:
        if self._start is None:
            self._start = now()
        while len(self.samples) < 1 + (now() - self._start) // PROBE_EVERY_S:
            out = subprocess.run([sys.executable, "-c", PROBE.format(seed=self.seed)],
                                 env=self.env, capture_output=True, text=True, timeout=120,
                                 check=True)
            self.samples.append(float(out.stdout.split()[-1]))


def derive_seed(*words: int) -> int:
    """A 63-bit seed for the program, drawn from the benchmark seed and a round index."""
    return int(np.random.SeedSequence(list(words)).generate_state(1, dtype=np.uint64)[0] >> 1)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    root: Path             # the checkout: holds src/ and perfbench/
    workdir: Path          # scratch space inside the checkout, removed after the run
    env: dict              # environment for child processes (absolute PYTHONPATH)
    tracer: spans.Tracer | None = None
    calibrator: Calibrator | None = None
    prober: Prober | None = None

    def between_rounds(self) -> None:
        for sampler in (self.calibrator, self.prober):
            if sampler:
                sampler.sample()


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0                                    # failed operations
    unexplained: int = 0                               # failed operations no named fault explains
    failures: Counter = field(default_factory=Counter)  # (cause, fault or None) -> operations
    rates: list = field(default_factory=list)          # ops/s of untraced rounds
    traced_rates: list = field(default_factory=list)   # ops/s of traced rounds
    setup_s: list = field(default_factory=list)        # workload-specific set-up samples
    peak_rss_mb: float = 0.0
    notes: dict = field(default_factory=dict)          # name -> (value, unit), summary only

    def check(self, causes: list[str], fault: str | None = None, ops: int = 1) -> None:
        """Record the check of ``ops`` operations; they failed if ``causes`` is not empty.

        ``fault`` names the program fault that explains the failure.  An operation
        with several causes is one failed operation, listed under each cause.
        """
        if not causes:
            return
        self.failed += ops
        self.unexplained += ops if fault is None else 0
        for cause in dict.fromkeys(causes):
            self.failures[(cause, fault)] += ops

    @property
    def correct(self) -> bool:
        """Every failed operation is one a named program fault explains."""
        return self.unexplained == 0


def rounds(ctx: Context):
    """Yield (round, traced) until ctx.seconds have passed; traced and untraced alternate.

    The calibration kernel and set-up probes, if any, run between rounds, never inside one.
    """
    start = now()
    k = 0
    while k < (2 if ctx.trace else 1) or now() - start < ctx.seconds:
        ctx.between_rounds()
        yield k, ctx.trace and k % 2 == 1
        k += 1
    ctx.between_rounds()


@contextlib.contextmanager
def tracing(ctx: Context, on: bool):
    if not on:
        yield
        return
    restore = spans.install(ctx.tracer)
    try:
        yield
    finally:
        spans.uninstall(restore)


def root_span(ctx: Context, on: bool, name: str, unit: int, role: str | None = None):
    return ctx.tracer.span(name, unit, role) if on else contextlib.nullcontext()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- burst_inprocess ----------------------------------------------------------------------


def _timed_session(cfg, n: int, a_tap, b_tap):
    """simulate_session plus the wall time of each burst, read off Alice's burst callback.

    Burst k ends at Alice's k-th callback; the last one ends when the session
    returns (after Bob's last burst), so the times add up to the session's wall time.
    """
    marks = [now()]
    try:
        out = session.simulate_session(cfg, n, on_burst=lambda _: marks.append(now()),
                                       alice_tap=a_tap, bob_tap=b_tap, timeout=TIMEOUT_S)
    except Exception as exc:  # a failed session fails each of its bursts
        return exc, []
    marks[n:] = [now()]
    return out, [b - a for a, b in zip(marks, marks[1:])]


def burst_inprocess(ctx: Context, res: Result) -> None:
    base = default_config()
    wire_bytes = Counter()
    tapped_bursts = 0
    for k, traced in rounds(ctx):
        clean = dataclasses.replace(base, rng_seed=derive_seed(ctx.seed, k, 0))
        eve = dataclasses.replace(base, rng_seed=derive_seed(ctx.seed, k, 1), eve_enabled=True)
        taps = ([], [], [], []) if not traced else (None,) * 4
        with tracing(ctx, traced):
            clean_out, clean_s = _timed_session(clean, CLEAN_BURSTS, *taps[:2])
            eve_out, eve_s = _timed_session(eve, EVE_BURSTS, *taps[2:])
        (res.traced_rates if traced else res.rates).extend(
            base.burst_seconds / s for s in clean_s + eve_s)

        res.attempted += CLEAN_BURSTS + EVE_BURSTS
        if isinstance(clean_out, Exception):
            res.check([f"exception_{type(clean_out).__name__}"], ops=CLEAN_BURSTS)
        else:
            alice, bob = clean_out
            keys = checks.check_keys_equal(alice.key_buffer.to_bytes(), bob.key_buffer.to_bytes())
            for o in alice.outcomes:
                res.check(checks.check_clean_burst(o, clean) + keys)
        if isinstance(eve_out, Exception):
            res.check([f"exception_{type(eve_out).__name__}"], ops=EVE_BURSTS)
        else:
            alice = eve_out[0]
            for o in alice.outcomes:
                res.check(checks.check_eve_burst(o, eve, len(alice.key_buffer)))
        if not traced:
            for role, tap in zip(("alice", "bob", "alice", "bob"), taps):
                for msg_type, payload in tap:
                    wire_bytes[(role, msg_type.name)] += 5 + len(payload)
            tapped_bursts += CLEAN_BURSTS + EVE_BURSTS

    res.peak_rss_mb = self_peak_rss_mb()
    if tapped_bursts:
        res.notes["classical_kb_per_burst"] = (
            sum(wire_bytes.values()) / tapped_bursts / 1e3, "kB")
        for (role, name), n in sorted(wire_bytes.items()):
            res.notes[f"wire.{role}.{name}"] = (n / tapped_bursts, "bytes/burst")


# --- burst_tcp ---------------------------------------------------------------------------


def _free_port_pair() -> int:
    """A loopback port p with p+1 also free (classical and side connection)."""
    for _ in range(50):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        if port + 1 > 65535:
            continue
        try:
            with socket.socket() as s2:
                s2.bind(("127.0.0.1", port + 1))
            return port
        except OSError:
            continue
    raise RuntimeError("no adjacent free port pair on loopback")


class Terminal:
    """One qkdlink terminal process; its stderr lines are read as they arrive."""

    def __init__(self, argv: list[str], ctx: Context):
        self.proc = subprocess.Popen(argv, cwd=ctx.workdir, env=ctx.env,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True)
        self.lines: list[tuple[float, str]] = []
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stderr:
            with self._cond:
                self.lines.append((now(), line.rstrip("\n")))
                self._cond.notify_all()
        with self._cond:
            self.lines.append((now(), None))  # EOF marker
            self._cond.notify_all()

    def wait_for(self, marker: str, timeout: float) -> float | None:
        """Time the marker line was read, or None on EOF or timeout."""
        deadline = now() + timeout
        seen = 0
        with self._cond:
            while True:
                for t, line in self.lines[seen:]:
                    if line is None:
                        return None
                    if marker in line:
                        return t
                seen = len(self.lines)
                left = deadline - now()
                if left <= 0 or not self._cond.wait(left):
                    return None

    def reap(self, timeout: float) -> int:
        """Wait for exit, killing the process after ``timeout``; returns the exit code."""
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stderr.close()
        return self.proc.returncode

    def text(self) -> str:
        return "\n".join(line for _, line in self.lines if line)


def _tcp_session(ctx: Context, seed: int, k: int, traced: bool) -> dict:
    """Alice and Bob over loopback for TCP_BURSTS bursts; returns times, codes and key paths."""
    port = _free_port_pair()
    d = ctx.workdir / f"session{k}"
    d.mkdir()
    common = ["--seed", str(seed), "--bursts", str(TCP_BURSTS), "--timeout", str(TIMEOUT_S)]

    def argv(role: str, extra: list[str]) -> list[str]:
        if traced:
            head = [sys.executable, str(ctx.root / "perfbench" / "terminal.py"),
                    str(d / f"{role}.spans")]
        else:
            head = [sys.executable, "-m", "qkdlink.cli"]
        return [*head, role, *extra, *common, "--key-out", str(d / f"{role}.key")]

    out = {"keys": [d / "alice.key", d / "bob.key"], "codes": [None, None]}
    t_spawn = now()
    alice = Terminal(argv("alice", ["--port", str(port)]), ctx)
    bob = None
    t_conn = None
    try:
        t_listen = alice.wait_for("event=listening", TIMEOUT_S)
        if t_listen is not None:
            bob = Terminal(argv("bob", ["--connect", f"127.0.0.1:{port}"]), ctx)
            t_conn = alice.wait_for("event=connected", TIMEOUT_S)
        out["codes"] = [alice.reap(TIMEOUT_S), bob.reap(TIMEOUT_S) if bob else None]
        t_end = now()
    finally:
        for term in (alice, bob):
            if term is not None and term.proc.returncode is None:
                term.reap(0)
    out["stderr"] = alice.text() + "\n" + (bob.text() if bob else "")
    if t_listen is None or t_conn is None:
        return out
    out["setup_s"] = t_conn - t_spawn
    out["wall_s"] = t_end - t_conn
    if traced:
        ctx.tracer.record("cli.start_to_listening", t_spawn, t_listen, role="alice")
        ctx.tracer.record("cli.connect", t_listen, t_conn, role="bob")
        for role in ("alice", "bob"):
            path = d / f"{role}.spans"
            if path.exists():
                ctx.tracer.merge(spans.load_spans(path))
    return out


def burst_tcp(ctx: Context, res: Result) -> None:
    # Every session of a run uses the same seed, so one in-process reference checks all.
    cfg = default_config(derive_seed(ctx.seed, 0))
    sessions = []
    for k, traced in rounds(ctx):
        s = _tcp_session(ctx, cfg.rng_seed, k, traced)
        sessions.append(s)
        res.attempted += TCP_BURSTS
        if "wall_s" in s:
            (res.traced_rates if traced else res.rates).append(
                TCP_BURSTS * cfg.burst_seconds / s["wall_s"])
            if not traced:
                res.setup_s.append(s["setup_s"])
    # the largest peak of any reaped child: the terminals (~560 MB) dwarf the set-up probes
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # outside the timed region: the key simulate_session gives for the same seed and config
    alice, bob = session.simulate_session(cfg, TCP_BURSTS, timeout=TIMEOUT_S)
    reference = alice.key_buffer.to_bytes()
    ref_causes = checks.check_keys_equal(reference, bob.key_buffer.to_bytes())
    for o in alice.outcomes:
        ref_causes += checks.check_clean_burst(o, cfg)
    for s in sessions:
        if s["codes"] != [0, 0]:
            res.check(["nonzero_exit"], ops=TCP_BURSTS)
            print(f"burst_tcp: exit codes {s['codes']}\n{s['stderr']}", file=sys.stderr)
            continue
        keys = [p.read_bytes() if p.exists() else b"" for p in s["keys"]]
        causes = checks.check_keys_equal(reference, *keys) + ref_causes
        res.check(causes, ops=TCP_BURSTS)


# --- sync_trials -----------------------------------------------------------------------------


def _sync_trial(cfg) -> list[str]:
    tx = photonics.generate_burst(cfg, rng_stream(cfg.rng_seed, "txgen:0"))
    rx = photonics.transmit_and_detect(tx, cfg, rng=rng_stream(cfg.rng_seed, "channel:0"))
    try:
        # the whole burst is the disclosed sample, as in acceptance criterion 4
        sync = timing.synchronize(tx.bases, tx.bits, rx, cfg)
    except timing.NoLockError:
        return ["no_lock"]
    return checks.check_sync_trial(sync.recovered_bin_offset, rx.true_bin_offset)


def sync_trials(ctx: Context, res: Result) -> None:
    base = dataclasses.replace(default_config(), burst_seconds=SYNC_BURST_S)
    near = dataclasses.replace(base, link=dataclasses.replace(base.link, distance_m=NEAR_M))
    far = dataclasses.replace(base, link=dataclasses.replace(base.link, distance_m=FAR_M))
    per_round = NEAR_PER_ROUND + 1
    for k, traced in rounds(ctx):
        seeds = np.random.SeedSequence([ctx.seed, k]).generate_state(NEAR_PER_ROUND, np.uint64)
        trials = [(dataclasses.replace(near, rng_seed=int(s >> 1)), None) for s in seeds]
        trials.append((dataclasses.replace(far, rng_seed=FAR_SEED_BASE + k), FAR_FAULT))
        outcomes = []
        with tracing(ctx, traced):
            t0 = now()
            for i, (cfg, _) in enumerate(trials):
                with root_span(ctx, traced, "bench.trial", k * per_round + i):
                    outcomes.append(_sync_trial(cfg))
            wall = now() - t0
        (res.traced_rates if traced else res.rates).append(per_round / wall)
        res.attempted += per_round
        for (_, fault), causes in zip(trials, outcomes):
            res.check(causes, fault)
    res.peak_rss_mb = self_peak_rss_mb()


# --- otp_duplex ------------------------------------------------------------------------------


def otp_duplex(ctx: Context, res: Result) -> None:
    n = OTP_PAYLOAD_BYTES
    key_bits = 2 * 8 * n + securecomm.HANDSHAKE_BITS + 4 * postproc.KeyBuffer.PAGE_BITS
    for k, traced in rounds(ctx):
        rng = np.random.default_rng([ctx.seed, k])
        key = rng.integers(0, 2, key_bits, dtype=np.uint8)
        sent = {"alice": rng.bytes(n), "bob": rng.bytes(n)}

        # set-up: both terminals' buffers filled burst by burst, then the parity handshake
        t0 = now()
        bufs = {"alice": postproc.KeyBuffer(), "bob": postproc.KeyBuffer()}
        for start in range(0, key_bits, KEY_CHUNK_BITS):
            for buf in bufs.values():
                buf.append(key[start:start + KEY_CHUNK_BITS])
        chan_a, chan_b = session.make_loop_pair(timeout=TIMEOUT_S)
        ends = {"alice": securecomm.ChatEndpoint(chan_a, bufs["alice"], "alice"),
                "bob": securecomm.ChatEndpoint(chan_b, bufs["bob"], "bob")}
        helper = threading.Thread(target=ends["bob"].handshake)
        helper.start()
        ends["alice"].handshake()
        helper.join(timeout=TIMEOUT_S)
        res.setup_s.append(now() - t0)

        got = {}
        error = None
        with tracing(ctx, traced):
            t0 = now()
            try:
                for unit, role in enumerate(("alice", "bob")):
                    with root_span(ctx, traced, "bench.send", 2 * k + unit, role):
                        ends[role].send_bytes(sent[role])
                        ends[role].send_eof()
                for unit, role in enumerate(("bob", "alice")):
                    with root_span(ctx, traced, "bench.recv", 2 * k + unit, role):
                        got[role] = ends[role].recv_all()
            except Exception as exc:  # a broken transfer fails both directions
                error = exc
            wall = now() - t0
        (res.traced_rates if traced else res.rates).append(2 * 8 * n / 1e6 / wall)

        res.attempted += 2
        if error is not None:
            res.check([f"exception_{type(error).__name__}"], ops=2)
            continue
        expected_bits = 8 * 2 * n + securecomm.HANDSHAKE_BITS
        for sender, receiver in (("alice", "bob"), ("bob", "alice")):
            res.check(checks.check_otp(sent[sender], got[receiver])
                     + checks.check_key_ledger(bufs[sender].issued_ranges,
                                               bufs[sender].consumed_total, expected_bits))
    res.peak_rss_mb = self_peak_rss_mb()


WORKLOADS = {
    "burst_inprocess": burst_inprocess,
    "burst_tcp": burst_tcp,
    "sync_trials": sync_trials,
    "otp_duplex": otp_duplex,
}
