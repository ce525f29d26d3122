"""Command-line entry points: estimate, sweep, simulate, alice, bob, chat.

Exit codes: 0 success, 1 usage/configuration error, 2 protocol abort.
Diagnostics go to standard error as key=value lines; reports to --out.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import socket
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, securecomm, session, timing
from .core import ConfigError, SimConfig, default_config, load_config
from .session import (
    DEFAULT_PORT,
    BurstOutcome,
    NetworkTransport,
    ProtocolError,
    SocketChannel,
    run_session,
    simulate_session,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORT = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise UsageError(message)


def log(**fields) -> None:
    print(" ".join(f"{k}={v}" for k, v in fields.items()), file=sys.stderr, flush=True)


@dataclass
class RunReport:
    """Per-burst rows plus recomputable aggregates."""

    burst_seconds: float
    rows: list[BurstOutcome] = dataclasses.field(default_factory=list)

    def add(self, outcome: BurstOutcome) -> None:
        self.rows.append(outcome)

    @property
    def mean_sifted_kbps(self) -> float:
        return float(np.mean([r.sifted_kbps(self.burst_seconds) for r in self.rows])) if self.rows else 0.0

    @property
    def mean_secure_kbps(self) -> float:
        return float(np.mean([r.secure_kbps(self.burst_seconds) for r in self.rows])) if self.rows else 0.0

    @property
    def mean_qber(self) -> float:
        return float(np.mean([r.qber for r in self.rows])) if self.rows else 0.0


class ReportWriter:
    """Appends one CSV row per burst, flushed immediately so a crash leaves a prefix."""

    COLUMNS = ["burst_id", "sifted_kbps", "qber", "secure_kbps", "offset_frames", "fifo_choice"]

    def __init__(self, path: str | Path, burst_seconds: float):
        self.burst_seconds = burst_seconds
        self._fh = open(path, "w", newline="", encoding="utf-8")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(self.COLUMNS)
        self._fh.flush()

    def add(self, o: BurstOutcome) -> None:
        self._writer.writerow([
            o.burst_id,
            f"{o.sifted_kbps(self.burst_seconds):.3f}",
            f"{o.qber:.6f}",
            f"{o.secure_kbps(self.burst_seconds):.3f}",
            o.offset_frames,
            o.fifo_choice,
        ])
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _load_cfg(args) -> SimConfig:
    cfg = default_config()
    if getattr(args, "config", None):
        cfg = load_config(args.config, base=cfg)
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["rng_seed"] = args.seed
    if getattr(args, "eve", False):
        updates["eve_enabled"] = True
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    cfg.validate()
    return cfg


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="configuration file (key=value lines)")
    p.add_argument("--seed", type=int, help="root RNG seed (shared by both terminals)")
    p.add_argument("--eve", action="store_true", help="enable the intercept-resend emulation")


def cmd_estimate(args) -> int:
    cfg = _load_cfg(args)
    print(analysis.format_rate_table(cfg.link))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    if args.step <= 0 or args.to < args.from_m:
        raise UsageError("sweep needs --step > 0 and --to >= --from")
    distances = list(np.arange(args.from_m, args.to + args.step / 2, args.step))
    rows = analysis.distance_sweep(cfg.link, distances)
    if args.out:
        analysis.write_sweep_csv(rows, args.out)
        log(event="sweep_written", path=args.out, points=len(rows))
    else:
        print("distance_m,secure_kbps")
        for d, rate in rows:
            print(f"{d:g},{rate / 1e3:.3f}")
    return EXIT_OK


def _session_outputs(args, result: session.SessionResult, cfg: SimConfig) -> None:
    if getattr(args, "key_out", None):
        Path(args.key_out).write_bytes(result.key_buffer.to_bytes())
        log(event="key_written", path=args.key_out, bits=len(result.key_buffer))


def _finish_session(args, result: session.SessionResult, cfg: SimConfig) -> int:
    _session_outputs(args, result, cfg)
    report = RunReport(cfg.burst_seconds, list(result.outcomes))
    log(event="session_done", role=result.role, bursts=len(result.outcomes),
        mean_sifted_kbps=f"{report.mean_sifted_kbps:.1f}",
        mean_secure_kbps=f"{report.mean_secure_kbps:.1f}",
        mean_qber=f"{report.mean_qber:.4f}",
        key_bits=len(result.key_buffer))
    return EXIT_ABORT if result.any_aborted else EXIT_OK


def _sync_report_path(base: str, burst_id: int) -> Path:
    path = Path(base)
    return path.with_name(f"{path.stem}-{burst_id}{path.suffix or '.csv'}")


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    writer = ReportWriter(args.out, cfg.burst_seconds) if args.out else None

    def on_burst(o: BurstOutcome) -> None:
        log(event="burst", burst=o.burst_id, qber=f"{o.qber:.4f}",
            sifted_kbps=f"{o.sifted_kbps(cfg.burst_seconds):.1f}",
            secure_kbps=f"{o.secure_kbps(cfg.burst_seconds):.1f}",
            aborted=o.aborted_reason or "no", r_n=o.offset_frames, fifo=o.fifo_choice)
        if writer:
            writer.add(o)
        if args.sync_report and o.sync_curve:
            path = _sync_report_path(args.sync_report, o.burst_id)
            timing.write_sync_report(o.sync_curve, path)

    try:
        alice, bob = simulate_session(cfg, args.bursts, on_burst=on_burst)
    finally:
        if writer:
            writer.close()
    if alice.key_buffer.to_bytes() != bob.key_buffer.to_bytes():
        raise ProtocolError("terminal key buffers diverged")
    if args.eve_log and cfg.eve_enabled:
        _dump_eve_log(cfg, args.eve_log)
    return _finish_session(args, alice, cfg)


def _dump_eve_log(cfg: SimConfig, path: str, burst_id: int = 0) -> None:
    """Replay the (deterministic) interception of one burst and dump it."""
    from .core import rng_stream
    from .eve import Eavesdropper
    from .photonics import generate_burst

    tx = generate_burst(cfg, rng_stream(cfg.rng_seed, f"txgen:{burst_id}"))
    eavesdropper = Eavesdropper(rng_stream(cfg.rng_seed, f"eve:{burst_id}"),
                                cfg.eve_fraction, keep_log=True)
    eavesdropper.transform(tx.bases, tx.bits, tx.photon_counts)
    eavesdropper.log.dump_csv(path)
    log(event="eve_log_written", path=path, intercepted=eavesdropper.log.intercepted)


def _wait_listener(port: int) -> socket.socket:
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind(("", port))
    srv.listen(1)
    return srv


def cmd_alice(args) -> int:
    cfg = _load_cfg(args)
    srv_c = _wait_listener(args.port)
    srv_q = _wait_listener(args.port + 1)
    log(event="listening", classical=args.port, quantum=args.port + 1)
    conn_c, peer = srv_c.accept()
    conn_q, _ = srv_q.accept()
    log(event="connected", peer=f"{peer[0]}:{peer[1]}")
    chan = SocketChannel(conn_c, timeout=args.timeout)
    transport = NetworkTransport(SocketChannel(conn_q, timeout=args.timeout))
    writer = ReportWriter(args.out, cfg.burst_seconds) if args.out else None
    try:
        result = run_session("alice", cfg, chan, transport, args.bursts,
                             on_burst=writer.add if writer else None)
        code = _finish_session(args, result, cfg)
        if args.chat:
            code = max(code, _run_chat(args, chan, result))
        return code
    finally:
        if writer:
            writer.close()
        chan.close()
        srv_c.close()
        srv_q.close()


def cmd_bob(args) -> int:
    cfg = _load_cfg(args)
    host, _, port_text = args.connect.partition(":")
    port = int(port_text) if port_text else DEFAULT_PORT
    conn_c = socket.create_connection((host, port), timeout=args.timeout)
    conn_q = socket.create_connection((host, port + 1), timeout=args.timeout)
    chan = SocketChannel(conn_c, timeout=args.timeout)
    transport = NetworkTransport(SocketChannel(conn_q, timeout=args.timeout))
    writer = ReportWriter(args.out, cfg.burst_seconds) if args.out else None
    try:
        result = run_session("bob", cfg, chan, transport, args.bursts,
                             on_burst=writer.add if writer else None)
        code = _finish_session(args, result, cfg)
        if args.chat:
            code = max(code, _run_chat(args, chan, result))
        return code
    finally:
        if writer:
            writer.close()
        chan.close()


def _run_chat(args, chan, result: session.SessionResult) -> int:
    """OTP messaging on the freshly distilled key: handshake, duplex transfer, EOF."""
    endpoint = securecomm.ChatEndpoint(chan, result.key_buffer, result.role)
    try:
        endpoint.handshake()
    except securecomm.ChatRefused as exc:
        log(event="chat_refused", reason=str(exc))
        return EXIT_ABORT
    log(event="chat_established", role=result.role)

    payload = b""
    if getattr(args, "send_file", None):
        payload = Path(args.send_file).read_bytes()
    elif getattr(args, "text", None):
        payload = args.text.encode("utf-8")

    received = bytearray()
    error: list[BaseException] = []

    def receiver():
        try:
            received.extend(endpoint.recv_all())
        except BaseException as exc:
            error.append(exc)

    rx_thread = threading.Thread(target=receiver, daemon=True)
    rx_thread.start()
    timeout = getattr(args, "timeout", session.DEFAULT_PHASE_TIMEOUT)
    endpoint.send_bytes(payload, timeout=timeout)  # raises if the key runs out
    endpoint.send_eof()
    rx_thread.join(timeout=timeout)
    if error:
        raise error[0]

    if getattr(args, "recv_out", None):
        Path(args.recv_out).write_bytes(bytes(received))
        log(event="chat_received", bytes=len(received), path=args.recv_out)
    elif received:
        sys.stdout.buffer.write(bytes(received))
        sys.stdout.buffer.flush()
    log(event="chat_done", sent_bytes=len(payload), received_bytes=len(received),
        key_consumed_bits=result.key_buffer.consumed_total)
    return EXIT_OK


def cmd_chat(args) -> int:
    """Run a short QKD session, then the OTP chat on its key."""
    args.chat = True
    if args.listen:
        return cmd_alice(args)
    if not args.connect:
        raise UsageError("chat needs --listen or --connect host:port")
    return cmd_bob(args)


def build_parser() -> _Parser:
    parser = _Parser(prog="qkdlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="print the analytic rate table")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="secure rate vs distance, CSV")
    _add_common(p)
    p.add_argument("--from", dest="from_m", type=float, default=0.0, help="start distance [m]")
    p.add_argument("--to", type=float, default=2500.0, help="end distance [m]")
    p.add_argument("--step", type=float, default=50.0, help="step [m]")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="in-process end-to-end run of both terminals")
    _add_common(p)
    p.add_argument("--bursts", type=int, default=1)
    p.add_argument("--out", help="per-burst report CSV")
    p.add_argument("--key-out", dest="key_out", help="write the accumulated key bytes here")
    p.add_argument("--sync-report", dest="sync_report",
                   help="write each burst's offset->QBER search curve as CSV (one file per burst)")
    p.add_argument("--eve-log", dest="eve_log",
                   help="with --eve: dump the interception record of burst 0 as CSV")
    p.set_defaults(func=cmd_simulate)

    for name, fn in (("alice", cmd_alice), ("bob", cmd_bob)):
        p = sub.add_parser(name, help=f"run the {name} terminal over TCP")
        _add_common(p)
        p.add_argument("--bursts", type=int, default=1)
        p.add_argument("--out", help="per-burst report CSV")
        p.add_argument("--key-out", dest="key_out")
        p.add_argument("--timeout", type=float, default=session.DEFAULT_PHASE_TIMEOUT)
        p.add_argument("--chat", action="store_true", help="enter OTP chat after the bursts")
        p.add_argument("--send-file", dest="send_file", help="file to transmit in chat mode")
        p.add_argument("--text", help="text message to transmit in chat mode")
        p.add_argument("--recv-out", dest="recv_out", help="write received chat bytes here")
        if name == "alice":
            p.add_argument("--listen", action="store_true", default=True,
                           help="accept a connection (default)")
            p.add_argument("--port", type=int, default=DEFAULT_PORT)
        else:
            p.add_argument("--connect", required=True, metavar="HOST:PORT")
        p.set_defaults(func=fn)

    p = sub.add_parser("chat", help="QKD session followed by OTP messaging")
    _add_common(p)
    p.add_argument("--listen", action="store_true")
    p.add_argument("--connect", metavar="HOST:PORT")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--bursts", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--key-out", dest="key_out")
    p.add_argument("--timeout", type=float, default=session.DEFAULT_PHASE_TIMEOUT)
    p.add_argument("--send-file", dest="send_file")
    p.add_argument("--text")
    p.add_argument("--recv-out", dest="recv_out")
    p.set_defaults(func=cmd_chat)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ProtocolError, securecomm.ChatRefused,
            securecomm.KeyStreamDesync, timing.NoLockError, ConnectionError,
            TimeoutError) as exc:
        log(event="abort", error=type(exc).__name__, detail=str(exc))
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
