"""Command-line entry points: estimate, sweep, simulate, alice, bob, chat.

Exit codes: 0 success, 1 usage/configuration error (bad arguments too), 2 protocol abort.
Diagnostics go to standard error as key=value lines; reports to --out.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import socket
import sys
import threading
from pathlib import Path

import numpy as np

from . import analysis, securecomm, session, timing
from .core import ConfigError, SimConfig, default_config, load_config
from .postproc import KeyExhausted
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


class ReportWriter:
    """Appends one CSV row per burst, flushed immediately so a crash leaves a prefix."""

    COLUMNS = ["burst_id", "sifted_kbps", "qber", "secure_kbps", "offset_frames", "fifo_choice",
               "abort_reason", "disclosed_bits"]

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
            "" if o.offset_frames is None else o.offset_frames,
            o.fifo_choice,
            o.aborted_reason or "",
            o.disclosed_bits,
        ])
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _load_cfg(args) -> SimConfig:
    cfg = default_config()
    if args.config:
        cfg = load_config(args.config, base=cfg)
    updates = {}
    if args.seed is not None:
        updates["rng_seed"] = args.seed
    if args.eve:
        updates["eve_enabled"] = True
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    cfg.validate()
    return cfg


def _count(text: str) -> int:
    """argparse type of --bursts: a whole number >= 1."""
    if (n := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"needs a count >= 1, got {n}")
    return n


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
    if args.from_m < 0 or args.step <= 0 or args.to < args.from_m:
        raise UsageError("sweep needs --from >= 0, --step > 0 and --to >= --from")
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


def _finish_session(args, result: session.SessionResult, cfg: SimConfig) -> int:
    if args.key_out:
        Path(args.key_out).write_bytes(result.key_buffer.to_bytes())
        log(event="key_written", path=args.key_out, bits=len(result.key_buffer))
    rows, seconds = result.outcomes, cfg.burst_seconds
    log(event="session_done", role=result.role, bursts=len(rows),
        mean_sifted_kbps=f"{np.mean([o.sifted_kbps(seconds) for o in rows] or [0.0]):.1f}",
        mean_secure_kbps=f"{np.mean([o.secure_kbps(seconds) for o in rows] or [0.0]):.1f}",
        mean_qber=f"{np.mean([o.qber for o in rows] or [0.0]):.4f}",
        key_bits=len(result.key_buffer))
    return EXIT_ABORT if result.any_aborted else EXIT_OK


def _sync_report_path(base: str, burst_id: int) -> Path:
    path = Path(base)
    return path.with_name(f"{path.stem}-{burst_id}{path.suffix or '.csv'}")


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    if args.eve_log and not cfg.eve_enabled:
        raise UsageError("--eve-log needs Eve enabled (--eve or eve_enabled=true)")
    writer = ReportWriter(args.out, cfg.burst_seconds) if args.out else None

    def on_burst(o: BurstOutcome) -> None:
        log(event="burst", burst=o.burst_id, qber=f"{o.qber:.4f}",
            sifted_kbps=f"{o.sifted_kbps(cfg.burst_seconds):.1f}",
            secure_kbps=f"{o.secure_kbps(cfg.burst_seconds):.1f}",
            aborted=o.aborted_reason or "no", r_n=o.offset_frames, fifo=o.fifo_choice)
        if writer:
            writer.add(o)

    try:
        alice, bob = simulate_session(cfg, args.bursts, on_burst=on_burst)
    finally:
        if writer:
            writer.close()
    for o in bob.outcomes:  # the offset search, and so its curve, is the receiver's
        if args.sync_report and o.sync_curve:
            timing.write_sync_report(o.sync_curve, _sync_report_path(args.sync_report, o.burst_id))
    if alice.key_buffer.to_bytes() != bob.key_buffer.to_bytes():
        raise ProtocolError("terminal key buffers diverged")
    if args.eve_log:
        _dump_eve_log(cfg, args.eve_log)
    return _finish_session(args, alice, cfg)


EVE_LOG_BLOCK_ROWS = 1 << 20  # rows laid out per write: ~16 MB of text at most


def _dump_eve_log(cfg: SimConfig, path: str) -> None:
    """Replay burst 0 through the session's own draws and write, as
    ``index,basis,bit`` CSV rows in ascending index order, Eve's re-prepared
    basis and bit of each intercepted pulse that holds a detected photon:
    the states the receiver's photons were drawn from.

    Rows are laid out as byte arrays, one block per run of indices with the
    same number of digits, in the csv module's dialect (CRLF line ends): a
    1-s burst has ~1 M rows, too many to format one by one.
    """
    parts: list = []
    session.received_burst(cfg, 0, session.transmitted_burst(cfg, 0), eve_log=parts)
    ((index, bases, bits),) = parts
    n = len(index)
    digits = np.searchsorted(index, [10**w for w in range(1, 19)]).tolist()
    edges = sorted({0, n, *range(EVE_LOG_BLOCK_ROWS, n, EVE_LOG_BLOCK_ROWS), *digits})
    with open(path, "wb") as fh:
        fh.write(b"index,basis,bit\r\n")
        for lo, hi in zip(edges, edges[1:]):
            width = len(str(index[hi - 1]))  # every index in [lo, hi) has this many digits
            rows = np.empty((hi - lo, width + 6), dtype=np.uint8)
            for d in range(width):
                rows[:, width - 1 - d] = ord("0") + index[lo:hi] // 10**d % 10
            rows[:, width:] = np.frombuffer(b",0,0\r\n", dtype=np.uint8)
            rows[:, width + 1] += bases[lo:hi]
            rows[:, width + 3] += bits[lo:hi]
            fh.write(rows.tobytes())
    log(event="eve_log_written", path=path, intercepted=n)


def _connect(args, role: str) -> socket.socket:
    """Alice accepts one connection on --port; Bob opens one to --connect."""
    if role == "alice":
        with socket.create_server(("", args.port)) as srv:
            log(event="listening", port=args.port)
            conn, peer = srv.accept()
        log(event="connected", peer=f"{peer[0]}:{peer[1]}")
        return conn
    host, _, port_text = args.connect.partition(":")
    port = int(port_text) if port_text else DEFAULT_PORT
    return socket.create_connection((host, port), timeout=args.timeout)


def cmd_terminal(args) -> int:
    """One terminal over one TCP connection: the bursts, then, as ``chat``, the OTP chat.

    The classical messages and the simulated pulse stream (SIM_PULSESTREAM,
    the pulse count and the two PRBS11 states of each burst) share the
    connection.
    """
    if not (args.listen or args.connect):
        raise UsageError("chat needs --listen or --connect host:port")
    role = "alice" if args.listen else "bob"
    cfg = _load_cfg(args)
    chan = SocketChannel(_connect(args, role), timeout=args.timeout)
    writer = ReportWriter(args.out, cfg.burst_seconds) if args.out else None
    try:
        result = run_session(role, cfg, chan, NetworkTransport(chan), args.bursts,
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
    """OTP messaging on the freshly distilled key: handshake, duplex transfer, EOF.

    A frame its lane cannot cover raises KeyExhausted at once, and a receive
    still short of the peer's EOF ``--timeout`` after the local EOF raises
    TimeoutError, so truncated output never exits 0.
    """
    endpoint = securecomm.ChatEndpoint(chan, result.key_buffer, result.role)
    try:
        endpoint.handshake()
    except securecomm.ChatRefused as exc:
        log(event="chat_refused", reason=str(exc))
        return EXIT_ABORT
    log(event="chat_established", role=result.role)

    payload = b""
    if args.send_file:
        payload = Path(args.send_file).read_bytes()
    elif args.text:
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
    endpoint.send_bytes(payload)
    endpoint.send_eof()
    rx_thread.join(timeout=args.timeout)
    if error:
        raise error[0]
    if rx_thread.is_alive():
        raise TimeoutError(f"chat receive unfinished after {args.timeout} s")

    if args.recv_out:
        Path(args.recv_out).write_bytes(bytes(received))
        log(event="chat_received", bytes=len(received), path=args.recv_out)
    elif received:
        sys.stdout.buffer.write(bytes(received))
        sys.stdout.buffer.flush()
    log(event="chat_done", sent_bytes=len(payload), received_bytes=len(received),
        key_consumed_bits=result.key_buffer.consumed_total)
    return EXIT_OK


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
    p.add_argument("--bursts", type=_count, default=1)
    p.add_argument("--out", help="per-burst report CSV")
    p.add_argument("--key-out", dest="key_out", help="write the accumulated key bytes here")
    p.add_argument("--sync-report", dest="sync_report",
                   help="write each burst's offset->QBER search curve as CSV (one file per burst)")
    p.add_argument("--eve-log", dest="eve_log",
                   help="needs Eve enabled: dump Eve's state of each intercepted pulse of burst 0 "
                        "that reached the receiver, as CSV")
    p.set_defaults(func=cmd_simulate)

    # one terminal, three spellings: alice listens, bob connects, chat does as told
    for name, help_text in (("alice", "run the alice terminal over TCP"),
                            ("bob", "run the bob terminal over TCP"),
                            ("chat", "QKD session followed by OTP messaging")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name != "bob":
            p.add_argument("--port", type=int, default=DEFAULT_PORT)
        if name == "chat":
            p.add_argument("--listen", action="store_true", help="accept a connection as alice")
        if name != "alice":
            p.add_argument("--connect", required=name == "bob", metavar="HOST:PORT")
        p.add_argument("--bursts", type=_count, default=1)
        p.add_argument("--out", help="per-burst report CSV")
        p.add_argument("--key-out", dest="key_out", help="write the accumulated key bytes here")
        p.add_argument("--timeout", type=float, default=session.DEFAULT_PHASE_TIMEOUT)
        if name == "chat":
            p.add_argument("--send-file", dest="send_file", help="file to transmit")
            p.add_argument("--text", help="text message to transmit")
            p.add_argument("--recv-out", dest="recv_out", help="write received chat bytes here")
        # parser-level defaults: also the value of each option a subcommand does not declare
        p.set_defaults(func=cmd_terminal, listen=name == "alice", connect=None,
                       chat=name == "chat")
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
    except (ProtocolError, ConnectionError, TimeoutError, KeyExhausted) as exc:
        log(event="abort", error=type(exc).__name__, detail=str(exc))
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
