"""In-memory span tracer and the per-layer metrics computed from its spans.

Spans are recorded from the benchmark's own files: :func:`install` replaces
the public functions of each qkdlink module with wrappers that time the call,
and :func:`uninstall` puts the originals back.  Several names are imported
into ``qkdlink.session`` with ``from ... import``, so each wrapper is placed on
the name the caller looks up; ``qkdlink.session.nnc_match`` (the full-burst
match) and ``qkdlink.timing.nnc_match`` (the calls inside the offset search)
therefore get different span names.

A span records its name, start, end, parent span, burst or trial id and role.
Child spans inherit the burst id and role of their parent; a root span takes
them from its own arguments (``run_burst_alice(k, ...)``) or from the
tracer's default role.  Self time is the span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

from qkdlink import eve, photonics, postproc, securecomm, session, timing


class Span(NamedTuple):
    id: int
    parent: int          # 0 for a root span
    name: str
    start: float
    end: float
    burst: int | None
    role: str | None
    counters: dict | None


class Tracer:
    """Collects finished spans in memory; thread-safe for appends under the GIL."""

    def __init__(self, default_role: str | None = None, clock=time.monotonic):
        self.records: list[Span] = []
        self.default_role = default_role
        self.clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str, burst=None, role=None, own_context: bool = False) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if not own_context:
            if parent is not None:
                burst, role = parent[2], parent[3]
            else:
                role = self.default_role
        frame = [next(self._ids), parent[0] if parent else 0, burst, role, name, 0.0]
        stack.append(frame)
        frame[5] = self.clock()
        return frame

    def _end(self, frame: list, counters: dict | None = None) -> None:
        end = self.clock()
        self._stack().pop()
        self.records.append(Span(frame[0], frame[1], frame[4], frame[5], end,
                                 frame[2], frame[3], counters))

    def wrap(self, name: str, fn, on_result=None, context=None):
        """Return ``fn`` wrapped in a span.

        ``on_result(args, result)`` returns a counters dict stored on the span;
        ``context(args)`` returns ``(burst, role)`` for a root span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if context is not None:
                burst, role = context(args)
                frame = tracer._begin(name, burst, role, own_context=True)
            else:
                frame = tracer._begin(name)
            counters = None
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    counters = on_result(args, out)
                return out
            finally:
                tracer._end(frame, counters)

        return traced

    def span(self, name: str, burst=None, role=None):
        """Context manager for a root span opened by the benchmark itself."""
        return _SpanContext(self, name, burst, role)

    def record(self, name: str, start: float, end: float, burst=None, role=None) -> None:
        """Add a span measured elsewhere (e.g. a child process observed from outside)."""
        self.records.append(Span(next(self._ids), 0, name, start, end, burst, role, None))

    def merge(self, spans: list[Span]) -> None:
        """Append spans from another tracer, renumbering their ids to stay unique."""
        if not spans:
            return
        offset = next(self._ids)
        top = offset
        for s in spans:
            top = max(top, s.id + offset)
            self.records.append(s._replace(id=s.id + offset,
                                           parent=s.parent + offset if s.parent else 0))
        self._ids = itertools.count(top + 1)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.records:
                fh.write(json.dumps(s._asdict()) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, burst, role):
        self.tracer, self.name, self.burst, self.role = tracer, name, burst, role

    def __enter__(self):
        self.frame = self.tracer._begin(self.name, self.burst, self.role, own_context=True)
        return self

    def __exit__(self, *exc):
        self.tracer._end(self.frame)
        return False


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals (clipped to it)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.id] = (s.end - s.start) - covered
    return out


# --- what gets wrapped ------------------------------------------------------------


def _count(**fields):
    return lambda args, out: {k: f(out) for k, f in fields.items()}


def _encoded_bytes(args, out):
    # encode_message(msg) -> frame bytes; counted per message type
    return {"bytes." + session.MsgType(args[0].msg_type).name: len(out)}


def _burst_outcome(args, out):
    outcome = out[0]
    return {"sifted_bits": outcome.sifted_bits, "secure_bits": outcome.secure_bits,
            "disclosed_bits": outcome.disclosed_bits}


def targets():
    """(owner, attribute, span name, on_result, context) for every wrapped callable."""
    def burst_root(role):
        return lambda args: (args[0], role)

    return [
        (photonics, "generate_burst", "photonics.generate_burst", None, None),
        (session, "generate_burst", "photonics.generate_burst", None, None),
        (photonics, "transmit_and_detect", "photonics.transmit_and_detect",
         _count(clicks=len), None),
        (session, "transmit_and_detect", "photonics.transmit_and_detect",
         _count(clicks=len), None),
        (eve.Eavesdropper, "transform", "eve.transform", None, None),
        (timing, "synchronize", "timing.synchronize",
         _count(candidates=lambda r: len(r.curve)), None),
        (session, "synchronize", "timing.synchronize",
         _count(candidates=lambda r: len(r.curve)), None),
        (timing, "nnc_match", "timing.nnc_match", None, None),
        (session, "nnc_match", "timing.nnc_match_full",
         _count(matched=len, multi=lambda r: r.n_multi_discard,
                compete=lambda r: r.n_compete_discard), None),
        (postproc, "permutation_for_pass", "postproc.permutation_for_pass", None, None),
        (postproc, "block_parities", "postproc.block_parities", None, None),
        (postproc, "block_syndromes", "postproc.block_syndromes", None, None),
        (postproc, "syndrome_error_positions", "postproc.syndrome_error_positions", None, None),
        (postproc, "key_hash", "postproc.key_hash", None, None),
        (postproc, "privacy_amplify", "postproc.privacy_amplify", None, None),
        (postproc.KeyBuffer, "take", "postproc.KeyBuffer.take", None, None),
        (postproc.KeyBuffer, "available", "postproc.KeyBuffer.available", None, None),
        (session, "encode_message", "session.encode_message", _encoded_bytes, None),
        (session, "decode_message", "session.decode_message", None, None),
        (session, "pack_bits", "session.pack_bits", None, None),
        (session, "unpack_bits", "session.unpack_bits", None, None),
        (session.LoopChannel, "send", "session.send", None, None),
        (session.SocketChannel, "send", "session.send", None, None),
        (session.LoopChannel, "recv", "session.recv", None, None),
        (session.SocketChannel, "recv", "session.recv", None, None),
        (session.InProcessTransport, "receive", "session.recv", None, None),
        (session, "pack_tx_burst", "session.pack_tx_burst", None, None),
        (session, "unpack_tx_burst", "session.unpack_tx_burst", None, None),
        (session, "run_burst_alice", "session.run_burst_alice", _burst_outcome,
         burst_root("alice")),
        (session, "run_burst_bob", "session.run_burst_bob", _burst_outcome,
         burst_root("bob")),
        (securecomm, "otp_seal", "securecomm.otp_seal", None, None),
        (securecomm, "otp_open", "securecomm.otp_open", None, None),
    ]


def install(tracer: Tracer) -> list:
    """Wrap every target; returns what :func:`uninstall` needs to restore them."""
    restore = []
    for owner, attr, name, on_result, context in targets():
        original = vars(owner)[attr]
        setattr(owner, attr, tracer.wrap(name, original, on_result, context))
        restore.append((owner, attr, original))
    return restore


def uninstall(restore: list) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


# --- per-layer metrics ------------------------------------------------------------------

# Root spans of one unit of work: a burst (per role), a sync trial, an OTP transfer
# (its send and its receive); UNIT_SPANS counts each unit once.
ROOTS = ("session.run_burst_alice", "session.run_burst_bob", "bench.trial", "bench.send",
         "bench.recv")
UNIT_SPANS = ("session.run_burst_alice", "bench.trial", "bench.send")

WINNOW = ("postproc.permutation_for_pass", "postproc.block_parities",
          "postproc.block_syndromes", "postproc.syndrome_error_positions", "postproc.key_hash")
CODEC = ("session.encode_message", "session.decode_message", "session.pack_bits",
         "session.unpack_bits")
MSG_TYPES = ("HELLO", "BURST_START", "SYNC_SUBSET", "FRAME_OFFSET_ACK", "BASES", "QBER_SAMPLE",
             "ABORT", "WINNOW_PARITIES", "WINNOW_SYNDROMES", "PERM_SEED", "PA_SEED", "KEY_HASH",
             "CHAT_DATA", "CHAT_HANDSHAKE")  # SIM_PULSESTREAM is session.side_channel_bytes

# metric -> (unit, kind, spec); every value is per unit of work except cli.* (per session)
#   self:    summed self time of the named spans (optionally only in one role)
#   calls:   number of spans with that name (optionally only in one role)
#   counter: summed counter of the named span
#   mean:    that counter averaged over the spans that set it (calls that returned)
LAYER_METRICS: dict[str, tuple] = {
    "photonics.generate_burst.s": ("s", "self", ("photonics.generate_burst",)),
    "photonics.transmit_and_detect.s": ("s", "self", ("photonics.transmit_and_detect",)),
    "photonics.clicks": ("count", "counter", ("photonics.transmit_and_detect", "clicks")),
    "eve.transform.s": ("s", "self", ("eve.transform",)),
    "timing.synchronize.s": ("s", "self", ("timing.synchronize",)),
    "timing.nnc_match.s": ("s", "self", ("timing.nnc_match",)),
    "timing.nnc_match.calls": ("count", "calls", ("timing.nnc_match",)),
    "timing.nnc_match_full.s": ("s", "self", ("timing.nnc_match_full",)),
    "timing.offset_candidates": ("count", "mean", ("timing.synchronize", "candidates")),
    "timing.matched": ("count", "counter", ("timing.nnc_match_full", "matched")),
    "timing.multi_discard": ("count", "counter", ("timing.nnc_match_full", "multi")),
    "timing.compete_discard": ("count", "counter", ("timing.nnc_match_full", "compete")),
    "postproc.winnow.s": ("s", "self", WINNOW),
    "postproc.winnow_passes": ("count", "calls", ("postproc.permutation_for_pass", "alice")),
    "postproc.disclosed_bits": ("count", "counter", ("session.run_burst_alice", "disclosed_bits")),
    "postproc.sifted_bits": ("count", "counter", ("session.run_burst_alice", "sifted_bits")),
    "postproc.secure_bits": ("count", "counter", ("session.run_burst_alice", "secure_bits")),
    "postproc.privacy_amplify.s": ("s", "self", ("postproc.privacy_amplify",)),
    "postproc.KeyBuffer.take.s": ("s", "self", ("postproc.KeyBuffer.take",)),
    "postproc.KeyBuffer.available.s": ("s", "self", ("postproc.KeyBuffer.available",)),
    "postproc.KeyBuffer.take.calls": ("count", "calls", ("postproc.KeyBuffer.take",)),
    "session.recv_wait.alice.s": ("s", "self", ("session.recv", "alice")),
    "session.recv_wait.bob.s": ("s", "self", ("session.recv", "bob")),
    "session.send.s": ("s", "self", ("session.send",)),
    "session.codec.s": ("s", "self", CODEC),
    "session.messages": ("count", "calls", ("session.encode_message",)),
    **{f"session.bytes.{t}": ("bytes", "counter", ("session.encode_message", f"bytes.{t}"))
       for t in MSG_TYPES},
    "session.side_channel_bytes": ("bytes", "counter",
                                   ("session.encode_message", "bytes.SIM_PULSESTREAM")),
    "session.pack_tx_burst.s": ("s", "self", ("session.pack_tx_burst",)),
    "session.unpack_tx_burst.s": ("s", "self", ("session.unpack_tx_burst",)),
    "securecomm.otp_seal.s": ("s", "self", ("securecomm.otp_seal",)),
    "securecomm.otp_open.s": ("s", "self", ("securecomm.otp_open",)),
    "securecomm.frames": ("count", "calls", ("securecomm.otp_seal",)),
    "cli.start_to_listening.s": ("s", "self", ("cli.start_to_listening",)),
    "cli.connect.s": ("s", "self", ("cli.connect",)),
}


def _role_filter(spec: tuple) -> tuple[tuple, str | None]:
    if spec[-1] in ("alice", "bob"):
        return spec[:-1], spec[-1]
    return spec, None


def layer_metrics(spans: list[Span], overhead_share: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, normalised per unit of work (cli.* per session)."""
    selfs = self_times(spans)
    units = sum(1 for s in spans if s.name in UNIT_SPANS) or 1
    sessions = sum(1 for s in spans if s.name == "cli.connect") or 1
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    out: dict[str, tuple[float, str]] = {}
    for metric, (unit, kind, spec) in LAYER_METRICS.items():
        if kind in ("counter", "mean"):
            name, key = spec
            values = [s.counters[key] for s in by_name[name] if s.counters and key in s.counters]
            if kind == "mean":
                out[metric] = (sum(values) / len(values) if values else 0.0, unit)
                continue
            total = sum(values)
        else:
            names, role = _role_filter(spec)
            chosen = [s for n in names for s in by_name[n] if role is None or s.role == role]
            total = sum(selfs[s.id] for s in chosen) if kind == "self" else len(chosen)
        per = sessions if metric.startswith("cli.") else units
        out[metric] = (total / per, unit)

    clicks = out["photonics.clicks"][0]
    out["timing.match_yield"] = (out["timing.matched"][0] / clicks if clicks else 0.0, "ratio")
    roots = [s for s in spans if s.name in ROOTS]
    wall = sum(s.end - s.start for s in roots)
    out["trace.unattributed_share"] = (sum(selfs[s.id] for s in roots) / wall if wall else 0.0,
                                       "ratio")
    out["trace.overhead_share"] = (overhead_share, "ratio")
    return out


PER_LAYER_UNITS = {**{m: spec[0] for m, spec in LAYER_METRICS.items()},
                   "timing.match_yield": "ratio",
                   "trace.unattributed_share": "ratio", "trace.overhead_share": "ratio"}
