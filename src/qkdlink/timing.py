"""Clock/1PPS error models and the synchronization algorithms.

Alignment between transmitted pulses and receiver clicks is recovered in
three layers, coarse to fine:

1. whole-frame offset (time of flight plus most of the 1PPS error), found
   by a minimum-QBER search over candidate frame delays on a disclosed
   subset of the burst; a frame's match does not depend on the delay, so
   one nearest-neighbor match scores every candidate;
2. half-frame ambiguity, resolved by dual-boundary ("dual-FIFO") binning:
   of the nominal framing and one delayed by half a frame, keep whichever
   has fewer counts in its edge bins, which also prevents clicks from
   straddling frame boundaries.  The delayed framing's slot histogram is
   the nominal one rotated by half a frame, so one histogram decides.  A
   framing is a bin shift, not a copy of the clicks: the matcher finds each
   click's frame and slot from its bin as it goes;
3. residual one-bin clock spread, absorbed by nearest-neighbor correlation:
   a click matches its pulse if it falls within ``NNC_WINDOW`` (one) slot of
   the expected bin.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .core import SimConfig


class NoLockError(RuntimeError):
    """Frame-offset search failed: no candidate produced a plausible QBER."""

    def __init__(self, min_qber: float):
        super().__init__(f"no frame lock: best interim QBER {min_qber:.3f}")
        self.min_qber = min_qber


class FifoChoice(IntEnum):
    FIFO1 = 1
    FIFO2 = 2


def sample_pps_offset(cfg: SimConfig, rng: np.random.Generator) -> float:
    """Zero-mean Gaussian 1PPS offset, sigma = pps_jitter_sigma_ns, truncated to the cap."""
    sigma = cfg.pps_jitter_sigma_ns
    cap = cfg.pps_jitter_cap_ns
    if sigma == 0:
        return 0.0
    while True:
        x = rng.normal(0.0, sigma)
        if abs(x) <= cap:
            return float(x)


def choose_framing(counts: Sequence[int]) -> tuple[FifoChoice, int]:
    """Frame boundary and central slot from the nominal (FIFO1) slot histogram.

    FIFO2's histogram is ``counts`` rotated by half a frame.  The framing
    with fewer counts in its edge slots wins (both hold the same clicks,
    so this is the smaller edge fraction); ties go to FIFO1.  The central
    slot is the first peak of the winning histogram.
    """
    counts = list(counts)  # a few slots: Python ints beat numpy's per-call overhead
    half = len(counts) // 2
    delayed = counts[-half:] + counts[:-half]
    if delayed[0] + delayed[-1] < counts[0] + counts[-1]:
        return FifoChoice.FIFO2, delayed.index(max(delayed))
    return FifoChoice.FIFO1, counts.index(max(counts))


@dataclass
class MatchResult:
    """Vectorized pulse<->click assignment for one burst (or subset)."""

    tx_index: np.ndarray   # int32, matched pulse indices, ascending
    channel: np.ndarray    # uint8
    n_multi_discard: int
    n_compete_discard: int

    def __len__(self) -> int:
        return len(self.tx_index)


# slots either side of the central one in which a click still matches its pulse
NNC_WINDOW = 1


def nnc_match(n_tx: int, rx, b: int, shift: int, central: int, frame_offset: int,
              first_tx: int = 0) -> MatchResult:
    """Nearest-neighbor correlation between pulses ``[first_tx, n_tx)`` and detections ``rx``.

    Pulse ``j``'s frame of ``b`` bins starts at bin ``b * (j + frame_offset)
    - shift``, with ``shift`` 0 for FIFO1 and ``b // 2`` for FIFO2; clicks
    within ``NNC_WINDOW`` slots of slot ``central`` in that frame qualify.
    Frames containing a multi-channel bin or more than one qualifying click
    are discarded entirely, so each click is consumed at most once and every
    match is unambiguous.  The qualifying clicks of one pulse are adjacent,
    so a pulse matches exactly when its one qualifying click is alone in its
    run and not multi-channel; the multi-click discards are the distinct
    pulses among the multi-channel clicks, and the competing-click discards
    the remaining runs of two or more.  Works on the ~1 M clicks of a burst
    with a few arrays of their size live at once, and frames and slots only
    the clicks of the pulses asked for.
    """
    origin = b * frame_offset - shift  # first bin of pulse 0's frame
    # bins are sorted: the clicks of pulses [first_tx, n_tx) are one slice; the
    # bounds take the bins' dtype, else searchsorted casts every bin to theirs
    cut = np.array((origin + b * first_tx, origin + b * n_tx), dtype=rx.bin_index.dtype)
    lo, hi = np.searchsorted(rx.bin_index, cut)
    dist = rx.bin_index[lo:hi] - origin
    # each click's frame start: a floor division by a scalar is cheaper than a remainder
    start = dist // b
    start *= b
    dist -= start  # the click's slot in its frame
    dist -= central
    np.abs(dist, out=dist)
    valid = dist <= NNC_WINDOW  # selections go through masks, never 8-byte index arrays
    del dist
    tx = start[valid]
    del start
    tx //= b  # the pulse of each qualifying click, non-decreasing
    channel = rx.channel[lo:hi][valid]
    multi = rx.multi_click[lo:hi][valid]
    del valid
    # edge[i]: click i opens a run of equal pulses; edge[i + 1]: click i closes one
    edge = np.ones(len(tx) + 1, dtype=bool)
    np.not_equal(tx[1:], tx[:-1], out=edge[1:-1])
    lone = edge[:-1] & edge[1:]
    n_runs = np.count_nonzero(edge[:-1])
    n_lone = np.count_nonzero(lone)
    n_lone_multi = np.count_nonzero(lone & multi)
    multi_tx = tx[multi]
    n_multi = np.count_nonzero(multi_tx[1:] != multi_tx[:-1]) + (len(multi_tx) > 0)
    del edge
    lone &= ~multi
    del multi
    channel = channel[lone]
    return MatchResult(
        tx_index=tx[lone],
        channel=channel,
        n_multi_discard=int(n_multi),
        n_compete_discard=int(n_runs - n_lone - (n_multi - n_lone_multi)),
    )


def interim_qber(tx_bases: np.ndarray, tx_bits: np.ndarray, rx, b: int, shift: int,
                 central: int, offsets: Sequence[int]) -> np.ndarray:
    """Sifted mismatch fraction of the disclosed pulses under each candidate frame offset.

    The clicks ``rx`` are framed as :func:`nnc_match` frames them.  Whether
    a frame matches does not depend on the offset, so one match at offset 0
    over the frames any candidate reaches serves them all: under offset r,
    matched frame f is disclosed pulse f - r.  The pulses' codes ``basis << 1 |
    bit``, padded on both sides by the offsets' spread with 4 (a basis no click
    measures), are read at every (offset, frame) by one gather; XORed with the
    click's ``channel - 1`` a code is below 2 for a basis-agreeing pair and 1
    for an error.  A candidate with no pairs reads 0.5 by convention, which is
    also the expected value at any wrong offset.
    """
    n = len(tx_bases)
    if n == 0:
        return np.full(len(offsets), 0.5)
    lo, hi = min(offsets), max(offsets)
    res = nnc_match(hi + n, rx, b, shift, central, 0, lo)
    pad = hi - lo  # matched frame f under offset r reads code f - r + pad, in [0, n + 2 * pad)
    code = np.full(n + 2 * pad, 4, dtype=np.uint8)
    code[pad:pad + n] = 2 * tx_bases + tx_bits
    code = code.take(np.add.outer(pad - np.asarray(offsets, dtype=res.tx_index.dtype),
                                  res.tx_index))  # (candidates, matched frames)
    code ^= res.channel - 1
    pairs = (code < 2).sum(1)
    errors = (code == 1).sum(1)
    return np.where(pairs > 0, errors / np.maximum(pairs, 1), 0.5)


# best interim QBER above which a burst counts as uncorrelated at every offset
NOLOCK_THRESHOLD = 0.45


def offset_window(cfg: SimConfig) -> range:
    """Whole-frame offsets R_N consistent with time of flight +- the 1PPS cap.

    The true bin offset lies in floor((tof +- cap) / bin_ns); the recovered
    one is bins_per_frame * R_N + central - shift with central in
    [0, bins_per_frame) and shift in {0, bins_per_frame // 2}.  R_N is
    signed: a negative 1PPS offset can outweigh a short time of flight.
    """
    b = cfg.bins_per_frame
    lo = int(np.floor((cfg.tof_ns() - cfg.pps_jitter_cap_ns) / cfg.bin_ns)) - (b - 1)
    hi = int(np.floor((cfg.tof_ns() + cfg.pps_jitter_cap_ns) / cfg.bin_ns)) + b // 2
    return range(-(-lo // b), hi // b + 1)


def estimate_frame_offset(tx_bases: np.ndarray, tx_bits: np.ndarray, rx, shift: int,
                          central: int, cfg: SimConfig) -> tuple[int, list[tuple[int, float]]]:
    """Minimum-QBER search for the whole-frame receiver offset R_N.

    Scores every candidate delay of :func:`offset_window` with one
    :func:`interim_qber` call, which is one NNC match; the argmin wins,
    lowest offset on ties.  Raises :class:`NoLockError` when even the best
    candidate looks uncorrelated (QBER above ``NOLOCK_THRESHOLD``), meaning
    the burst cannot be aligned at all.
    """
    candidates = offset_window(cfg)
    qber = interim_qber(tx_bases, tx_bits, rx, cfg.bins_per_frame, shift, central,
                        candidates)
    best = int(np.argmin(qber))
    if qber[best] > NOLOCK_THRESHOLD:
        raise NoLockError(float(qber[best]))
    return candidates[best], list(zip(candidates, qber.tolist()))


@dataclass
class SyncResult:
    """The receiver's alignment: boundary choice, central slot and R_N.

    It holds no framed copy of the clicks: with ``bins_per_frame`` and
    :attr:`shift` these scalars are all :func:`nnc_match` needs.
    """

    fifo_choice: FifoChoice
    central: int
    r_n: int
    curve: list[tuple[int, float]]
    bins_per_frame: int

    @property
    def shift(self) -> int:
        """Bins added to every bin index before framing: 0 (FIFO1) or half a frame (FIFO2)."""
        return 0 if self.fifo_choice == FifoChoice.FIFO1 else self.bins_per_frame // 2

    @property
    def recovered_bin_offset(self) -> int:
        """Whole-bin alignment implied by (FIFO, R_N, central slot)."""
        return self.bins_per_frame * self.r_n + self.central - self.shift


def synchronize(tx_bases: np.ndarray, tx_bits: np.ndarray, rx, cfg: SimConfig) -> SyncResult:
    """Full sync pipeline: boundary choice from the slot histogram, offset search."""
    b = cfg.bins_per_frame
    # one count per slot: np.bincount would copy every 32-bit slot to intp first;
    # the slot is the bin less its frame start, as a floor division is cheaper than %
    slots = rx.bin_index // b
    slots *= b
    np.subtract(rx.bin_index, slots, out=slots)
    choice, central = choose_framing([np.count_nonzero(slots == s) for s in range(b)])
    del slots
    sync = SyncResult(choice, central, 0, [], b)
    sync.r_n, sync.curve = estimate_frame_offset(tx_bases, tx_bits, rx, sync.shift, central, cfg)
    return sync


def write_sync_report(curve: list[tuple[int, float]], path: str | Path) -> None:
    """Emit the offset -> interim QBER curve as CSV (columns offset_frames,qber)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["offset_frames", "qber"])
        for offset, q in curve:
            writer.writerow([offset, f"{q:.6f}"])
