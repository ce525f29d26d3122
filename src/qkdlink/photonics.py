"""Monte Carlo model of the WCP source, free-space channel and detection.

The bases and bits of a burst's pulses are two PRBS11 sequences, so the
burst is its pulse count and the two PRBS11 states; the basis and bit of any
pulse are read from one precomputed PRBS11 cycle.  Photon numbers are never
materialized per pulse: thinning a Poisson(mu) photon number by the
end-to-end efficiency eta gives exactly Poisson(mu * eta) detected photons
per pulse, independently, which is what one Poisson process of rate mu * eta
per pulse gives, so only the detected photons are drawn, as its exponential
gaps.  Those photons then
get a 50:50 measurement basis, a polarization projection, a bin shifted by
time of flight plus 1PPS offset, and per-click clock jitter.  Dark counts
are added as uniformly placed spurious entries, and one in-place sort of the
nearly sorted (bin, channel) keys merges coinciding entries into clicks.
The receiver keeps only the keys; the pulse behind each entry is simulator
ground truth, returned by :func:`detector_entries` and dropped by the merge.
The cost scales with the ~5% of pulses that click, not with the 20 M pulses
of a 1-second burst.  On a burst of at least ``DRAW_CHUNK`` detected photons
the encoding of their pulses (or the eavesdropper's re-preparation of it)
runs on one worker thread while the calling thread makes the channel draws;
the two take separate random streams, so no draw depends on the threads'
interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CLICK_KEY_DTYPE, LinkBudget, SimConfig, Worker
from .timing import sample_pps_offset

PRBS11_MASK = 0x7FF
PRBS11_PERIOD = 2047
# float draws of a burst's size are made this many at a time: Generator.random and
# standard_exponential consume the stream element by element, so the draws are the same
DRAW_CHUNK = 1 << 16


def _check_prbs11_state(state: int) -> None:
    if not 0 < state <= PRBS11_MASK:
        raise ValueError(f"PRBS11 state must be a nonzero 11-bit integer, got {state}")


def prbs11_next(state: int) -> tuple[int, int]:
    """Advance a PRBS11 linear-feedback shift register (x^11 + x^9 + 1).

    Returns ``(output_bit, next_state)``.  The all-zero state is a fixed
    point of the recurrence and is rejected.
    """
    _check_prbs11_state(state)
    bit = ((state >> 10) ^ (state >> 8)) & 1
    return bit, ((state << 1) & PRBS11_MASK) | bit


def _prbs11_cycle() -> tuple[np.ndarray, np.ndarray]:
    """The output cycle from state 1, and the step at which the cycle reaches each state."""
    cycle = np.empty(PRBS11_PERIOD, dtype=np.uint8)
    phase = np.zeros(PRBS11_MASK + 1, dtype=np.int64)
    s = 1
    for i in range(PRBS11_PERIOD):
        phase[s] = i
        cycle[i], s = prbs11_next(s)
    assert s == 1  # maximal-length sequence returns to its seed
    return cycle, phase


_CYCLE, _PHASE = _prbs11_cycle()
_CYCLE2 = np.concatenate([_CYCLE, _CYCLE])  # read at phase + (j % period) without a wrap


def prbs11_sequence(state: int, n: int) -> np.ndarray:
    """n successive PRBS11 output bits starting from ``state``.

    Every nonzero state lies on the one cycle of period 2047, so the output
    is one period of the doubled cycle read from ``state``'s phase, tiled.
    """
    _check_prbs11_state(state)
    if n <= 0:
        return np.empty(0, dtype=np.uint8)
    phase = _PHASE[state]
    return np.tile(_CYCLE2[phase:phase + PRBS11_PERIOD], -(-n // PRBS11_PERIOD))[:n]


@dataclass(frozen=True)
class TxBurst:
    """The encoding of one burst: ``n`` pulses whose bases and bits are the
    PRBS11 sequences from ``state_bases`` and ``state_bits``.

    Pulse j's basis is cycle bit ``(phase(state_bases) + j) % 2047``, and
    likewise its bit, so :meth:`at` reads any set of pulses without
    materializing the burst.  Photon numbers are not part of it:
    :func:`detector_entries` draws the detected ones directly.
    """

    n: int
    state_bases: int
    state_bits: int

    def __post_init__(self):
        _check_prbs11_state(self.state_bases)
        _check_prbs11_state(self.state_bits)

    def __len__(self) -> int:
        return self.n

    def at(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(bases, bits) of the pulses at ``idx``, as uint8 arrays (0=rectilinear 1=diagonal).

        One gather from this burst's 2047-entry ``basis << 1 | bit`` table,
        ``DRAW_CHUNK`` indices at a time through an ``intp`` phase (a gather
        converts any other index dtype to one first).
        """
        pb, pv = _PHASE[self.state_bases], _PHASE[self.state_bits]
        table = _CYCLE2[pb:pb + PRBS11_PERIOD] << 1 | _CYCLE2[pv:pv + PRBS11_PERIOD]
        idx = np.asarray(idx)
        # the scratch ahead of the result: the other way round, a transmitter's
        # allocator arena held ~7 MB more from burst to burst
        whole = np.empty(min(len(idx), DRAW_CHUNK), dtype=idx.dtype)
        phase = np.empty(len(whole), dtype=np.intp)
        state = np.empty(len(idx), dtype=np.uint8)
        for i in range(0, len(idx), DRAW_CHUNK):
            part = idx[i:i + DRAW_CHUNK]
            w, p = whole[:len(part)], phase[:len(part)]
            # idx % PRBS11_PERIOD, without a costly remainder
            np.floor_divide(part, PRBS11_PERIOD, out=w)
            w *= PRBS11_PERIOD
            np.subtract(part, w, out=p)
            table.take(p, out=state[i:i + len(part)])
        bits = state & 1
        state >>= 1
        return state, bits

    @property
    def bases(self) -> np.ndarray:
        """Every pulse's basis: an n-element array, for tests and diagnostics."""
        return prbs11_sequence(self.state_bases, self.n)

    @property
    def bits(self) -> np.ndarray:
        """Every pulse's bit: an n-element array, for tests and diagnostics."""
        return prbs11_sequence(self.state_bits, self.n)


@dataclass
class RxBurst:
    """All clicks of one burst, sorted by bin, plus the true bin offset.

    A click is a detector channel firing in a time bin: what the receiver
    sees, with no record of the pulse behind it.
    """

    bin_index: np.ndarray    # int32, global receiver bins at bin_ns resolution
    channel: np.ndarray      # uint8, 1..4
    multi_click: np.ndarray  # bool, >=2 channels fired in this bin
    # ground-truth whole-bin alignment between Tx frame 0 and Rx bins
    true_bin_offset: int = 0

    def __len__(self) -> int:
        return len(self.bin_index)


def generate_burst(cfg: SimConfig, rng: np.random.Generator) -> TxBurst:
    """Draw one burst: the two PRBS11 states that fix every pulse's basis and bit."""
    seed_bases = int(rng.integers(1, PRBS11_MASK + 1))
    seed_bits = int(rng.integers(1, PRBS11_MASK + 1))
    return TxBurst(cfg.n_pulses, seed_bases, seed_bits)


def detected_photons(n: int, mu: float, eta: float, rng: np.random.Generator) -> np.ndarray:
    """The pulse index of every photon detected from ``n`` pulses, ascending.

    Each pulse carries Poisson(mu) photons and each photon survives with
    probability ``eta``, so a pulse has Poisson(lam) detected photons with
    lam = mu * eta, independently of the others.  Those are exactly the
    arrivals of a Poisson process of rate lam per pulse, counted per unit
    interval: a photon arrives at the cumulative sum of exponential gaps of
    mean 1 / lam and belongs to the pulse ``floor`` of that time.  A pulse
    with k detected photons appears k times.  Returns int32 indices, so ``n``
    must not exceed 2**31 (``SimConfig.validate`` keeps a burst far below).
    """
    lam = mu * eta
    if n <= 0 or lam <= 0.0:
        return np.empty(0, dtype=np.int32)
    # enough gaps to pass the last pulse almost always, topped up otherwise;
    # times stay float until cut at n, so a tiny lam cannot overflow
    expect = n * lam
    size = int(expect + 6.0 * np.sqrt(expect) + 16)
    last = 0.0
    runs = []
    chunk = np.empty(min(size, DRAW_CHUNK))
    while last < n:
        # a run's gaps come DRAW_CHUNK at a time, each chunk's cumsum continued from
        # the last one's, which gives the floats of one cumsum over the whole run
        run = np.empty(size, dtype=np.int32)
        kept = total = 0
        for i in range(0, size, DRAW_CHUNK):
            t = rng.standard_exponential(out=chunk[:size - i])
            t[0] += total
            np.cumsum(t, out=t)
            total = t[-1]
            t *= 1.0 / lam
            t += last
            cut = np.searchsorted(t, n)
            run[kept:kept + cut] = t[:cut]
            kept += cut
        runs.append(run[:kept])
        last = t[-1]
    return runs[0] if len(runs) == 1 else np.concatenate(runs)


def eta_geometric(distance_m: float, aperture_mm: float, footprint0_mm: float,
                  divergence_urad: float) -> float:
    """Collection efficiency of a linearly diverging beam on a circular aperture.

    Footprint grows as w(d) = footprint0 + divergence * d; once the beam
    overfills the aperture the captured fraction falls as (aperture/w)^2.
    """
    if distance_m < 0:
        raise ValueError("distance must be >= 0")
    w = footprint0_mm + divergence_urad * 1e-3 * distance_m  # 1 urad = 1e-3 mm/m
    return min(1.0, (aperture_mm / w) ** 2)


def total_efficiency(link: LinkBudget, distance_m: float | None = None) -> float:
    """Detection probability of one photon: geometric collection x residual x detector chain."""
    d = link.distance_m if distance_m is None else distance_m
    return (eta_geometric(d, link.aperture_mm, link.footprint0_mm, link.divergence_urad)
            * link.eta_residual * link.detector_chain_efficiency())


def _true_bin_offset(cfg: SimConfig, tof_ns: float, pps_ns: float) -> int:
    return int(np.floor((tof_ns + pps_ns) / cfg.bin_ns))


def detector_entries(tx: TxBurst, cfg: SimConfig, eve=None, *,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Propagate one burst through the channel to its detector entries.

    Stages: the 1PPS offset of the burst; the photons surviving path loss
    (geometric collection x residual loss) and the detector chain, as the
    pulse index of each (:func:`detected_photons`); the encoding of those
    pulses, as the optional eavesdropper re-prepared them
    (:meth:`Eavesdropper.intercept`); then per detected photon a 50:50
    measurement basis choice, polarization projection onto a channel
    (probability ``e_pol`` of landing in the flipped channel when bases
    agree, uniform within the measurement basis when they differ), and bin
    placement shifted by time of flight + 1PPS offset and smeared by the
    3-bin clock spread (not drawn when ``clock_center_prob`` is 1); then the
    dark counts.  The draws on ``rng`` come in that order, each once per
    photon or dark count, all on the calling thread.  The encoding reads no
    ``rng`` draw (Eve draws from her own stream): from ``DRAW_CHUNK`` photons
    up it runs on a :class:`~qkdlink.core.Worker` thread beside the channel
    draws, below that inline, and the channel is blended from both once the
    worker's result is in.  An exception raised on the worker is raised here.

    Returns ``(key, src, pps_ns, base_bin)``: the int32 merge key ``bin * 8 +
    channel`` of every entry, the m detected photons first and the dark
    counts after; the int32 pulse of each of those m photons, ascending; the
    realized 1PPS offset; and the true whole-bin offset.

    A channel is ``1 + 2 * basis + bit``: ch1=H, ch2=V (rectilinear
    basis 0, bits 0 and 1), ch3=D, ch4=A (diagonal basis 1, bits 0 and 1).
    Downstream code recovers basis and bit as ``(channel - 1) >> 1`` and
    ``(channel - 1) & 1``.
    """
    link = cfg.link
    n = len(tx)

    # timing realization, shared by every click of the burst
    tof_ns = cfg.tof_ns()
    pps_ns = sample_pps_offset(cfg, rng)
    base_bin = _true_bin_offset(cfg, tof_ns, pps_ns)

    # Basis choice does not affect survival, so the two thinning stages fold
    # into one; surviving photons then get basis/channel/bin.
    src = detected_photons(n, link.mu, total_efficiency(link), rng)
    m = len(src)
    # the photons' encoding, on a worker while this thread draws; intercept-resend
    # keeps photon numbers, so Eve needs only the pulses that reach Bob
    encoding = Worker(lambda: tx.at(src) if eve is None else eve.intercept(tx, src),
                      inline=m < DRAW_CHUNK)

    # per photon: measurement basis, polarization flip, outcome when the bases differ;
    # the flip waits in bit 1 of the measurement basis for the encoding
    meas = rng.integers(0, 2, m, dtype=np.uint8)
    flip = np.empty(min(m, DRAW_CHUNK), dtype=bool)
    for i in range(0, m, DRAW_CHUNK):
        part = meas[i:i + DRAW_CHUNK]
        f = np.less(rng.random(len(part)), link.e_pol, out=flip[:len(part)])
        part |= f.view(np.uint8) << 1
    del flip
    rand_bit = rng.integers(0, 2, m, dtype=np.uint8)
    jitter = _clock_jitter(m, cfg.clock_center_prob, rng) if cfg.clock_center_prob < 1 else 0

    # dark + background counts, uniform over the burst's bin span
    n_dark = rng.poisson(link.dark_cps * cfg.burst_seconds)
    span = cfg.bins_per_frame * n + base_bin + 2

    # one array of merge keys (bin * 8 + channel): the signal entries, then the dark
    # counts; SimConfig.validate keeps every key inside CLICK_KEY_DTYPE
    key = np.empty(m + n_dark, dtype=CLICK_KEY_DTYPE)
    signal = key[:m]
    np.multiply(src, cfg.bins_per_frame, out=signal)
    signal += base_bin
    signal += jitter
    del jitter
    key[m:] = rng.integers(0, span, n_dark, dtype=np.int64)
    key *= 8
    bases, bits = encoding.result()
    # channel 1 + 2 * basis + bit: the sent bit (flipped with probability e_pol)
    # when the bases agree, else a random one, blended (a masked copy branches per
    # entry), a chunk at a time
    channel = rand_bit
    for i in range(0, m, DRAW_CHUNK):
        s = slice(i, i + DRAW_CHUNK)
        basis, bit, ch = meas[s], bits[s], channel[s]
        bit ^= basis >> 1
        basis &= 1
        bit ^= ch
        bit &= basis == bases[s]
        ch ^= bit
        basis <<= 1
        ch += basis
        ch += 1
        signal[s] += ch
    key[m:] += rng.integers(1, 5, n_dark, dtype=np.uint8)
    return key, src, pps_ns, base_bin


def transmit_and_detect(tx: TxBurst, cfg: SimConfig, eve=None, *,
                        rng: np.random.Generator) -> RxBurst:
    """The receiver's clicks of one burst: its :func:`detector_entries`,
    merged into clicks with multi-channel bins flagged (:func:`merge_clicks`).

    Only the merge keys are kept, as 32-bit integers, and the float draws
    come a chunk at a time, so a 1-s burst of ~0.95 M clicks holds ~13 bytes
    per click at its peak, counting the encoding worker's arrays (~15 with
    Eve's).
    """
    key, src, _, base_bin = detector_entries(tx, cfg, eve, rng=rng)
    del src  # ground truth: the receiver merges the keys alone
    return RxBurst(*merge_clicks(key), true_bin_offset=base_bin)


def _clock_jitter(m: int, center_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Bin shift of ``m`` clicks, as int8: -1 (one bin early) with probability
    (1 - center) / 2, +1 (one bin late) likewise, else 0."""
    shift = np.empty(m, dtype=np.int8)
    for i in range(0, m, DRAW_CHUNK):
        s = shift[i:i + DRAW_CHUNK]
        u = rng.random(len(s))
        s[:] = u >= center_prob + (1.0 - center_prob) / 2.0
        s += s
        s -= u >= center_prob
    return shift


def merge_clicks(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge detector entries with equal ``key = bin * 8 + channel`` into one click each.

    Returns the clicks sorted by bin, then channel, as ``(bins, channel,
    multi_click)``; ``multi_click`` flags every click whose bin holds
    another.  Channels must lie in 0..7.  ``key`` is sorted in place, and
    each click's bin and channel are read back from its merged key, so the
    order of the entries does not matter.
    """
    # stable for speed, not for a tie rule (equal keys make one click): on the
    # nearly sorted keys (signal entries in pulse order up to the clock
    # jitter, then the few dark counts) it takes ~3.5 ms on a 1-s burst, the
    # default sort ~9.5 ms
    key.sort(kind="stable")
    keep = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    bins = key[keep]  # the first entry of each run of equal keys
    channel = bins.astype(np.uint8)
    channel &= 7
    bins >>= 3  # floor division by 8, so negative bins come back exactly
    # equal bins are adjacent: flag each click that shares its bin with a neighbour
    multi = np.zeros(len(bins), dtype=bool)
    shared = bins[1:] == bins[:-1]
    multi[1:] = shared
    multi[:-1] |= shared
    return bins, channel, multi
