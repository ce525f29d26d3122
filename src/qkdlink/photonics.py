"""Monte Carlo model of the WCP source, free-space channel and detection.

One burst of pulses is generated with PRBS11-driven bases and bits.  Photon
numbers are never materialized per pulse: thinning a Poisson(mu) photon
number by the end-to-end efficiency eta gives exactly Poisson(mu * eta)
detected photons, so only the pulses with at least one detected photon are
drawn, as geometric gaps, each with a zero-truncated Poisson photon count.
Those photons then get a 50:50 measurement basis, a polarization projection,
a bin shifted by time of flight plus 1PPS offset, and per-click clock
jitter.  Dark counts are added as uniformly placed spurious clicks.  The
cost scales with the ~5% of pulses that click, not with the 20 M pulses of
a 1-second burst.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SimConfig
from .timing import sample_pps_offset

PRBS11_MASK = 0x7FF
PRBS11_PERIOD = 2047


def prbs11_next(state: int) -> tuple[int, int]:
    """Advance a PRBS11 linear-feedback shift register (x^11 + x^9 + 1).

    Returns ``(output_bit, next_state)``.  The all-zero state is a fixed
    point of the recurrence and is rejected.
    """
    if not 0 < state <= PRBS11_MASK:
        raise ValueError(f"PRBS11 state must be a nonzero 11-bit integer, got {state}")
    bit = ((state >> 10) ^ (state >> 8)) & 1
    return bit, ((state << 1) & PRBS11_MASK) | bit


def prbs11_sequence(state: int, n: int) -> np.ndarray:
    """n successive PRBS11 output bits starting from ``state``.

    The period is 2047, so one full cycle is materialized once and tiled.
    """
    period = np.empty(PRBS11_PERIOD, dtype=np.uint8)
    s = state
    for i in range(PRBS11_PERIOD):
        bit, s = prbs11_next(s)
        period[i] = bit
    assert s == state  # maximal-length sequence returns to its seed
    if n <= 0:
        return np.empty(0, dtype=np.uint8)
    return np.tile(period, -(-n // PRBS11_PERIOD))[:n]


@dataclass
class TxBurst:
    """The encoding of every pulse of one burst as parallel arrays (basis, bit).

    Photon numbers are not part of it: :func:`transmit_and_detect` draws the
    detected ones directly.
    """

    bases: np.ndarray  # uint8, 0=rectilinear 1=diagonal
    bits: np.ndarray   # uint8

    def __len__(self) -> int:
        return len(self.bases)


@dataclass
class RxBurst:
    """All detections of one burst, sorted by bin, plus the realized timing offsets.

    ``source_index`` is simulator ground truth (-1 for dark counts); it never
    leaves the process and exists so synchronization tests can compare the
    recovered alignment against the injected one.
    """

    bin_index: np.ndarray    # int64, global receiver bins at bin_ns resolution
    channel: np.ndarray      # uint8, 1..4
    multi_click: np.ndarray  # bool, >=2 channels fired in this bin
    realized_pps_offset_ns: float
    # ground-truth whole-bin alignment between Tx frame 0 and Rx bins
    true_bin_offset: int = 0
    source_index: np.ndarray = field(repr=False, default=None)

    def __len__(self) -> int:
        return len(self.bin_index)


def generate_burst(cfg: SimConfig, rng: np.random.Generator) -> TxBurst:
    """Draw one burst: the two PRBS11 seeds, and from them every pulse's basis and bit."""
    n = cfg.n_pulses
    seed_bases = int(rng.integers(1, PRBS11_MASK + 1))
    seed_bits = int(rng.integers(1, PRBS11_MASK + 1))
    return TxBurst(prbs11_sequence(seed_bases, n), prbs11_sequence(seed_bits, n))


def detected_photons(n: int, mu: float, eta: float,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Which of ``n`` pulses have >=1 detected photon, and how many each has.

    Each pulse carries Poisson(mu) photons and each photon survives with
    probability ``eta``, so a pulse has Poisson(lam) detected photons with
    lam = mu * eta, and clicks with probability p = 1 - exp(-lam).  The
    clicking pulses are drawn as geometric gaps with parameter p.  The count
    of each is 1 + Poisson(lam * (1 - t)), where t is the arrival time of the
    first photon of a unit-time Poisson process conditioned on at least one
    arriving (an exponential truncated to [0, 1]), which makes it exactly
    zero-truncated Poisson(lam).  Returns ascending int64 pulse indices and
    int64 counts.
    """
    lam = mu * eta
    p = -np.expm1(-lam)
    if n <= 0 or p <= 0.0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # enough gaps to pass the last pulse almost always, topped up otherwise; a
    # gap is capped at n + 1, which passes the last pulse and cannot overflow
    expect = n * p
    size = int(expect + 6.0 * np.sqrt(expect) + 16)
    last = -1
    runs = []
    while last < n - 1:
        runs.append(last + np.cumsum(np.minimum(rng.geometric(p, size), n + 1)))
        last = runs[-1][-1]
    positions = np.concatenate(runs)
    positions = positions[: np.searchsorted(positions, n)]
    # lam * (1 - t) = lam + log(1 - p * u), clipped at 0 against rounding
    rest = np.maximum(lam + np.log1p(-p * rng.random(len(positions))), 0.0)
    return positions, 1 + rng.poisson(rest)


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


def _true_bin_offset(cfg: SimConfig, tof_ns: float, pps_ns: float) -> int:
    return int(np.floor((tof_ns + pps_ns) / cfg.bin_ns))


def transmit_and_detect(tx: TxBurst, cfg: SimConfig, eve=None,
                        rng: np.random.Generator | None = None) -> RxBurst:
    """Propagate one burst through the channel and produce receiver clicks.

    Stages: optional eavesdropper transform of every pulse; the 1PPS offset
    of the burst; the pulses with >=1 photon surviving path loss (geometric
    collection x residual loss) and the detector chain, with their detected
    photon counts (:func:`detected_photons`); then per detected photon a
    50:50 measurement basis choice, polarization projection onto a channel
    (probability ``e_pol`` of landing in the flipped channel when bases
    agree, uniform within the measurement basis when they differ), and bin
    placement shifted by time of flight + 1PPS offset and smeared by the
    3-bin clock spread; dark counts; multi-channel bins flagged.

    A click's channel is ``1 + 2 * basis + bit``: ch1=H, ch2=V (rectilinear
    basis 0, bits 0 and 1), ch3=D, ch4=A (diagonal basis 1, bits 0 and 1).
    Downstream code recovers basis and bit as ``(channel - 1) >> 1`` and
    ``(channel - 1) & 1``.
    """
    if rng is None:
        raise ValueError("transmit_and_detect requires an explicit rng stream")
    link = cfg.link
    n = len(tx)

    bases, bits = tx.bases, tx.bits
    if eve is not None:
        bases, bits = eve.transform(bases, bits)

    # timing realization, shared by every click of the burst
    tof_ns = cfg.tof_ns()
    pps_ns = sample_pps_offset(cfg, rng)
    base_bin = _true_bin_offset(cfg, tof_ns, pps_ns)

    p_path = eta_geometric(link.distance_m, link.aperture_mm, link.footprint0_mm,
                           link.divergence_urad) * link.eta_residual
    p_det = link.detector_chain_efficiency()
    # Basis choice does not affect survival, so the two thinning stages fold
    # into one; surviving photons then get basis/channel/bin.
    hit, detected = detected_photons(n, link.mu, p_path * p_det, rng)
    src = np.repeat(hit, detected)
    m = len(src)

    meas_basis = rng.integers(0, 2, m, dtype=np.uint8)
    same = meas_basis == bases[src]
    flip = rng.random(m) < link.e_pol
    rand_bit = rng.integers(0, 2, m, dtype=np.uint8)
    meas_bit = np.where(same, bits[src] ^ flip, rand_bit).astype(np.uint8)
    channel = (1 + 2 * meas_basis + meas_bit).astype(np.uint8)

    jitter = np.zeros(m, dtype=np.int64)
    if cfg.clock_spread_bins > 0:
        u = rng.random(m)
        off_center = u >= cfg.clock_center_prob
        late = u >= cfg.clock_center_prob + (1.0 - cfg.clock_center_prob) / 2.0
        jitter[off_center] = -1
        jitter[late] = 1
    bins = cfg.bins_per_frame * src + base_bin + jitter

    # dark + background counts, uniform over the burst's bin span
    n_dark = rng.poisson(link.dark_cps * cfg.burst_seconds)
    span = cfg.bins_per_frame * n + base_bin + 2
    dark_bins = rng.integers(0, span, n_dark, dtype=np.int64)
    dark_ch = rng.integers(1, 5, n_dark, dtype=np.uint8)

    all_bins = np.concatenate([bins, dark_bins])
    all_ch = np.concatenate([channel, dark_ch])
    all_src = np.concatenate([src, np.full(n_dark, -1, dtype=np.int64)])

    # merge same (bin, channel) pairs into a single click; signal entries come
    # first in the concatenation so they win the merge over dark counts
    key = all_bins * 8 + all_ch
    uniq, first = np.unique(key, return_index=True)
    bin_u = uniq // 8  # sorted by bin, then channel
    ch_u = (uniq % 8).astype(np.uint8)
    src_u = all_src[first]

    # multi_click: more than one channel fired in the same bin; events with
    # equal bins are consecutive because the unique keys are sorted
    _, bin_count = np.unique(bin_u, return_counts=True)
    multi = np.repeat(bin_count > 1, bin_count)

    return RxBurst(
        bin_index=bin_u,
        channel=ch_u,
        multi_click=multi,
        realized_pps_offset_ns=pps_ns,
        true_bin_offset=base_bin,
        source_index=src_u,
    )

