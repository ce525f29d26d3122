"""Closed-form key-rate estimation and the rate-vs-distance sweep.

A weak coherent pulse of mean photon number mu clicking through a channel of
total efficiency eta follows Poisson statistics, so the per-pulse click
probability is 1 - exp(-eta * mu).  Scaling by the pulse rate and the
synchronization / post-processing efficiencies yields the expected sifted
and secure key rates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .core import LinkBudget
from .photonics import total_efficiency
from .postproc import PA_IN_BITS, PA_OUT_BITS

SIFT_FRACTION = 0.5                   # the receiver draws each basis 50:50
PA_RATIO = PA_OUT_BITS / PA_IN_BITS   # the fixed 16 -> 11 Toeplitz compression


@dataclass(frozen=True)
class RateEstimate:
    q_mu: float              # per-pulse click probability
    clicks_per_s: float
    clicks_after_sync: float
    sifted_rate: float       # bits/s
    secure_rate: float       # bits/s


def poisson_pmf(i: int, mu: float) -> float:
    """Probability of an i-photon pulse from a source of mean photon number mu."""
    if i < 0:
        raise ValueError("photon number must be >= 0")
    if mu < 0:
        raise ValueError("mean photon number must be >= 0")
    if mu == 0:
        return 1.0 if i == 0 else 0.0
    return math.exp(i * math.log(mu) - mu - math.lgamma(i + 1))


def trigger_prob(i: int, eta: float) -> float:
    """Probability that at least one of i independent photons is detected."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("efficiency must be in [0, 1]")
    return 1.0 - (1.0 - eta) ** i


def click_prob(mu: float, eta: float) -> float:
    """Per-pulse click probability of a WCP source: 1 - exp(-eta * mu)."""
    return 1.0 - math.exp(-eta * mu)


def estimate_rates(link: LinkBudget, distance_m: float | None = None) -> RateEstimate:
    """Expected click and key rates for a link budget at its operating distance."""
    q = click_prob(link.mu, total_efficiency(link, distance_m))
    clicks = link.prf_hz * q
    after_sync = clicks * link.sync_efficiency
    sifted = after_sync * SIFT_FRACTION
    secure = sifted * (1.0 - link.qber_sample_fraction) * PA_RATIO
    return RateEstimate(
        q_mu=q,
        clicks_per_s=clicks,
        clicks_after_sync=after_sync,
        sifted_rate=sifted,
        secure_rate=secure,
    )


def distance_sweep(link: LinkBudget, distances_m: list[float]) -> list[tuple[float, float]]:
    """Secure rate at each distance (>= 0), holding everything but geometry fixed."""
    return [(d, estimate_rates(link, distance_m=d).secure_rate) for d in distances_m]


def write_sweep_csv(rows: list[tuple[float, float]], path: str | Path) -> None:
    """Emit the sweep as CSV (columns distance_m,secure_kbps)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["distance_m", "secure_kbps"])
        for d, rate in rows:
            writer.writerow([f"{d:g}", f"{rate / 1e3:.3f}"])


def format_rate_table(link: LinkBudget) -> str:
    """Human-readable summary of the operating point and derived rates."""
    est = estimate_rates(link)
    post_eff = SIFT_FRACTION * (1.0 - link.qber_sample_fraction) * PA_RATIO
    rows = [
        ("mean photon number", f"{link.mu:g}"),
        ("pulse repetition frequency", f"{link.prf_hz / 1e6:g} MHz"),
        ("channel efficiency", f"{total_efficiency(link) * 100:.2f}%"),
        ("synchronization efficiency", f"{link.sync_efficiency * 100:.2f}%"),
        ("post-processing efficiency", f"{post_eff * 100:.2f}%"),
        ("per-pulse click probability", f"{est.q_mu:.6f}"),
        ("total clicks", f"{est.clicks_per_s / 1e3:.1f} K/s"),
        ("clicks after sync", f"{est.clicks_after_sync / 1e3:.1f} K/s"),
        ("sifted key rate", f"{est.sifted_rate / 1e3:.1f} Kbps"),
        ("secure key rate", f"{est.secure_rate / 1e3:.1f} Kbps"),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
