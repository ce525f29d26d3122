"""Intercept-resend eavesdropper emulation.

Eve measures each intercepted pulse in a uniformly random basis and
re-prepares it in that basis with her outcome, preserving the photon-number
draw (the emulation alters the encoding, not the intensity).  Against a
sifted BB84 key this induces a 25% error rate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class EveLog:
    intercepted: int = 0
    measured_bits: list = field(default_factory=list)
    measured_bases: list = field(default_factory=list)

    def dump_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "basis", "bit"])
            for i, (ba, bi) in enumerate(zip(self.measured_bases, self.measured_bits)):
                writer.writerow([i, int(ba), int(bi)])


class Eavesdropper:
    """Per-burst intercept-resend transform over pulse arrays.

    ``fraction`` < 1 intercepts a random subset; the induced QBER scales
    linearly with it.
    """

    def __init__(self, rng: np.random.Generator, fraction: float = 1.0,
                 keep_log: bool = False):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("interception fraction must be in [0, 1]")
        self.rng = rng
        self.fraction = fraction
        self.log = EveLog() if keep_log else None

    def transform(self, bases: np.ndarray, bits: np.ndarray,
                  photon_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return the re-prepared (bases, bits); photon counts pass through."""
        n = len(bases)
        eve_basis = self.rng.integers(0, 2, n, dtype=np.uint8)
        guess = self.rng.integers(0, 2, n, dtype=np.uint8)
        eve_bit = np.where(eve_basis == bases, bits, guess).astype(np.uint8)
        if self.fraction < 1.0:
            hit = self.rng.random(n) < self.fraction
            eve_basis = np.where(hit, eve_basis, bases).astype(np.uint8)
            eve_bit = np.where(hit, eve_bit, bits).astype(np.uint8)
            n_hit = int(np.count_nonzero(hit))
        else:
            n_hit = n
        if self.log is not None:
            self.log.intercepted += n_hit
            self.log.measured_bases.extend(eve_basis.tolist())
            self.log.measured_bits.extend(eve_bit.tolist())
        return eve_basis, eve_bit

