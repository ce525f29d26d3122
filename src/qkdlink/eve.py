"""Intercept-resend eavesdropper emulation.

Eve measures each intercepted pulse in a uniformly random basis and
re-prepares it in that basis with her outcome, preserving the photon-number
draw (the emulation alters the encoding, not the intensity).  Against a
sifted BB84 key this induces a 25% error rate.
"""

from __future__ import annotations

import numpy as np


class Eavesdropper:
    """Per-burst intercept-resend transform over pulse arrays.

    ``fraction`` < 1 intercepts a random subset; the induced QBER scales
    linearly with it.  ``intercepted`` counts the pulses measured so far.
    """

    def __init__(self, rng: np.random.Generator, fraction: float = 1.0):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("interception fraction must be in [0, 1]")
        self.rng = rng
        self.fraction = fraction
        self.intercepted = 0

    def transform(self, bases: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return the re-prepared (bases, bits); photon counts are left as they are."""
        n = len(bases)
        eve_basis = self.rng.integers(0, 2, n, dtype=np.uint8)
        guess = self.rng.integers(0, 2, n, dtype=np.uint8)
        eve_bit = np.where(eve_basis == bases, bits, guess).astype(np.uint8)
        if self.fraction < 1.0:
            hit = self.rng.random(n) < self.fraction
            eve_basis = np.where(hit, eve_basis, bases).astype(np.uint8)
            eve_bit = np.where(hit, eve_bit, bits).astype(np.uint8)
            self.intercepted += int(np.count_nonzero(hit))
        else:
            self.intercepted += n
        return eve_basis, eve_bit

