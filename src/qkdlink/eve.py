"""Intercept-resend eavesdropper emulation.

Eve measures each intercepted pulse in a uniformly random basis and
re-prepares it in that basis with her outcome, preserving the photon-number
draw (the emulation alters the encoding, not the intensity).  Against a
sifted BB84 key this induces a 25% error rate.  Because the photon number is
kept, a pulse none of whose photons reaches the receiver leaves no trace, so
only the pulses with a detected photon are measured.
"""

from __future__ import annotations

import numpy as np


class Eavesdropper:
    """Per-burst intercept-resend transform over pulse arrays.

    ``fraction`` < 1 intercepts a random subset; the induced QBER scales
    linearly with it.  When ``log`` is a list, :meth:`intercept` appends to
    it the pulse index, basis and bit of every pulse it intercepted, as three
    arrays.
    """

    def __init__(self, rng: np.random.Generator, fraction: float = 1.0,
                 log: list | None = None):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("interception fraction must be in [0, 1]")
        self.rng = rng
        self.fraction = fraction
        self.log = log
        self.hit = np.empty(0, dtype=bool)

    def transform(self, bases: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return the re-prepared (bases, bits); photon counts are left as they are.

        ``hit`` flags the pulses of this call that were intercepted.
        """
        n = len(bases)
        eve_basis = self.rng.integers(0, 2, n, dtype=np.uint8)
        guess = self.rng.integers(0, 2, n, dtype=np.uint8)
        eve_bit = np.where(eve_basis == bases, bits, guess).astype(np.uint8)
        if self.fraction < 1.0:
            self.hit = self.rng.random(n) < self.fraction
            eve_basis = np.where(self.hit, eve_basis, bases).astype(np.uint8)
            eve_bit = np.where(self.hit, eve_bit, bits).astype(np.uint8)
        else:
            self.hit = np.ones(n, dtype=bool)
        return eve_basis, eve_bit

    def intercept(self, tx, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (basis, bit) each detected photon carries after Eve.

        ``src`` is the pulse index in ``tx`` of every detected photon,
        ascending.  Each distinct pulse, one run of ``src``, is transformed
        once, and all of its photons carry that one re-prepared state.
        """
        new = np.empty(len(src), dtype=bool)  # where a run of src starts
        new[:1] = True
        np.not_equal(src[1:], src[:-1], out=new[1:])
        pulses = src[new]
        bases, bits = self.transform(*tx.at(pulses))
        if self.log is not None:
            self.log.append((pulses[self.hit], bases[self.hit], bits[self.hit]))
        run = np.cumsum(new, dtype=np.int32)
        run -= 1
        return bases[run], bits[run]
