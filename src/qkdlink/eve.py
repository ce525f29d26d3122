"""Intercept-resend eavesdropper emulation.

Eve measures each intercepted pulse in a uniformly random basis and
re-prepares it in that basis with her outcome, preserving the photon-number
draw (the emulation alters the encoding, not the intensity).  Against a
sifted BB84 key this induces a 25% error rate.  Because the photon number is
kept, a pulse none of whose photons reaches the receiver leaves no trace, so
only the pulses with a detected photon are measured.

On a burst of at least ``DRAW_CHUNK`` detected photons,
:func:`~qkdlink.photonics.detector_entries` runs :meth:`Eavesdropper.intercept`
on a worker thread while it makes the channel draws.  Eve draws from her own
stream, so the threads' interleaving changes no draw, and beside her
per-pulse draws and the photons' states she makes only chunk-sized arrays.
"""

from __future__ import annotations

import numpy as np

from . import photonics


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

    def transform(self, bases: np.ndarray,
                  bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the re-prepared (bases, bits) and ``hit``; photon counts are left as they are.

        ``hit`` flags the pulses that were intercepted (a read-only view when
        ``fraction`` is 1).  Eve's basis and her guessed bit are drawn for
        every pulse, then, when ``fraction`` < 1, her interception draws
        ``DRAW_CHUNK`` at a time.
        """
        n = len(bases)
        eve_basis = self.rng.integers(0, 2, n, dtype=np.uint8)
        eve_bit = self.rng.integers(0, 2, n, dtype=np.uint8)  # her guess
        partial = self.fraction < 1.0
        hit = np.empty(n, dtype=bool) if partial else np.broadcast_to(True, n)
        chunk = photonics.DRAW_CHUNK
        for i in range(0, n, chunk):
            s = slice(i, i + chunk)
            # measured in the pulse's own basis, she reads the pulse's bit
            _blend(eve_bit[s], bits[s], eve_basis[s] == bases[s])
            if partial:
                hit_s = hit[s]
                np.less(self.rng.random(len(hit_s)), self.fraction, out=hit_s)
                miss = ~hit_s  # a pulse she lets pass keeps its state
                _blend(eve_basis[s], bases[s], miss)
                _blend(eve_bit[s], bits[s], miss)
        return eve_basis, eve_bit, hit

    def intercept(self, tx, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (basis, bit) each detected photon carries after Eve.

        ``src`` is the pulse index in ``tx`` of every detected photon,
        ascending.  Each distinct pulse, one run of ``src``, is transformed
        once, and its one re-prepared ``basis << 1 | bit`` state goes to all
        of its photons.  ``src`` is read ``DRAW_CHUNK`` photons at a time, so
        beside the per-pulse states and the output only chunks are made.
        """
        n = sum(np.count_nonzero(new) for _, new in _runs(src))
        alice_bases = np.empty(n, dtype=np.uint8)
        alice_bits = np.empty(n, dtype=np.uint8)
        j = 0
        for part, new in _runs(src):
            pulses = part[new]
            k = j + len(pulses)
            alice_bases[j:k], alice_bits[j:k] = tx.at(pulses)
            j = k
        state, bits, hit = self.transform(alice_bases, alice_bits)
        del alice_bases, alice_bits
        if self.log is not None:
            pulses = np.concatenate([src[:0], *(part[new] for part, new in _runs(src))])
            self.log.append((pulses[hit], state[hit], bits[hit]))
            del pulses
        state <<= 1
        state |= bits
        del bits
        photon = np.empty(len(src), dtype=np.uint8)
        run = np.empty(min(len(src), photonics.DRAW_CHUNK), dtype=np.intp)
        i, last = 0, -1  # the run of the photon before the chunk
        for part, new in _runs(src):
            r = run[:len(part)]
            np.cumsum(new, out=r)
            r += last
            last = r[-1]
            state.take(r, out=photon[i:i + len(r)])
            i += len(r)
        bits = photon & 1
        photon >>= 1
        return photon, bits


def _runs(src: np.ndarray):
    """``(part, new)`` for each ``DRAW_CHUNK`` photons of the ascending
    ``src``: the chunk, and where in it a run of one pulse's photons starts
    (a buffer the next chunk reuses)."""
    chunk = photonics.DRAW_CHUNK
    new = np.empty(min(len(src), chunk), dtype=bool)
    for i in range(0, len(src), chunk):
        part = src[i:i + chunk]
        starts = new[:len(part)]
        starts[0] = i == 0 or part[0] != src[i - 1]
        np.not_equal(part[1:], part[:-1], out=starts[1:])
        yield part, starts


def _blend(out: np.ndarray, new: np.ndarray, mask: np.ndarray) -> None:
    """``out[mask] = new[mask]`` as arithmetic: a masked copy branches per element."""
    diff = new ^ out
    diff &= mask
    out ^= diff
