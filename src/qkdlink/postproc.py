"""Classical key distillation, one function per protocol step.

Each step is a pure function of local arrays plus what the peer disclosed,
so both terminals of :mod:`qkdlink.session` call the same code:

* sifting: :func:`sift_mask` keeps the positions where the bases agree;
* QBER check: :func:`qber_sample_indices` draws the disclosed sample,
  :func:`sample_qber` compares it, :func:`without` strips it from the key and
  :func:`check_abort` is true strictly above ``QBER_ABORT_THRESHOLD``;
* Winnow: per pass, :func:`winnow_pass` (both sides) lays the key out anew
  and computes block parities, :func:`mismatched_blocks` compares them,
  :func:`winnow_syndromes` (Alice) answers with the mismatched blocks'
  syndromes and :func:`winnow_repair` (Bob) flips the bit each syndrome
  difference points at; :func:`key_hash` then verifies the result;
* privacy amplification: :func:`amplify_with_carry` hashes every whole
  16-bit block, carrying the leftover bits into the next burst.

Error correction is an 8-bit-block Winnow: each pass applies a shared random
layout (an order of the key's 8-bit blocks and a rotation of each, read out
column by column, so that with 8 or more blocks no two bits of one block
share a block after it), exchanges one parity bit per block, and repairs
parity-mismatched blocks with a 3-bit Hamming syndrome that locates any
single error (syndrome zero with odd parity means the eighth bit).  Passes
repeat until one completes with no parity mismatches, up to four.  Disclosed
bits (parities, syndromes, the final 64-bit verification hash) are counted
and reported; the fixed 16->11 Toeplitz compression provides the privacy
margin, so the corrected key itself is not shortened further.
:func:`winnow_correct` is the in-memory driver of the same pass functions,
holding both keys at once.
"""

from __future__ import annotations

import bisect
import hashlib
import threading

import numpy as np

WINNOW_BLOCK = 8
WINNOW_MAX_PASSES = 4
SYNDROME_BITS = 3
PA_IN_BITS = 16
PA_OUT_BITS = 11
PA_SEED_BITS = PA_IN_BITS + PA_OUT_BITS - 1  # 26
QBER_ABORT_THRESHOLD = 0.11
KEY_HASH_BITS = 64


# --- sifting and QBER estimate ---------------------------------------------------


def sift_mask(bases: np.ndarray, peer_bases: np.ndarray) -> np.ndarray:
    """Positions where both terminals chose the same basis."""
    if len(bases) != len(peer_bases):
        raise ValueError(f"basis lists differ in length: {len(bases)} vs {len(peer_bases)}")
    return np.asarray(bases) == np.asarray(peer_bases)


def qber_sample_indices(n_sift: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted positions of the disclosed QBER sample, drawn without replacement.

    The sample holds ``round(fraction * n_sift)`` positions, at least one and
    at most the whole key.
    """
    n_sample = min(n_sift, max(1, int(round(n_sift * fraction))))
    return np.sort(rng.choice(n_sift, size=n_sample, replace=False)).astype(np.int64)


def sample_qber(bits: np.ndarray, sample_idx: np.ndarray, peer_sample: np.ndarray) -> float:
    """Mismatch fraction on the sample; 0.5 (no correlation shown) for an empty one."""
    if len(sample_idx) == 0:
        return 0.5
    return float(np.mean(bits[sample_idx] != peer_sample))


def without(bits: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``bits`` with the positions ``idx`` removed, order preserved."""
    keep = np.ones(len(bits), dtype=bool)
    keep[idx] = False
    return bits[keep]


def check_abort(qber: float) -> bool:
    """Abort strictly above ``QBER_ABORT_THRESHOLD``; the boundary itself continues."""
    return qber > QBER_ABORT_THRESHOLD


# --- Winnow -----------------------------------------------------------------

_SYNDROME_WEIGHTS = np.arange(1, WINNOW_BLOCK, dtype=np.int64)  # positions 1..7
# row v: the bits of byte value v, most significant first, as np.packbits orders them
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_BYTE_PARITY = (_BYTE_BITS.sum(axis=1) & 1).astype(np.uint8)


def block_parities(bits: np.ndarray) -> np.ndarray:
    """Per-block parity of an 8-aligned bit array: each block packs into one byte."""
    return _BYTE_PARITY[np.packbits(bits)]


def block_syndromes(blocks: np.ndarray) -> np.ndarray:
    """Hamming syndrome over the first 7 bits of each block (0 means bit 8)."""
    return np.bitwise_xor.reduce(blocks[:, : WINNOW_BLOCK - 1] * _SYNDROME_WEIGHTS, axis=1)


def syndrome_error_positions(syndrome_diff: np.ndarray) -> np.ndarray:
    """In-block index of the single error a syndrome difference points at."""
    return np.where(syndrome_diff == 0, WINNOW_BLOCK - 1, syndrome_diff - 1)


def permutation_for_pass(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A pass's layout of an ``n``-bit key, which both sides derive from one disclosed
    64-bit seed: (order of the ``n // 8`` key blocks, left rotation of each block).

    The layout is a bijection of the key's bits (see :func:`winnow_pass`).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    r = n // WINNOW_BLOCK
    return rng.permutation(r), rng.integers(0, WINNOW_BLOCK, r, dtype=np.uint8)


def winnow_key(bits: np.ndarray) -> np.ndarray:
    """A fresh uint8 copy of ``bits`` truncated to a multiple of the block size."""
    return np.array(bits[: len(bits) - len(bits) % WINNOW_BLOCK], dtype=np.uint8)


def draw_perm_seed(rng: np.random.Generator) -> int:
    """The next pass's layout seed, disclosed by Alice."""
    return int(rng.integers(0, 2**63))


def winnow_pass(key: np.ndarray, perm_seed: int,
                ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Both sides: (layout, permuted key, its block parities) for one pass.

    With R = ``len(key) // 8`` blocks, the permuted key takes the blocks in
    ``order``, rotates the r-th of them left by ``rot[r]`` and reads the result
    column by column: its position c*R + r holds bit c of that rotated block.
    """
    order, rot = layout = permutation_for_pass(perm_seed, len(key))
    blocks = np.packbits(key)[order]
    blocks = (blocks << rot) | (blocks >> (WINNOW_BLOCK - rot))
    permuted = np.unpackbits(blocks).reshape(-1, WINNOW_BLOCK).T.ravel()
    return layout, permuted, block_parities(permuted)


def mismatched_blocks(parities: np.ndarray, peer_parities: np.ndarray) -> np.ndarray:
    """Ascending indices of the blocks whose parities disagree."""
    return np.nonzero(parities != peer_parities)[0]


def winnow_syndromes(permuted: np.ndarray, mismatched: np.ndarray) -> np.ndarray:
    """Alice's side: the syndrome of each mismatched block of her permuted key."""
    return block_syndromes(permuted.reshape(-1, WINNOW_BLOCK)[mismatched])


def winnow_repair(key: np.ndarray, layout: tuple[np.ndarray, np.ndarray],
                  permuted: np.ndarray, mismatched: np.ndarray,
                  peer_syndromes: np.ndarray) -> None:
    """Bob's side: flip, in ``key`` itself, the bit each syndrome difference locates.

    Permuted position q is key bit ``8*order[q % R] + (q // R + rot[q % R]) % 8``.
    ``permuted`` is read for Bob's syndromes and left as it was.
    """
    order, rot = layout
    diff = winnow_syndromes(permuted, mismatched) ^ peer_syndromes
    col, row = np.divmod(mismatched * WINNOW_BLOCK + syndrome_error_positions(diff), len(order))
    key[WINNOW_BLOCK * order[row] + (col + rot[row]) % WINNOW_BLOCK] ^= 1


def winnow_disclosed(parities: np.ndarray, mismatched: np.ndarray) -> int:
    """Key bits one pass discloses: a parity per block, a syndrome per mismatch."""
    return len(parities) + SYNDROME_BITS * len(mismatched)


def winnow_correct(alice_key: np.ndarray, bob_key: np.ndarray,
                   rng: np.random.Generator,
                   max_passes: int = WINNOW_MAX_PASSES,
                   ) -> tuple[np.ndarray, int, int]:
    """Correct Bob's key toward Alice's; returns (corrected, disclosed_bits, passes).

    The in-memory driver of the pass functions the session runs over the
    wire.  Both keys are truncated to a multiple of the block size first.
    Iteration stops after a pass with zero mismatches or after
    ``max_passes``.  Residual errors, if any, are caught by the verification
    hash downstream.
    """
    if len(alice_key) != len(bob_key):
        raise ValueError("keys differ in length")
    alice = winnow_key(alice_key)
    bob = winnow_key(bob_key)
    disclosed = 0
    passes = 0
    if len(bob) == 0:
        return bob, 0, 0
    for _ in range(max_passes):
        passes += 1
        seed = draw_perm_seed(rng)
        _, a, alice_par = winnow_pass(alice, seed)
        layout, b, bob_par = winnow_pass(bob, seed)
        mismatched = mismatched_blocks(bob_par, alice_par)
        disclosed += winnow_disclosed(alice_par, mismatched)
        if len(mismatched) == 0:
            break
        winnow_repair(bob, layout, b, mismatched, winnow_syndromes(a, mismatched))
    return bob, disclosed, passes


# --- privacy amplification ---------------------------------------------------


def toeplitz_matrix(seed_bits: np.ndarray) -> np.ndarray:
    """The 11x16 GF(2) Toeplitz matrix defined by a 26-bit seed.

    Entry (i, j) is ``seed[10 + j - i]``: the first column reads the seed's
    first 11 bits bottom-to-top, the first row its last 16 bits left-to-right,
    sharing seed bit 10 at the corner.
    """
    seed = np.asarray(seed_bits, dtype=np.uint8)
    if len(seed) != PA_SEED_BITS:
        raise ValueError(f"Toeplitz seed must be {PA_SEED_BITS} bits, got {len(seed)}")
    idx = (PA_OUT_BITS - 1) + np.arange(PA_IN_BITS)[None, :] - np.arange(PA_OUT_BITS)[:, None]
    return seed[idx]


def privacy_amplify(key: np.ndarray, toeplitz_seed: np.ndarray) -> np.ndarray:
    """Compress each 16-bit block to 11 bits via the seeded Toeplitz hash.

    The hash is GF(2)-linear, so a block's 11 bits are the XOR of what its two
    bytes give alone; each byte's share is read from a 256-entry table, its
    11 bits the top bits of a 16-bit word.
    """
    key = np.asarray(key, dtype=np.uint8)
    if len(key) % PA_IN_BITS != 0:
        raise ValueError(f"key length must be a multiple of {PA_IN_BITS}, got {len(key)}")
    t = toeplitz_matrix(toeplitz_seed).astype(np.int64)
    high, low = (np.packbits((_BYTE_BITS @ half.T) & 1, axis=1).view(">u2").ravel()
                 for half in (t[:, :8], t[:, 8:]))
    blocks = np.packbits(key)
    out = (high[blocks[0::2]] ^ low[blocks[1::2]]).astype(">u2")
    return np.unpackbits(out.view(np.uint8)).reshape(-1, PA_IN_BITS)[:, :PA_OUT_BITS].ravel()


def amplify_with_carry(carry: np.ndarray, key: np.ndarray,
                       pa_seed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hash ``carry + key`` block by block; returns (secure bits, leftover carry).

    Bits short of a whole 16-bit block are carried into the next burst.
    """
    combined = np.concatenate([carry, key]) if len(carry) else key
    n16 = len(combined) - len(combined) % PA_IN_BITS
    return privacy_amplify(combined[:n16], pa_seed), combined[n16:].copy()


def key_hash(bits: np.ndarray) -> bytes:
    """64-bit verification digest of a bit string."""
    data = np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()
    return hashlib.sha256(len(bits).to_bytes(8, "big") + data).digest()[: KEY_HASH_BITS // 8]


# --- accumulated key ---------------------------------------------------------


class KeyExhausted(RuntimeError):
    """A take asked for more key than its lane holds."""


class KeyBuffer:
    """Append-only secure-key store with consume-once discipline.

    Bits are appended burst by burst and handed out exactly once, from one of
    two *lanes*: lane 0 owns the even 4 KiB pages of the buffer and lane 1
    the odd ones, so the two directions of a chat can never collide on key
    material.  A lane is just a count of the lane bits consumed so far; the
    absolute offset of its k-th bit is page arithmetic.  A take may span page
    boundaries and then issues one range per page.  Every issued range is
    recorded.  A lane issues ranges in increasing order inside its stripe, so
    one that starts below the end of its last (its *issued high-water mark*)
    overlaps issued key and raises.

    The key is stored packed, eight bits per byte in the MSB-first order of
    ``np.packbits``: read-only chunks of whole bytes, each starting on a byte
    boundary, and a tail of fewer than 8 bits that the next append completes.
    Takes hand out packed bytes.  A byte-aligned take inside one chunk is a
    read-only view of it, one across pages or chunks joins such views, and
    only a take that is not byte-aligned is unpacked and packed again.
    """

    PAGE_BITS = 4096 * 8

    def __init__(self):
        self._chunks: list[np.ndarray] = []
        self._chunk_starts: list[int] = []  # byte offset of each chunk
        self._tail = 0  # the last len(self) % 8 bits, in the high bits of a byte
        self._length = 0
        self._lock = threading.RLock()  # both chat lanes take from one buffer, on two threads
        self._lane_used = [0, 0]
        self._lane_high = [0, 0]  # absolute end of the last range each lane issued
        self.issued_ranges: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return self._length

    @property
    def consumed_total(self) -> int:
        return sum(self._lane_used)

    def append(self, bits: np.ndarray) -> None:
        bits = np.asarray(bits, dtype=np.uint8)
        with self._lock:
            k = min(-self._length % 8, len(bits))  # the bits that complete the tail's byte
            body = (len(bits) - k) // 8 * 8  # then whole bytes; the bits after them start a tail
            self._pack_onto_tail(bits[:k])
            if body:
                self._store(np.packbits(bits[k : k + body]))
                self._length += body
            self._pack_onto_tail(bits[k + body :])

    def _pack_onto_tail(self, bits: np.ndarray) -> None:
        """Pack bits onto the tail, at most those that complete its byte; store it once whole."""
        held = self._length % 8
        self._tail |= sum(0x80 >> (held + i) for i, bit in enumerate(bits.tolist()) if bit)
        if held + len(bits) == 8:
            self._store(np.array([self._tail], np.uint8))
            self._tail = 0
        self._length += len(bits)

    def _store(self, chunk: np.ndarray) -> None:
        """Keep packed bytes that start where the stored ones end."""
        chunk.flags.writeable = False  # takes hand out views of it
        self._chunks.append(chunk)
        self._chunk_starts.append(self._length // 8)

    def bits(self) -> np.ndarray:
        with self._lock:
            return np.unpackbits(np.frombuffer(self.to_bytes(), np.uint8), count=self._length)

    def to_bytes(self) -> bytes:
        """The key packed as by ``np.packbits``, its last byte padded with zero bits."""
        with self._lock:
            return b"".join(self._chunks) + (bytes([self._tail]) if self._length % 8 else b"")

    def _views(self, lo: int, hi: int) -> list[np.ndarray]:
        """Views of the stored bytes ``lo`` to ``hi``, then the tail's byte when ``hi``
        reaches it.  The first chunk is found by bisection."""
        pieces = []
        stored = min(hi, self._length // 8)
        i = bisect.bisect_right(self._chunk_starts, lo) - 1
        while lo < stored:
            chunk, chunk_start = self._chunks[i], self._chunk_starts[i]
            stop = min(stored, chunk_start + len(chunk))
            pieces.append(chunk[lo - chunk_start : stop - chunk_start])
            lo = stop
            i += 1
        if lo < hi:
            pieces.append(np.array([self._tail], np.uint8))
        return pieces

    def _read(self, ranges: list[tuple[int, int]]) -> np.ndarray:
        """The buffered bits of ``ranges`` in order, packed: a view when they are one
        byte-aligned range inside one chunk, else one joined or repacked copy."""
        if all(a % 8 == 0 and b % 8 == 0 for a, b in ranges):
            pieces = [v for a, b in ranges for v in self._views(a // 8, b // 8)]
            if len(pieces) == 1:
                return pieces[0]
            return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.uint8)
        bits = [np.unpackbits(np.concatenate(self._views(a // 8, -(-b // 8))))[a % 8 :][: b - a]
                for a, b in ranges]
        return np.packbits(np.concatenate(bits))

    def _lane_offset(self, lane: int, k: int) -> int:
        """Absolute offset of the lane's k-th bit."""
        page_no, within = divmod(k, self.PAGE_BITS)
        return (2 * page_no + lane) * self.PAGE_BITS + within

    def next_range_start(self, lane: int = 0) -> int:
        """Absolute bit offset the next take on this lane will start at."""
        with self._lock:
            return self._lane_offset(lane, self._lane_used[lane])

    def available(self, lane: int = 0) -> int:
        """Buffered lane bits not yet consumed."""
        page = self.PAGE_BITS
        with self._lock:
            cycles, rest = divmod(self._length, 2 * page)
            buffered = cycles * page + min(max(rest - lane * page, 0), page)
            return buffered - self._lane_used[lane]

    def take(self, nbits: int, lane: int = 0) -> tuple[list[tuple[int, int]], np.ndarray]:
        """Consume ``nbits`` from a lane, or raise :class:`KeyExhausted` if it holds fewer.

        Returns the absolute bit ranges consumed (one per page spanned) and
        the bits themselves, packed into ``ceil(nbits / 8)`` bytes whose last
        is padded with zero bits.  A refused take, too large or negative
        (``ValueError``), changes nothing; ``take(0)`` returns no range and
        no bytes.
        """
        if nbits < 0:
            raise ValueError(f"cannot take a negative number of bits: {nbits}")
        with self._lock:
            if (have := self.available(lane)) < nbits:
                raise KeyExhausted(f"key buffer exhausted: need {nbits} bits, lane has {have}")
            k = self._lane_used[lane]
            end = k + nbits
            ranges = []
            while k < end:
                page_stop = min(end, (k // self.PAGE_BITS + 1) * self.PAGE_BITS)
                start = self._lane_offset(lane, k)
                ranges.append((start, start + page_stop - k))
                k = page_stop
            if ranges:  # checked before anything is recorded
                if (start := ranges[0][0]) < (high := self._lane_high[lane]):
                    raise RuntimeError(f"key range from {start} overlaps issued key below {high}")
                self._lane_high[lane] = ranges[-1][1]
            self.issued_ranges.extend(ranges)
            self._lane_used[lane] = end
            return ranges, self._read(ranges)

    def peek(self, nbits: int) -> np.ndarray:
        """The first ``nbits`` buffered bits, packed as :meth:`take` packs them, not
        consumed; only for the chat parity."""
        with self._lock:
            if nbits > self._length:
                raise ValueError("peek beyond buffered key")
            return self._read([(0, nbits)])
