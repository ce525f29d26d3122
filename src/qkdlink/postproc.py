"""Classical key distillation, one implementation per protocol step.

Each step works, free of I/O, on local arrays plus what the peer disclosed,
so both terminals of :mod:`qkdlink.session` call the same code:

* sifting: :func:`sift_mask` keeps the positions where the bases agree;
* QBER check: :func:`qber_sample_indices` draws the disclosed sample,
  :func:`sample_qber` compares it (each terminal then deletes it from its key)
  and :func:`check_abort` is true strictly above ``QBER_ABORT_THRESHOLD``;
* Winnow: :class:`WinnowAlice` and :class:`WinnowBob` are its two I/O-free
  steps.  Per pass Alice's gives a layout seed and her block parities
  (:func:`winnow_pass`), Bob's the blocks whose parities differ, Alice's
  their syndromes, and Bob's flips the bit each syndrome difference points
  at; :func:`key_hash` then verifies the result;
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
and reported, but nothing is subtracted for them: the fixed 16->11 Toeplitz
length is not derived from what was disclosed (~248 K bits of a default
1-s burst, against ~296 K output bits), so the output is not a proven
secure length.
:func:`winnow_correct` pumps the same two steps in memory, holding both keys at once.
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


class _WinnowStep:
    """One side of Winnow, free of I/O: its key, a fresh uint8 copy cut to whole
    blocks, and the pass count, disclosed bits and stop rule both sides share:
    passes run until one has no mismatch, or ``max_passes``."""

    def __init__(self, key: np.ndarray, max_passes: int = WINNOW_MAX_PASSES):
        self.key = np.array(key[: len(key) - len(key) % WINNOW_BLOCK], dtype=np.uint8)
        self.blocks = len(self.key) // WINNOW_BLOCK
        self.max_passes = max_passes
        self.passes = self.disclosed_bits = 0
        self.done = False

    def _end_pass(self, mismatched: np.ndarray) -> None:
        """Count a parity per block and a syndrome per mismatch; apply the stop rule."""
        self.passes += 1
        self.disclosed_bits += self.blocks + SYNDROME_BITS * len(mismatched)
        self.done = len(mismatched) == 0 or self.passes == self.max_passes


class WinnowAlice(_WinnowStep):
    """Alice's side of Winnow: her key and the stream the layout seeds come from."""

    def __init__(self, key: np.ndarray, rng: np.random.Generator,
                 max_passes: int = WINNOW_MAX_PASSES):
        super().__init__(key, max_passes)
        self._rng = rng

    def parities(self) -> tuple[int, int, np.ndarray]:
        """The next pass: (its number, its layout seed, her block parities)."""
        perm_seed = int(self._rng.integers(0, 2**63))
        _, permuted, parities = winnow_pass(self.key, perm_seed)
        self._blocks = permuted.reshape(-1, WINNOW_BLOCK)
        return self.passes, perm_seed, parities

    def syndromes(self, mismatched: np.ndarray) -> np.ndarray | None:
        """Given Bob's mismatched blocks, their syndromes; None after a pass with none."""
        self._end_pass(mismatched)
        return block_syndromes(self._blocks[mismatched]) if len(mismatched) else None


class WinnowBob(_WinnowStep):
    """Bob's side of Winnow: his key, which :meth:`repair` corrects in place."""

    def mismatched(self, perm_seed: int, peer_parities: np.ndarray) -> np.ndarray:
        """Given Alice's pass, the ascending indices of the blocks whose parities differ."""
        self._layout, permuted, parities = winnow_pass(self.key, perm_seed)
        self._blocks = permuted.reshape(-1, WINNOW_BLOCK)
        self._mismatched = np.nonzero(parities != peer_parities)[0]
        self._end_pass(self._mismatched)
        return self._mismatched

    def repair(self, peer_syndromes: np.ndarray) -> None:
        """Given Alice's syndromes, flip in the key the bit each syndrome difference
        locates; permuted position q is key bit ``8*order[q % R] + (q // R + rot[q % R]) % 8``."""
        order, rot = self._layout
        diff = block_syndromes(self._blocks[self._mismatched]) ^ peer_syndromes
        col, row = np.divmod(self._mismatched * WINNOW_BLOCK + syndrome_error_positions(diff),
                             self.blocks)
        self.key[WINNOW_BLOCK * order[row] + (col + rot[row]) % WINNOW_BLOCK] ^= 1


def winnow_correct(alice_key: np.ndarray, bob_key: np.ndarray,
                   rng: np.random.Generator,
                   max_passes: int = WINNOW_MAX_PASSES,
                   ) -> tuple[np.ndarray, int, int]:
    """Correct Bob's key toward Alice's; returns (corrected, disclosed_bits, passes).

    Pumps, in memory, the two steps the terminals run over the wire.  Both
    keys are truncated to a multiple of the block size first.  Residual
    errors, if any, are caught by the verification hash downstream.
    """
    if len(alice_key) != len(bob_key):
        raise ValueError("keys differ in length")
    alice, bob = WinnowAlice(alice_key, rng, max_passes), WinnowBob(bob_key, max_passes)
    while not bob.done:
        _, perm_seed, parities = alice.parities()
        if (syndromes := alice.syndromes(bob.mismatched(perm_seed, parities))) is not None:
            bob.repair(syndromes)
    return bob.key, bob.disclosed_bits, bob.passes


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
    ``np.packbits``, and lane by lane: each append copies the bytes it makes
    whole onto their lanes, one read-only chunk per lane holding that lane's
    pages of the append back to back, and keeps the last ``len % 8`` bits in
    a tail byte that the next append completes.  A take is a whole number of
    bytes read from one lane's chunks: inside one chunk it is a read-only view
    of it, whatever pages it spans, and only a take that crosses an append
    boundary joins views into a copy.  :meth:`to_bytes` interleaves the pages
    back into key order.
    """

    PAGE_BITS = 4096 * 8

    def __init__(self):
        self._lanes: tuple[list[np.ndarray], list[np.ndarray]] = ([], [])
        self._lane_starts: tuple[list[int], list[int]] = ([], [])  # lane byte of each chunk
        self._tail = 0  # the last len(self) % 8 bits, in the high bits of a byte
        self._length = 0
        self._lock = threading.Lock()  # both chat lanes take from one buffer, on two threads
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
            start = self._length // 8  # the first byte this append makes whole
            whole = (self._pack_onto_tail(bits[:k]), np.packbits(bits[k : k + body]))
            self._length += body
            self._store(start, whole)
            self._pack_onto_tail(bits[k + body :])

    def _pack_onto_tail(self, bits: np.ndarray) -> np.ndarray:
        """Pack bits onto the tail, at most those that complete its byte; returns the
        byte once whole, else no bytes."""
        held = self._length % 8
        self._tail |= sum(0x80 >> (held + i) for i, bit in enumerate(bits.tolist()) if bit)
        self._length += len(bits)
        if held + len(bits) < 8:
            return np.empty(0, np.uint8)
        whole, self._tail = np.array([self._tail], np.uint8), 0
        return whole

    def _store(self, start: int, pieces: tuple[np.ndarray, ...]) -> None:
        """Copy packed bytes, consecutive from absolute byte ``start``, onto their lanes."""
        page = self.PAGE_BITS // 8
        parts: tuple[list, list] = ([], [])
        for piece in pieces:
            for p in range(start // page, -(-(start + len(piece)) // page)):
                parts[p % 2].append(piece[max(p * page - start, 0) : (p + 1) * page - start])
            start += len(piece)
        for chunks, starts, part in zip(self._lanes, self._lane_starts, parts):
            if part and len(chunk := np.concatenate(part)):  # one copy, the lane's pages joined
                chunk.flags.writeable = False  # takes hand out views of it
                starts.append(starts[-1] + len(chunks[-1]) if chunks else 0)
                chunks.append(chunk)

    def to_bytes(self) -> bytes:
        """The key packed as by ``np.packbits``, its last byte padded with zero bits."""
        page = self.PAGE_BITS // 8
        with self._lock:
            lanes = [np.concatenate(chunks).data if chunks else b"" for chunks in self._lanes]
            pages = [lanes[p % 2][p // 2 * page : (p // 2 + 1) * page]
                     for p in range(-(-(self._length // 8) // page))]
            if self._length % 8:
                pages.append(bytes([self._tail]))
            return b"".join(pages)

    def _read(self, lane: int, lo: int, hi: int) -> np.ndarray:
        """Bytes ``lo`` to ``hi`` of a lane: a view when they lie in one chunk, else one
        joined copy; the first chunk is found by bisection."""
        if lo == hi:
            return np.empty(0, np.uint8)
        chunks, starts = self._lanes[lane], self._lane_starts[lane]
        i = bisect.bisect_right(starts, lo) - 1
        if hi <= (at := starts[i]) + len(chunks[i]):
            return chunks[i][lo - at : hi - at]
        pieces = []
        while lo < hi:
            chunk, at = chunks[i], starts[i]
            stop = min(hi, at + len(chunk))
            pieces.append(chunk[lo - at : stop - at])
            lo, i = stop, i + 1
        return np.concatenate(pieces)

    def _lane_offset(self, lane: int, k: int) -> int:
        """Absolute offset of the lane's k-th bit: lane page p is page 2p + lane."""
        return k + (k // self.PAGE_BITS + lane) * self.PAGE_BITS

    def _lane_length(self, lane: int) -> int:
        """Bits of the lane's stripe appended so far, consumed or not."""
        page = self.PAGE_BITS
        cycles, rest = divmod(self._length, 2 * page)
        return cycles * page + min(max(rest - lane * page, 0), page)

    def next_range_start(self, lane: int = 0) -> int:
        """Absolute bit offset the next take on this lane will start at."""
        with self._lock:
            return self._lane_offset(lane, self._lane_used[lane])

    def available(self, lane: int = 0) -> int:
        """Buffered lane bits not yet consumed."""
        with self._lock:
            return self._lane_length(lane) - self._lane_used[lane]

    def take(self, nbits: int, lane: int = 0) -> np.ndarray:
        """Consume ``nbits`` from a lane, or raise :class:`KeyExhausted` if it holds fewer.

        Returns the key, packed into ``nbits / 8`` bytes; the absolute bit
        ranges consumed, one per page spanned, go to ``issued_ranges``.  A
        count that is negative or not a whole number of bytes raises
        ``ValueError``.  A refused take changes nothing; ``take(0)`` returns
        no bytes and issues no range.
        """
        if nbits < 0 or nbits % 8:
            raise ValueError(f"cannot take {nbits} bits: a take is a non-negative whole number "
                             "of bytes")
        page = self.PAGE_BITS
        with self._lock:
            begin = k = self._lane_used[lane]
            if (have := self._lane_length(lane) - k) < nbits:
                raise KeyExhausted(f"key buffer exhausted: need {nbits} bits, lane has {have}")
            end = k + nbits
            ranges = []
            while k < end:  # one range per lane page; lane page p is page 2p + lane
                p = k // page
                stop = min(end, (p + 1) * page)
                ranges.append((k + (p + lane) * page, stop + (p + lane) * page))
                k = stop
            if ranges:  # checked before anything is recorded
                if (start := ranges[0][0]) < (high := self._lane_high[lane]):
                    raise RuntimeError(f"key range from {start} overlaps issued key below {high}")
                self._lane_high[lane] = ranges[-1][1]
            self.issued_ranges.extend(ranges)
            self._lane_used[lane] = end
            return self._read(lane, begin // 8, end // 8)
