import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlink.core import rng_stream
from qkdlink.postproc import (
    PA_IN_BITS,
    PA_OUT_BITS,
    PA_SEED_BITS,
    KeyBuffer,
    KeyExhausted,
    WinnowAlice,
    WinnowBob,
    amplify_with_carry,
    block_parities,
    check_abort,
    key_hash,
    permutation_for_pass,
    privacy_amplify,
    qber_sample_indices,
    sample_qber,
    sift_mask,
    toeplitz_matrix,
    winnow_correct,
    winnow_pass,
    without,
)


def _bits(rng, n):
    return rng.integers(0, 2, n, dtype=np.uint8)


def _sample_qber(alice, bob, fraction, rng):
    """The QBER check as the two terminals run it: Alice samples, Bob compares."""
    idx = qber_sample_indices(len(alice), fraction, rng)
    return sample_qber(bob, idx, alice[idx]), idx


# --- sifting ------------------------------------------------------------------


def test_sift_all_bases_equal_is_identity():
    rng = rng_stream(1, "t")
    bits = _bits(rng, 500)
    mask = sift_mask(np.zeros(500, np.uint8), np.zeros(500, np.uint8))
    assert mask.all()
    assert np.array_equal(bits[mask], bits)


def test_sift_kept_fraction_binomial():
    rng = rng_stream(2, "t")
    n = 100_000
    kept = int(np.count_nonzero(sift_mask(_bits(rng, n), _bits(rng, n))))
    sigma = np.sqrt(n * 0.25)
    assert abs(kept - n / 2) < 3 * sigma


def test_sift_length_mismatch_rejected():
    with pytest.raises(ValueError):
        sift_mask(np.zeros(2, np.uint8), np.zeros(3, np.uint8))


# --- QBER estimate --------------------------------------------------------------


def test_estimate_qber_identical_keys():
    rng = rng_stream(3, "t")
    bits = _bits(rng, 2000)
    q, idx = _sample_qber(bits, bits.copy(), 0.05, rng)
    assert q == 0.0
    assert len(without(bits, idx)) == 2000 - 100


def test_estimate_qber_planted_errors():
    rng = rng_stream(4, "t")
    a = _bits(rng, 40_000)
    b = a.copy()
    flip = rng.choice(40_000, size=1200, replace=False)  # 3% plant
    b[flip] ^= 1
    q, _ = _sample_qber(a, b, 0.05, rng)
    assert q == pytest.approx(0.03, abs=0.01)


def test_estimate_qber_sample_removed_from_both():
    rng = rng_stream(5, "t")
    a = _bits(rng, 1000)
    b = a.copy()
    b[::7] ^= 1
    _, idx = _sample_qber(a, b, 0.1, rng)
    assert len(idx) == 100 and np.all(np.diff(idx) > 0)
    kept = np.setdiff1d(np.arange(1000), idx)
    rest_a, rest_b = without(a, idx), without(b, idx)
    assert len(rest_a) == len(rest_b) == 900
    assert np.array_equal(rest_a, a[kept]) and np.array_equal(rest_b, b[kept])


def test_estimate_qber_too_short_rejected():
    # a 5-bit key still discloses one bit; an empty key shows no correlation and aborts
    rng = rng_stream(6, "t")
    assert len(qber_sample_indices(5, 0.05, rng)) == 1
    assert len(qber_sample_indices(1, 0.05, rng)) == 1
    empty = qber_sample_indices(0, 0.05, rng)
    q = sample_qber(np.zeros(0, np.uint8), empty, np.zeros(0, np.uint8))
    assert len(empty) == 0 and q == 0.5
    assert check_abort(q)


def test_check_abort_thresholds():
    assert not check_abort(0.026)
    assert check_abort(0.25)
    assert not check_abort(0.11)  # strict inequality
    assert check_abort(0.1101)


# --- Winnow -----------------------------------------------------------------------


def test_winnow_identical_inputs_unchanged_payload():
    rng = rng_stream(7, "t")
    key = _bits(rng, 1024)
    corrected, disclosed, passes = winnow_correct(key, key.copy(), rng_stream(7, "w"))
    assert np.array_equal(corrected, key)
    assert disclosed == 1024 // 8  # one parity bit per block, one pass
    assert passes == 1


@pytest.mark.parametrize("pos", range(8))
def test_winnow_corrects_every_single_error_position(pos):
    # exhaustive over the block, and over a key of 65 blocks that the layout mixes:
    # any one flipped bit is repaired in one pass
    for n in (8, 520):
        rng = rng_stream(8, "t")
        alice = _bits(rng, n)
        for p in range(pos, n, 8):
            bob = alice.copy()
            bob[p] ^= 1
            corrected, _, _ = winnow_correct(alice, bob, rng_stream(8, "w"), max_passes=1)
            assert np.array_equal(corrected, alice)


def test_winnow_double_errors_invisible_to_parity():
    # every two-error pattern in a block keeps its parity: exhaustive C(8,2)
    base = np.zeros(8, dtype=np.uint8)
    for i in range(8):
        for j in range(i + 1, 8):
            damaged = base.copy()
            damaged[i] ^= 1
            damaged[j] ^= 1
            assert block_parities(damaged) == block_parities(base)


def test_block_parities_of_every_byte():
    blocks = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    got = block_parities(blocks.ravel())
    assert np.array_equal(got, blocks.sum(axis=1) % 2)


def test_winnow_double_error_fixed_after_reshuffle():
    # two errors of different key blocks that share parity block 0 of pass 1 hide
    # there; a third, in parity block 1, keeps pass 1 from being the last
    rng = rng_stream(9, "t")
    alice = _bits(rng, 512)
    _, first_seed, alice_par = WinnowAlice(alice, rng_stream(9, "w")).parities()
    source = _pass_sources(512, first_seed)
    hidden = source[:2]
    assert hidden[0] // 8 != hidden[1] // 8
    bob = alice.copy()
    bob[hidden] ^= 1
    bob[source[8]] ^= 1
    assert WinnowBob(bob).mismatched(first_seed, alice_par).tolist() == [1]
    corrected, _, passes = winnow_correct(alice, bob, rng_stream(9, "w"))
    assert np.array_equal(corrected, alice)
    assert passes >= 3  # a later pass repairs the pair, and one more sees no mismatch


def test_winnow_many_random_keys_converge():
    failures = 0
    for trial in range(100):
        rng = rng_stream(trial, "keys")
        alice = _bits(rng, 2**14)
        bob = alice.copy()
        flips = rng.random(2**14) < 0.03
        bob[flips] ^= 1
        corrected, _, passes = winnow_correct(alice, bob, rng_stream(trial, "w"))
        if not np.array_equal(corrected, alice):
            failures += 1
        assert passes <= 4
    assert failures == 0


def _pass_sources(n, seed):
    """Key index behind each permuted position, read off ``winnow_pass`` itself:
    pass j lays out bit j of every key index."""
    idx = np.arange(n)
    planes = (winnow_pass(((idx >> j) & 1).astype(np.uint8), seed)[1]
              for j in range(n.bit_length()))
    return sum(plane.astype(np.int64) << j for j, plane in enumerate(planes))


@pytest.mark.parametrize("n", [8, 24, 64, 520, 4096])
def test_winnow_layout_is_the_documented_bijection(n):
    # permuted position q holds key bit 8*order[q % R] + (q // R + rot[q % R]) % 8
    q = np.arange(n)
    r = n // 8
    for seed in range(5):
        order, rot = permutation_for_pass(seed, n)
        source = 8 * order[q % r] + (q // r + rot[q % r]) % 8
        assert np.array_equal(np.sort(source), q)
        assert np.array_equal(_pass_sources(n, seed), source)


@pytest.mark.parametrize("n", [64, 520, 4096, 2**14 + 8])
def test_winnow_layout_splits_every_key_block(n):
    # with 8 or more blocks, two bits of one key block never share a permuted block
    for seed in range(5):
        key_block = _pass_sources(n, seed).reshape(-1, 8) // 8
        assert all(len(set(row)) == 8 for row in key_block.tolist())


def _error_pattern(kind, n, rng):
    """Error positions of one key: iid at a rate, every p-th bit, or runs of k at 3%."""
    if kind[0] == "iid":
        return rng.random(n) < kind[1]
    if kind[0] == "every":
        return np.arange(n) % kind[1] == 0
    starts = np.flatnonzero(rng.random(n) < 0.03 / kind[1])
    flips = np.zeros(n + kind[1], dtype=bool)
    for k in range(kind[1]):
        flips[starts + k] = True
    return flips[:n]


def _residual_failures(kind, trials):
    """Keys of criterion 5's streams that Winnow leaves wrong under one error pattern."""
    failures = 0
    for trial in range(trials):
        krng = rng_stream(trial, "keys5")
        alice = _bits(krng, 2**14)
        bob = alice ^ _error_pattern(kind, 2**14, krng)
        corrected, _, _ = winnow_correct(alice, bob, rng_stream(trial, "w5"))
        failures += not np.array_equal(corrected, alice)
    return failures


@pytest.mark.parametrize("kind, bound", [
    # iid 3% on these streams is acceptance criterion 5 (0 of 1000)
    (("iid", 0.06), 1),
    (("every", 33), 0),
    (("every", 17), 0),
    (("every", 16), 0),
    (("runs", 4), 0),
], ids=["iid-6%", "every-33rd", "every-17th", "every-16th", "runs-of-4"])
def test_winnow_residual_failures_by_error_pattern(kind, bound):
    # on the first 500 keys each bound is the count measured there; a uniform bit
    # shuffle of the key left 0, 0, 0, 2 and 0
    assert _residual_failures(kind, 500) <= bound


def test_winnow_every_eighth_bit_is_past_four_passes():
    # a documented failure of the layout and of a uniform bit shuffle alike: one error
    # per key block is a 12.5% error rate, which four passes do not resolve
    assert _residual_failures(("every", 8), 100) >= 95


def test_winnow_truncates_to_block_multiple():
    rng = rng_stream(10, "t")
    key = _bits(rng, 21)
    corrected, _, _ = winnow_correct(key, key.copy(), rng_stream(10, "w"))
    assert len(corrected) == 16


@pytest.mark.parametrize("n", [0, 7])
def test_winnow_key_shorter_than_a_block_runs_one_empty_pass(n):
    # as over the wire: Alice sends no parities and Bob answers that no block differs
    key = np.ones(n, np.uint8)
    corrected, disclosed, passes = winnow_correct(key, key.copy(), rng_stream(12, "w"))
    assert (len(corrected), disclosed, passes) == (0, 0, 1)


def test_winnow_length_mismatch_rejected():
    with pytest.raises(ValueError):
        winnow_correct(np.zeros(8, np.uint8), np.zeros(16, np.uint8), rng_stream(11, "w"))


# --- Toeplitz privacy amplification --------------------------------------------------


def _naive_toeplitz_apply(seed_bits, block):
    """Independent oracle: explicit matrix build and GF(2) matrix-vector product."""
    out = []
    for i in range(PA_OUT_BITS):
        acc = 0
        for j in range(PA_IN_BITS):
            acc ^= int(seed_bits[PA_OUT_BITS - 1 + j - i]) & int(block[j])
        out.append(acc)
    return np.array(out, dtype=np.uint8)


def test_pa_zero_seed_gives_zeros():
    out = privacy_amplify(np.ones(16, np.uint8), np.zeros(PA_SEED_BITS, np.uint8))
    assert np.array_equal(out, np.zeros(11, np.uint8))


def test_pa_zero_input_gives_zeros():
    rng = rng_stream(12, "t")
    seed = _bits(rng, PA_SEED_BITS)
    assert np.array_equal(privacy_amplify(np.zeros(16, np.uint8), seed), np.zeros(11, np.uint8))


def test_pa_unit_vector_reads_first_column():
    rng = rng_stream(13, "t")
    seed = _bits(rng, PA_SEED_BITS)
    x = np.zeros(16, dtype=np.uint8)
    x[0] = 1
    out = privacy_amplify(x, seed)
    assert np.array_equal(out, toeplitz_matrix(seed)[:, 0])
    # the first column holds exactly the first 11 seed bits (top entry is seed bit 10)
    assert np.array_equal(np.sort(out), np.sort(seed[:11]))
    assert np.array_equal(out, seed[10::-1])


def test_pa_matches_naive_oracle():
    rng = rng_stream(14, "t")
    for _ in range(300):
        seed = _bits(rng, PA_SEED_BITS)
        block = _bits(rng, PA_IN_BITS)
        assert np.array_equal(privacy_amplify(block, seed), _naive_toeplitz_apply(seed, block))


def test_pa_of_a_key_is_the_oracle_block_by_block():
    rng = rng_stream(16, "t")
    seed = _bits(rng, PA_SEED_BITS)
    key = _bits(rng, 64 * PA_IN_BITS)
    want = [_naive_toeplitz_apply(seed, block) for block in key.reshape(-1, PA_IN_BITS)]
    assert np.array_equal(privacy_amplify(key, seed), np.concatenate(want))


def test_pa_compression_ratio_exact():
    rng = rng_stream(15, "t")
    seed = _bits(rng, PA_SEED_BITS)
    out = privacy_amplify(_bits(rng, 160), seed)
    assert len(out) == 110  # 16 -> 11 per block


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1), st.integers(0, 2**26 - 1))
def test_pa_gf2_linearity(x_val, y_val, seed_val):
    x = np.unpackbits(np.frombuffer(x_val.to_bytes(2, "big"), np.uint8))
    y = np.unpackbits(np.frombuffer(y_val.to_bytes(2, "big"), np.uint8))
    seed = np.unpackbits(np.frombuffer(seed_val.to_bytes(4, "big"), np.uint8))[-PA_SEED_BITS:]
    left = privacy_amplify(x ^ y, seed)
    right = privacy_amplify(x, seed) ^ privacy_amplify(y, seed)
    assert np.array_equal(left, right)


def test_pa_input_validation():
    with pytest.raises(ValueError):
        privacy_amplify(np.zeros(17, np.uint8), np.zeros(PA_SEED_BITS, np.uint8))
    with pytest.raises(ValueError):
        privacy_amplify(np.zeros(16, np.uint8), np.zeros(25, np.uint8))


# --- distillation: Winnow, hash check, PA with carry -------------------------------


def test_distill_single_clean_block():
    rng = rng_stream(16, "t")
    key = _bits(rng, 16)
    secure, carry_out = amplify_with_carry(np.empty(0, np.uint8), key, _bits(rng, PA_SEED_BITS))
    assert len(secure) == 11
    assert len(carry_out) == 0


def test_distill_aborts_on_high_qber():
    # an intercept-resend key (25% errors) fails the sampled QBER check
    rng = rng_stream(17, "t")
    alice = _bits(rng, 20_000)
    bob = alice.copy()
    bob[rng.random(20_000) < 0.25] ^= 1
    q, _ = _sample_qber(alice, bob, 0.05, rng)
    assert check_abort(q)


def test_distill_rejects_uncorrectable_burst():
    # two errors inside the only block can never be separated by permuting,
    # so Winnow leaves them and the verification hash catches the mismatch
    rng = rng_stream(18, "t")
    alice = _bits(rng, 8)
    bob = alice.copy()
    bob[0] ^= 1
    bob[5] ^= 1
    corrected, _, passes = winnow_correct(alice, bob, rng_stream(18, "d"))
    assert passes == 1
    assert key_hash(corrected) != key_hash(alice)


def test_distill_both_sides_identical_and_carry():
    rng = rng_stream(19, "t")
    alice = _bits(rng, 1009)
    bob = alice.copy()
    flips = rng.random(1009) < 0.02
    bob[flips] ^= 1
    carry = _bits(rng, 5)
    seed = _bits(rng, PA_SEED_BITS)
    corrected, disclosed, passes = winnow_correct(alice, bob, rng_stream(19, "d"))
    assert key_hash(corrected) == key_hash(alice[:1008])
    secure_a, carry_a = amplify_with_carry(carry, alice[:1008], seed)
    secure_b, carry_b = amplify_with_carry(carry, corrected, seed)
    total = 1008 + 5
    assert np.array_equal(secure_a, secure_b) and np.array_equal(carry_a, carry_b)
    assert len(secure_a) == (total - total % 16) // 16 * 11
    assert len(carry_a) == total % 16
    # the carry goes first: the leftover is the key's tail, the hash input its head
    combined = np.concatenate([carry, alice[:1008]])
    assert np.array_equal(carry_a, combined[total - total % 16:])
    assert np.array_equal(secure_a, privacy_amplify(combined[: total - total % 16], seed))
    assert passes <= 4
    assert disclosed > 0


def test_distill_secure_ratio_near_pa_ratio():
    rng = rng_stream(20, "t")
    alice = _bits(rng, 40_000)
    bob = alice.copy()
    flips = rng.random(40_000) < 0.026
    bob[flips] ^= 1
    corrected, _, _ = winnow_correct(alice, bob, rng_stream(20, "d"))
    secure, _ = amplify_with_carry(np.empty(0, np.uint8), corrected, _bits(rng, PA_SEED_BITS))
    assert len(secure) / 40_000 == pytest.approx(11 / 16, abs=0.01)


def test_key_hash_sensitive_to_any_bit():
    rng = rng_stream(21, "t")
    bits = _bits(rng, 256)
    h = key_hash(bits)
    assert len(h) == 8
    flipped = bits.copy()
    flipped[100] ^= 1
    assert key_hash(flipped) != h


# --- key buffer --------------------------------------------------------------------


def test_key_buffer_append_and_take():
    buf = KeyBuffer()
    bits = rng_stream(22, "t").integers(0, 2, 100, dtype=np.uint8)
    buf.append(bits)
    got = buf.take(40)
    assert buf.issued_ranges == [(0, 40)]
    assert np.array_equal(np.unpackbits(got, count=40), bits[:40])
    assert buf.consumed_total == 40


def _key_buffer_state(buf):
    return ([buf.available(lane) for lane in (0, 1)], [buf.next_range_start(lane) for lane in (0, 1)],
            buf.consumed_total, list(buf.issued_ranges), list(buf._lane_used), list(buf._lane_high))


def test_key_buffer_negative_take_is_refused_and_changes_nothing():
    # a negative take, a take that is not whole bytes, and a take one byte past what the
    # lane holds, raise and change nothing
    page = KeyBuffer.PAGE_BITS
    buf = KeyBuffer()
    buf.append(np.ones(page + 104, dtype=np.uint8))
    buf.take(40)
    buf.take(32, lane=1)
    for lane, start in ((0, 40), (1, page + 32)):
        unaligned = [(n, ValueError, "whole number of bytes") for n in (*range(1, 8), 9)]
        for nbits, error, match in ((-8, ValueError, "negative"), *unaligned,
                                    (buf.available(lane) + 8, KeyExhausted, "exhausted")):
            before = _key_buffer_state(buf)
            with pytest.raises(error, match=match):
                buf.take(nbits, lane=lane)
            assert _key_buffer_state(buf) == before
        n = buf.available(lane)
        got = buf.take(n, lane=lane)
        assert buf.issued_ranges[-1] == (start, start + n) and len(got) == n // 8
        assert np.unpackbits(got, count=n).all()
        assert buf.available(lane) == 0


def test_key_buffer_take_zero_returns_nothing_and_changes_nothing():
    buf = KeyBuffer()
    for _ in range(2):  # empty, then holding bits
        before = _key_buffer_state(buf)
        got = buf.take(0)
        assert got.dtype == np.uint8 and len(got) == 0
        assert _key_buffer_state(buf) == before
        buf.append(np.ones(100, dtype=np.uint8))


def test_key_buffer_issued_ranges_disjoint():
    buf = KeyBuffer()
    buf.append(rng_stream(23, "t").integers(0, 2, KeyBuffer.PAGE_BITS * 4, dtype=np.uint8))
    buf.take(104, lane=0)
    buf.take(200, lane=1)
    buf.take(KeyBuffer.PAGE_BITS, lane=0)  # crosses into page 2
    spans = sorted(buf.issued_ranges)
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        assert b1 <= a2


def test_key_buffer_lane_striping():
    buf = KeyBuffer()
    n = KeyBuffer.PAGE_BITS * 4
    buf.append(np.arange(n).astype(np.uint8) & 1)
    buf.take(16, lane=0)
    buf.take(16, lane=1)
    r0, r1 = buf.issued_ranges
    assert r0[0] // KeyBuffer.PAGE_BITS % 2 == 0
    assert r1[0] // KeyBuffer.PAGE_BITS % 2 == 1


class _SmallPages(KeyBuffer):
    PAGE_BITS = 16


def _bytes(n):
    """A bit count of ``n`` whole bytes: every take is one."""
    return 8 * n


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 1), st.integers(1, 5).map(_bytes)),
                min_size=1, max_size=30))
def test_key_buffer_lanes_read_their_page_stripes(steps):
    # reference: lane L's key stream is pages L, L + 2, L + 4, ... read in order
    buf = _SmallPages()
    page = buf.PAGE_BITS
    key = np.empty(0, np.uint8)
    used = [0, 0]
    for i, (n_append, lane, n_take) in enumerate(steps):
        chunk = rng_stream(i, "stripe").integers(0, 2, n_append, dtype=np.uint8)
        buf.append(chunk)
        key = np.concatenate([key, chunk])
        stripes = [[o for o in range(len(key) + 2 * page) if o // page % 2 == ln] for ln in (0, 1)]
        for ln in (0, 1):
            assert buf.available(ln) == sum(o < len(key) for o in stripes[ln]) - used[ln]
            assert buf.next_range_start(ln) == stripes[ln][used[ln]]
        if buf.available(lane) < n_take:
            continue
        n_issued = len(buf.issued_ranges)
        got = buf.take(n_take, lane=lane)
        ranges = buf.issued_ranges[n_issued:]
        want = stripes[lane][used[lane] : used[lane] + n_take]
        assert [o for a, b in ranges for o in range(a, b)] == want
        assert all(a // page == (b - 1) // page for a, b in ranges)
        assert np.array_equal(np.unpackbits(got, count=n_take), key[want])
        used[lane] += n_take
    assert buf.consumed_total == sum(used)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=30))
def test_key_buffer_stores_packed_bytes_and_no_appended_array(lengths):
    # chunks of unaligned lengths pack onto the pending tail: the two lanes' stores hold
    # at most one byte per eight bits, and no reference to an array it was given
    buf = _SmallPages()
    key = np.empty(0, np.uint8)
    for i, n in enumerate(lengths):
        chunk = rng_stream(i, "packed").integers(0, 2, n, dtype=np.uint8)
        key = np.concatenate([key, chunk])
        buf.append(chunk)
        appended = weakref.ref(chunk)
        del chunk
        assert appended() is None
        assert sum(c.nbytes for chunks in buf._lanes for c in chunks) <= -(-len(key) // 8)
    assert buf.to_bytes() == np.packbits(key).tobytes()
    assert np.array_equal(buf.bits(), key)


def test_key_buffer_overlapping_range_raises():
    buf = KeyBuffer()
    buf.append(np.zeros(3 * KeyBuffer.PAGE_BITS, np.uint8))
    buf.take(104, lane=1)
    buf.take(KeyBuffer.PAGE_BITS, lane=0)
    for lane, rewound_to, nbits in ((0, 48, 16), (1, 0, KeyBuffer.PAGE_BITS)):
        used = buf._lane_used[lane]
        buf._lane_used[lane] = rewound_to  # a lane count rewound by a fault
        before = _key_buffer_state(buf)
        with pytest.raises(RuntimeError, match="overlaps"):
            buf.take(nbits, lane=lane)
        assert _key_buffer_state(buf) == before
        buf._lane_used[lane] = used  # the lane counts are the consumed total: mend the fault
    assert buf.consumed_total == 104 + KeyBuffer.PAGE_BITS


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 1),
                          st.one_of(st.just(0), st.integers(-3, 3).map(_bytes)),
                          st.integers(0, 3).map(_bytes)),
                min_size=1, max_size=40))
def test_key_buffer_high_water_check_matches_a_brute_force_oracle(steps):
    # each step appends a chunk, shifts one lane's count by a fault (a rewind or a forward
    # skip), then takes from that lane.  Oracle: a take overlaps exactly when one of its
    # bit offsets lies in an issued range.  The high-water check refuses every such take,
    # and refuses nothing else unless the lane was once skipped forward: a later rewind into
    # the skipped gap starts below the mark without overlapping.  That is its one, stricter
    # difference.
    buf = _SmallPages()
    key = np.empty(0, np.uint8)
    skipped = [False, False]
    for i, (n_append, lane, fault, n_take) in enumerate(steps):
        chunk = rng_stream(i, "oracle").integers(0, 2, n_append, dtype=np.uint8)
        buf.append(chunk)
        key = np.concatenate([key, chunk])
        skipped[lane] |= fault > 0
        buf._lane_used[lane] = max(buf._lane_used[lane] + fault, 0)
        if buf.available(lane) < n_take:
            continue
        k = buf._lane_used[lane]
        want = [buf._lane_offset(lane, j) for j in range(k, k + n_take)]
        issued = {o for a, b in buf.issued_ranges for o in range(a, b)}
        before, n_issued = _key_buffer_state(buf), len(buf.issued_ranges)
        if issued.intersection(want):
            with pytest.raises(RuntimeError, match="overlaps"):
                buf.take(n_take, lane=lane)
            assert _key_buffer_state(buf) == before
            continue
        try:
            got = buf.take(n_take, lane=lane)
        except RuntimeError as exc:
            assert "overlaps" in str(exc) and skipped[lane]
            assert _key_buffer_state(buf) == before
            continue
        ranges = buf.issued_ranges[n_issued:]
        assert [o for a, b in ranges for o in range(a, b)] == want
        assert np.array_equal(np.unpackbits(got, count=n_take), key[want])


def test_key_buffer_take_inside_one_chunk_is_a_read_only_view():
    rng = rng_stream(24, "t")
    first, second = _bits(rng, 100), _bits(rng, 100)
    buf = KeyBuffer()
    buf.append(first)
    buf.append(second)
    before = buf.to_bytes()
    got = buf.take(64)  # inside lane 0's chunk of the first append
    assert np.shares_memory(got, buf._lanes[0][0]) and not got.flags.writeable
    with pytest.raises(ValueError):
        got[0] ^= 1
    assert buf.to_bytes() == before
    got = buf.take(80)  # spans the two chunks
    assert np.array_equal(np.unpackbits(got, count=80), np.concatenate([first, second])[64:144])


@pytest.mark.parametrize("lane", [0, 1])
def test_key_buffer_page_sized_takes_inside_one_append_are_read_only_views(lane):
    # the chat case: after the 64-bit handshake window every lane-0 frame of one page
    # spans two pages of that lane, and still reads as one view of the lane's store, as
    # lane 1's page-aligned frames do
    page = KeyBuffer.PAGE_BITS
    key = rng_stream(25, "t").integers(0, 2, 9 * page + 12, dtype=np.uint8)
    buf = KeyBuffer()
    buf.append(key)
    buf.take(64, lane=0)
    stripe = np.concatenate([key[p * page : (p + 1) * page] for p in range(lane, 10, 2)])
    k = 64 if lane == 0 else 0
    for _ in range(4):  # each lane holds four pages more
        got = buf.take(page, lane=lane)
        assert np.shares_memory(got, buf._lanes[lane][0]) and not got.flags.writeable
        assert np.array_equal(np.unpackbits(got), stripe[k : k + page])
        k += page
    assert buf.available(lane) < page


def test_key_buffer_take_timeout():
    # nothing waits for key: a take the lane cannot cover fails at once
    buf = KeyBuffer()
    buf.append(np.ones(8, np.uint8))
    with pytest.raises(KeyExhausted, match="need 56 bits, lane has 8"):
        buf.take(56)
