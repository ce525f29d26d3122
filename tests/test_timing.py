import dataclasses
import hashlib
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    count_split_events,
    detect_with_sources,
    noiseless_config,
    scaled_config,
    traced_peak,
)
from qkdlink.core import default_config, rng_stream
from qkdlink.photonics import generate_burst, transmit_and_detect
from qkdlink.timing import (
    NOLOCK_THRESHOLD,
    FifoChoice,
    NoLockError,
    choose_framing,
    estimate_frame_offset,
    interim_qber,
    nnc_match,
    offset_window,
    sample_pps_offset,
    synchronize,
)


def _rx(bins, channels=None, multi=None):
    bins = np.asarray(bins, dtype=np.int64)
    if channels is None:
        channels = np.ones(len(bins), dtype=np.uint8)
    if multi is None:
        multi = np.zeros(len(bins), dtype=bool)
    return SimpleNamespace(
        bin_index=bins,
        channel=np.asarray(channels, dtype=np.uint8),
        multi_click=np.asarray(multi, dtype=bool),
    )


# --- 1PPS model -----------------------------------------------------------------


def test_pps_offset_always_capped(tiny_cfg):
    rng = rng_stream(1, "pps")
    draws = np.array([sample_pps_offset(tiny_cfg, rng) for _ in range(100_000)])
    assert np.max(np.abs(draws)) <= tiny_cfg.pps_jitter_cap_ns


def test_pps_offset_sigma_matches_truncated_gaussian(tiny_cfg):
    # independent oracle: scipy's truncated normal at +-2 sigma
    truncnorm = pytest.importorskip("scipy.stats").truncnorm
    expected = truncnorm.std(-2, 2, scale=tiny_cfg.pps_jitter_sigma_ns)
    rng = rng_stream(2, "pps")
    draws = np.array([sample_pps_offset(tiny_cfg, rng) for _ in range(100_000)])
    assert np.std(draws) == pytest.approx(expected, abs=0.5)
    assert np.mean(draws) == pytest.approx(0.0, abs=0.5)


def test_pps_offset_zero_sigma(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, pps_jitter_sigma_ns=0.0)
    rng = rng_stream(3, "pps")
    assert all(sample_pps_offset(cfg, rng) == 0.0 for _ in range(100))


# --- dual-FIFO binning -------------------------------------------------------------


def test_dual_fifo_index_arithmetic():
    # bin 4k is slot 0 of frame k under FIFO1 and slot 2 of frame k under FIFO2
    k = 37
    for shift, slot in ((0, 0), (2, 2)):
        for central in range(4):
            res = nnc_match(100, _rx([4 * k]), 4, shift, central, frame_offset=0)
            assert list(res.tx_index) == ([k] if abs(central - slot) <= 1 else [])


def test_dual_fifo_empty_input():
    for shift in (0, 2):
        res = nnc_match(100, _rx([]), 4, shift, central=1, frame_offset=0)
        assert len(res) == 0 and res.n_multi_discard == res.n_compete_discard == 0


def test_straddling_pair_whole_in_exactly_one_fifo():
    # jitter-spread pair around a FIFO1 boundary: bins 4k-1 and 4k compete for
    # one pulse under FIFO2's framing at some central slot, and never under FIFO1's
    k = 10
    competes = [[nnc_match(100, _rx([4 * k - 1, 4 * k]), 4, shift, central, 0).n_compete_discard
                 for central in range(4)] for shift in (0, 2)]
    assert competes == [[0, 0, 0, 0], [0, 1, 1, 0]]


def test_choose_framing_prefers_center_heavy():
    # FIFO2 sees each histogram rotated by half a frame: edge-heavy becomes center-heavy
    edge_heavy = np.array([40, 10, 10, 40])
    center_heavy = np.array([5, 45, 45, 5])
    assert choose_framing(edge_heavy)[0] == FifoChoice.FIFO2
    assert choose_framing(center_heavy)[0] == FifoChoice.FIFO1


def test_choose_framing_tie_goes_fifo1():
    h = np.array([10, 10, 10, 10])
    assert choose_framing(h)[0] == FifoChoice.FIFO1


def test_choose_framing_central_is_histogram_peak():
    assert choose_framing(np.array([3, 50, 20, 2])) == (FifoChoice.FIFO1, 1)
    # the peak of the winning, rotated histogram
    assert choose_framing(np.array([30, 2, 5, 40])) == (FifoChoice.FIFO2, 1)


@pytest.mark.parametrize("b", range(2, 7))
def test_choose_framing_equals_roll_argmax_reference(b):
    # every histogram of 0-3 counts per slot: ties of the edges and of the peaks included
    for counts in itertools.product(range(4), repeat=b):
        counts = np.array(counts)
        delayed = np.roll(counts, b // 2)
        if delayed[0] + delayed[-1] < counts[0] + counts[-1]:
            expected = (FifoChoice.FIFO2, int(np.argmax(delayed)))
        else:
            expected = (FifoChoice.FIFO1, int(np.argmax(counts)))
        assert choose_framing(counts.tolist()) == expected, counts


def _dual_fifo_reference(bins, b):
    """Reference boundary choice: frame twice, compare edge fractions, argmax the winner."""
    views = []
    for shift in (0, b // 2):
        counts = np.bincount((bins + shift) % b, minlength=b)
        total = int(counts.sum())
        edge = float(counts[0] + counts[-1]) / total if total else 0.0
        views.append((edge, int(np.argmax(counts)), shift))
    choice = FifoChoice.FIFO2 if views[1][0] < views[0][0] else FifoChoice.FIFO1
    return (choice,) + views[choice - 1][1:]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-40, 200), max_size=60), st.integers(2, 8))
@example([], 4)
@example([-9, -5, -4, -1, 0, 3], 4)
def test_synchronize_framing_equals_dual_fifo_reference(bins, b):
    bins = np.sort(np.array(bins, dtype=np.int64))
    cfg = dataclasses.replace(default_config(), bins_per_frame=b)
    with pytest.MonkeyPatch.context() as mp:
        # the offset search is tested elsewhere; here only the framing matters
        mp.setattr("qkdlink.timing.estimate_frame_offset", lambda *args: (0, []))
        sync = synchronize(np.zeros(0, np.uint8), np.zeros(0, np.uint8), _rx(bins), cfg)
    assert (sync.fifo_choice, sync.central, sync.shift) == _dual_fifo_reference(bins, b)


# --- nearest-neighbor correlation ----------------------------------------------------


@pytest.mark.parametrize("slot", [1, 2], ids=["central", "adjacent"])
def test_nnc_matches_central_or_adjacent_bin(slot):
    res = nnc_match(10, _rx([4 * 5 + slot]), 4, 0, central=1, frame_offset=0)
    assert list(res.tx_index) == [5]


def test_nnc_two_bins_away_unmatched():
    res = nnc_match(10, _rx([4 * 5 + 3]), 4, 0, central=1, frame_offset=0)
    assert len(res) == 0


def test_nnc_competing_detections_discard_frame():
    res = nnc_match(10, _rx([4 * 5 + 1, 4 * 5 + 2], channels=[1, 3]), 4, 0, central=1,
                    frame_offset=0)
    assert len(res) == 0
    assert res.n_compete_discard == 1


def test_nnc_multi_click_discards_frame():
    res = nnc_match(10, _rx([4 * 5 + 1], channels=[2], multi=[True]), 4, 0, central=1,
                    frame_offset=0)
    assert len(res) == 0
    assert res.n_multi_discard == 1


def _nnc_match_by_bincount(n_tx, rx, b, shift, central, frame_offset, window=1, first_tx=0,
                           last_tx=None):
    """Reference matcher: frame every click, then per-pulse click and multi-click
    counts over the whole span."""
    if last_tx is None:
        last_tx = n_tx
    frames, slots = np.divmod(rx.bin_index + shift, b)
    j = frames - frame_offset
    valid = (np.abs(slots - central) <= window) & (j >= first_tx) & (j < last_tx)
    span = last_tx - first_tx
    if span <= 0 or not np.any(valid):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), 0, 0
    rel = j[valid] - first_tx
    cnt = np.bincount(rel, minlength=span)
    cnt_multi = np.bincount(rel[rx.multi_click[valid]], minlength=span)
    ch_at = np.zeros(span, dtype=np.uint8)
    ch_at[rel] = rx.channel[valid]
    matched = np.nonzero((cnt == 1) & (cnt_multi == 0))[0]
    return (matched + first_tx, ch_at[matched],
            int(np.count_nonzero((cnt_multi > 0) & (cnt > 0))),
            int(np.count_nonzero((cnt > 1) & (cnt_multi == 0))))


def _clicks_rx(clicks):
    """Receiver clicks from ``(bin, channel, multi)`` tuples, sorted by bin."""
    clicks = sorted(clicks)
    return _rx([c[0] for c in clicks], [c[1] for c in clicks], [c[2] for c in clicks])


@st.composite
def _framing(draw):
    """Bins per frame, a central slot in [0, b) and the shift of FIFO1 or FIFO2."""
    b = draw(st.integers(2, 6))
    return b, draw(st.integers(0, b - 1)), draw(st.sampled_from((0, b // 2)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-10, 250), st.integers(1, 4), st.booleans()),
                max_size=80),
       _framing(), st.integers(-5, 12), st.integers(-3, 40), st.integers(-3, 60))
# central 0 and b - 1: the frame edge clips the window, so the click one bin
# before (after) the frame is the previous (next) pulse's and does not match
@example([(19, 1, False)], (4, 0, 0), 0, 0, 10)
@example([(20, 1, False)], (4, 3, 0), 0, 0, 10)
@example([(17, 1, False), (22, 2, False)], (4, 0, 2), 1, 0, 10)
@example([(21, 1, False), (26, 2, False)], (4, 3, 2), 1, 0, 10)
def test_nnc_match_equals_bincount_reference(clicks, framing, frame_offset, first_tx, n_tx):
    b, central, shift = framing
    rx = _clicks_rx(clicks)
    res = nnc_match(n_tx, rx, b, shift, central, frame_offset, first_tx)
    tx_index, ch, n_multi, n_compete = _nnc_match_by_bincount(
        n_tx, rx, b, shift, central, frame_offset, first_tx=first_tx)
    assert res.tx_index.dtype == tx_index.dtype and res.channel.dtype == ch.dtype
    assert np.array_equal(res.tx_index, tx_index)
    assert np.array_equal(res.channel, ch)
    assert (res.n_multi_discard, res.n_compete_discard) == (n_multi, n_compete)


def test_nnc_match_equals_bincount_reference_on_a_burst(small_cfg):
    tx = generate_burst(small_cfg, rng_stream(14, "g"))
    rx = transmit_and_detect(tx, small_cfg, rng=rng_stream(14, "c"))
    sync = synchronize(tx.bases, tx.bits, rx, small_cfg)
    b = small_cfg.bins_per_frame
    for shift in (0, b // 2):
        for offset, first_tx in ((sync.r_n, 0), (sync.r_n, 500), (sync.r_n + 1, 0)):
            args = (len(tx), rx, b, shift, sync.central, offset)
            res = nnc_match(*args, first_tx=first_tx)
            ref = _nnc_match_by_bincount(*args, first_tx=first_tx)
            assert len(res) > 0
            assert np.array_equal(res.tx_index, ref[0])
            assert np.array_equal(res.channel, ref[1])
            assert (res.n_multi_discard, res.n_compete_discard) == ref[2:]


def test_full_nnc_match_peak_memory_is_bounded_per_click():
    # a few 32-bit arrays of the qualifying clicks' size at once, each selection
    # through a boolean mask and each flag array dropped before the result is
    # selected: ~9.9 bytes per click; through 8-byte index arrays (np.flatnonzero,
    # np.compress) they took 20.6, as 64-bit arrays 28.5, and matching through run
    # starts, run lengths and a reduceat 50
    cfg = scaled_config(0.05, seed=7)
    tx = generate_burst(cfg, rng_stream(7, "g"))
    rx = transmit_and_detect(tx, cfg, rng=rng_stream(7, "c"))
    sync = synchronize(tx.bases[:1000], tx.bits[:1000], rx, cfg)
    res, peak = traced_peak(lambda: nnc_match(len(tx), rx, cfg.bins_per_frame, sync.shift,
                                              sync.central, sync.r_n))
    assert len(res) > 0.9 * len(rx)
    assert peak <= 11 * len(rx)


def test_synchronize_peak_memory_is_bounded_per_click():
    # the slot histogram from one 32-bit array of the clicks' size, counted slot
    # by slot, and no framed copy of them: 5 bytes per click (np.bincount's
    # 64-bit copy of the slots took 12); framing every click took 16.7 (FIFO1)
    # and, when FIFO2 won and the clicks were framed again, 32
    cfg = scaled_config(0.05, seed=3)
    tx = generate_burst(cfg, rng_stream(3, "g"))
    rx = transmit_and_detect(tx, cfg, rng=rng_stream(3, "c"))
    bases, bits = tx.at(np.arange(cfg.sync_subset_size))
    sync, peak = traced_peak(lambda: synchronize(bases, bits, rx, cfg))
    assert sync.fifo_choice == FifoChoice.FIFO2
    assert sync.recovered_bin_offset == rx.true_bin_offset
    assert peak <= 12 * len(rx)


def test_nnc_injective_on_detections(small_cfg):
    tx = generate_burst(small_cfg, rng_stream(4, "g"))
    rx = transmit_and_detect(tx, small_cfg, rng=rng_stream(4, "c"))
    sync = synchronize(tx.bases, tx.bits, rx, small_cfg)
    res = nnc_match(len(tx), rx, small_cfg.bins_per_frame, sync.shift, sync.central, sync.r_n)
    assert len(np.unique(res.tx_index)) == len(res.tx_index)


def test_nnc_frame_offset_applies():
    res = nnc_match(10, _rx([4 * 25 + 1]), 4, 0, central=1, frame_offset=20)
    assert list(res.tx_index) == [5]


# --- interim QBER and the offset search ------------------------------------------------


def test_interim_qber_zero_at_truth_noiseless():
    cfg = noiseless_config(0.002, seed=5)
    tx = generate_burst(cfg, rng_stream(5, "g"))
    rx = transmit_and_detect(tx, cfg, rng=rng_stream(5, "c"))
    assert interim_qber(tx.bases, tx.bits, rx, cfg.bins_per_frame, 0, 0, [0])[0] == 0.0


def test_interim_qber_half_at_wrong_offset():
    cfg = noiseless_config(0.01, seed=6)
    tx = generate_burst(cfg, rng_stream(6, "g"))
    rx = transmit_and_detect(tx, cfg, rng=rng_stream(6, "c"))
    (q,) = interim_qber(tx.bases, tx.bits, rx, cfg.bins_per_frame, 0, 0, [7])
    assert q == pytest.approx(0.5, abs=0.1)


def test_interim_qber_default_noise(small_cfg):
    tx = generate_burst(small_cfg, rng_stream(7, "g"))
    rx = transmit_and_detect(tx, small_cfg, rng=rng_stream(7, "c"))
    sync = synchronize(tx.bases, tx.bits, rx, small_cfg)
    (q,) = interim_qber(tx.bases, tx.bits, rx, small_cfg.bins_per_frame, sync.shift,
                        sync.central, [sync.r_n])
    assert q == pytest.approx(0.026, abs=0.012)


def test_interim_qber_no_pairs_convention():
    assert interim_qber(np.zeros(10, np.uint8), np.zeros(10, np.uint8), _rx([]), 4, 0, 1,
                        [0])[0] == 0.5


def _interim_qber_by_loop(tx_bases, tx_bits, rx, b, shift, central, offsets):
    """Reference: under each offset r, match the disclosed pulses [0, n) at frame offset r
    and compare every matched pulse's basis and bit with its click, one at a time."""
    qber = []
    for r in offsets:
        res = nnc_match(len(tx_bases), rx, b, shift, central, r)
        pairs = errors = 0
        for pulse, channel in zip(res.tx_index.tolist(), res.channel.tolist()):
            basis, bit = divmod(channel - 1, 2)
            if basis == tx_bases[pulse]:
                pairs += 1
                errors += bit != tx_bits[pulse]
        qber.append(errors / pairs if pairs else 0.5)
    return qber


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 300), st.integers(1, 4), st.booleans()),
                max_size=80),
       st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=40),
       _framing(), st.lists(st.integers(-8, 50), min_size=1, max_size=10))
# an unsorted, non-contiguous list with a duplicate, reaching below pulse 0 and past n
@example([(4 * f + 1, 1 + f % 4, False) for f in range(-3, 12)], [(0, 0), (1, 1)] * 4,
         (4, 1, 0), [5, -3, 0, 5, 9, 1])
# offset 30 reaches no click: no pairs, so exactly 0.5
@example([(5, 1, False), (9, 2, False)], [(0, 0), (0, 1)], (4, 1, 0), [1, 30, 2])
def test_interim_qber_equals_per_candidate_loop(clicks, sample, framing, offsets):
    b, central, shift = framing
    rx = _clicks_rx(clicks)
    bases, bits = (np.array([p[i] for p in sample], dtype=np.uint8) for i in range(2))
    got = interim_qber(bases, bits, rx, b, shift, central, offsets)
    expected = _interim_qber_by_loop(bases, bits, rx, b, shift, central, offsets)
    assert got.tolist() == expected  # exact: the same counts give the same floats


def test_offset_search_recovers_tof_1000ns():
    # 2500 ns (50 frames) lies outside a fixed 40-frame search
    for tof_ns, r_n in [(1000.0, 20), (2500.0, 50)]:
        cfg = scaled_config(0.001, seed=8, pps_jitter_sigma_ns=0.0, tof_override_ns=tof_ns)
        tx = generate_burst(cfg, rng_stream(8, "g"))
        rx = transmit_and_detect(tx, cfg, rng=rng_stream(8, "c"))
        sync = synchronize(tx.bases, tx.bits, rx, cfg)
        assert sync.r_n == r_n


def test_offset_search_zero_tof():
    cfg = noiseless_config(0.001, seed=9)
    tx = generate_burst(cfg, rng_stream(9, "g"))
    rx = transmit_and_detect(tx, cfg, rng=rng_stream(9, "c"))
    r_n, _ = estimate_frame_offset(tx.bases, tx.bits, rx, 0, 0, cfg)
    assert r_n == 0


def test_offset_search_no_lock_on_empty(tiny_cfg):
    with pytest.raises(NoLockError):
        estimate_frame_offset(np.zeros(100, np.uint8), np.zeros(100, np.uint8), _rx([]), 0, 1,
                              tiny_cfg)


def _estimate_frame_offset_per_candidate(tx_bases, tx_bits, rx, shift, central, cfg):
    """Reference search: one NNC match and one interim QBER per candidate offset."""
    curve = []
    best_offset, best_q = 0, 1.1
    for r in offset_window(cfg):
        res = nnc_match(len(tx_bases), rx, cfg.bins_per_frame, shift, central, r)
        q = 0.5
        if len(res):
            agree = ((res.channel - 1) >> 1) == tx_bases[res.tx_index]
            if np.any(agree):
                errors = ((res.channel - 1) & 1)[agree] != tx_bits[res.tx_index][agree]
                q = float(np.mean(errors))
        curve.append((r, q))
        if q < best_q:
            best_offset, best_q = r, q
    if best_q > NOLOCK_THRESHOLD:
        raise NoLockError(best_q)
    return best_offset, curve


def _search_outcome(search, *args):
    try:
        return search(*args)
    except NoLockError as exc:
        return ("no_lock", exc.min_qber)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 80), st.integers(0, 3), st.integers(1, 4),
                          st.booleans()), max_size=80),
       st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=60),
       st.integers(0, 3), st.integers(0, 40), st.integers(0, 24), st.sampled_from((0, 2)))
# one click in each of frames 3 and 4, so R_N 3 and 4 both read 0 on pulse 0: a tie
@example([(3, 1, 1, False), (4, 1, 1, False)], [(0, 0)], 1, 12, 24, 0)
# window -3..9: only the first frame of R_N -3 and the last frame of R_N 9 pair
@example([(-3, 1, 2, False), (10, 1, 1, False)], [(0, 1), (0, 0)], 1, 12, 24, 0)
def test_offset_search_equals_per_candidate_reference(clicks, sample, central, tof_bins,
                                                      cap_bins, shift):
    # clicks are drawn as (frame, slot) under the framing of ``shift``
    rx = _clicks_rx([(4 * frame + slot - shift, channel, multi)
                     for frame, slot, channel, multi in clicks])
    bases, bits = (np.array([p[i] for p in sample], dtype=np.uint8) for i in range(2))
    # a window of 1-14 candidates between R_N -6 and 16, negative when the cap exceeds the flight
    cfg = dataclasses.replace(default_config(), pps_jitter_sigma_ns=0.0,
                              tof_override_ns=12.5 * tof_bins, pps_jitter_cap_ns=12.5 * cap_bins)
    args = (bases, bits, rx, shift, central, cfg)
    expected = _search_outcome(_estimate_frame_offset_per_candidate, *args)
    assert _search_outcome(estimate_frame_offset, *args) == expected


def test_offset_search_runs_one_match(small_cfg):
    tx = generate_burst(small_cfg, rng_stream(15, "g"))
    rx = transmit_and_detect(tx, small_cfg, rng=rng_stream(15, "c"))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return nnc_match(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("qkdlink.timing.nnc_match", counted)
        sync = synchronize(tx.bases, tx.bits, rx, small_cfg)
    assert len(sync.curve) == len(offset_window(small_cfg)) > 1
    assert len(calls) == 1


def test_true_offset_strictly_minimal(small_cfg):
    tx = generate_burst(small_cfg, rng_stream(10, "g"))
    rx = transmit_and_detect(tx, small_cfg, rng=rng_stream(10, "c"))
    sync = synchronize(tx.bases, tx.bits, rx, small_cfg)
    qs = dict(sync.curve)
    q_true = qs.pop(sync.r_n)
    assert all(q_true < q for q in qs.values())


def _recovery_hits(seeds, **overrides):
    """1-ms bursts at 1000 ns of flight whose whole-bin offset sync recovers exactly."""
    hits = 0
    for seed in seeds:
        cfg = scaled_config(0.001, seed=seed, tof_override_ns=1000.0, **overrides)
        tx = generate_burst(cfg, rng_stream(cfg.rng_seed, "g"))
        rx = transmit_and_detect(tx, cfg, rng=rng_stream(cfg.rng_seed, "c"))
        sync = synchronize(tx.bases, tx.bits, rx, cfg)
        if sync.recovered_bin_offset == rx.true_bin_offset:
            hits += 1
    return hits


def test_alignment_recovery_mini_trials():
    trials = 100
    assert _recovery_hits(range(1000, 1000 + trials)) >= trials - 2


@pytest.mark.parametrize("bins_per_frame", [2, 3, 5, 8])
def test_alignment_recovery_other_frame_sizes(bins_per_frame):
    trials = 100
    assert _recovery_hits(range(trials), bins_per_frame=bins_per_frame) >= trials - 2


def _sync_sweep():
    """(cfg, tx seed label, channel seed label) of every trial the sweep pin runs."""
    base = scaled_config(0.001)
    for distance_m, seeds in ((300.0, range(100, 118)), (750.0, range(750_000, 750_020))):
        cfg = dataclasses.replace(base, link=dataclasses.replace(base.link, distance_m=distance_m))
        for seed in seeds:
            yield dataclasses.replace(cfg, rng_seed=seed), "txgen:0", "channel:0"
    for tof_ns in (1000.0, 2500.0):  # the geometries of test_offset_search_recovers_tof_1000ns
        yield scaled_config(0.001, seed=8, pps_jitter_sigma_ns=0.0, tof_override_ns=tof_ns), "g", "c"


def test_sync_sweep_is_bit_identical():
    # 40 trials of 1-ms bursts, every R_N's QBER included bit for bit: a change to the
    # search, the framing or the streams that feed them shows in this digest
    h = hashlib.sha256()
    for cfg, tx_label, channel_label in _sync_sweep():
        tx = generate_burst(cfg, rng_stream(cfg.rng_seed, tx_label))
        rx = transmit_and_detect(tx, cfg, rng=rng_stream(cfg.rng_seed, channel_label))
        try:
            sync = synchronize(tx.bases, tx.bits, rx, cfg)
            row = (sync.r_n, int(sync.fifo_choice), sync.central,
                   [(r, q.hex()) for r, q in sync.curve])
        except NoLockError as exc:
            row = ("no_lock", exc.min_qber.hex())
        h.update(repr(row).encode())
    assert h.hexdigest()[:16] == "d04d16add5b897d0"


# --- boundary selection vs splits -------------------------------------------------------


@pytest.mark.parametrize("tof_ns,worst", [
    (1000.0, True),    # residual 0 bins: FIFO1 splits 20%
    (1012.5, False),   # residual 1 bin: FIFO1 already clean
    (1025.0, False),   # residual 2 bins
    (1037.5, True),    # residual 3 bins
])
def test_boundary_selection_never_worse_than_best_fifo(tof_ns, worst):
    cfg = scaled_config(0.002, seed=11, pps_jitter_sigma_ns=0.0, tof_override_ns=tof_ns)
    tx = generate_burst(cfg, rng_stream(11, "g"))
    rx, source = detect_with_sources(tx, cfg, rng=rng_stream(11, "c"))
    chosen = synchronize(tx.bases, tx.bits, rx, cfg).shift
    s1, s2, s_chosen = (count_split_events(rx, source, shift, cfg) for shift in (0, 2, chosen))
    assert s_chosen <= min(s1, s2)
    if worst:
        assert s1 > 0 and s_chosen == 0


def test_config_object_not_mutated(small_cfg):
    before = dataclasses.asdict(small_cfg)
    tx = generate_burst(small_cfg, rng_stream(13, "g"))
    transmit_and_detect(tx, small_cfg, rng=rng_stream(13, "c"))
    assert dataclasses.asdict(small_cfg) == before
    assert default_config().link.mu == 0.15
