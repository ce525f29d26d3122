import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    detect_with_sources,
    merge_by_unique,
    noiseless_config,
    scaled_config,
    traced_peak,
)
from qkdlink import photonics
from qkdlink.core import default_config, rng_stream
from qkdlink.eve import Eavesdropper
from qkdlink.photonics import (
    PRBS11_PERIOD,
    TxBurst,
    detected_photons,
    detector_entries,
    eta_geometric,
    total_efficiency,
    generate_burst,
    merge_clicks,
    prbs11_next,
    prbs11_sequence,
    transmit_and_detect,
)
from qkdlink.session import received_burst, transmitted_burst
from qkdlink.timing import nnc_match, synchronize


# --- PRBS11 -------------------------------------------------------------------


def test_prbs11_full_cycle_returns_to_seed():
    state = 1
    seen = set()
    for _ in range(PRBS11_PERIOD):
        seen.add(state)
        _, state = prbs11_next(state)
    assert state == 1
    # maximal-length: the cycle visits every nonzero state, so the period
    # is 2047 from any seed
    assert len(seen) == PRBS11_PERIOD


def test_prbs11_balance_over_period():
    bits = prbs11_sequence(0x5A5, PRBS11_PERIOD)
    ones = int(bits.sum())
    assert ones == 1024
    assert PRBS11_PERIOD - ones == 1023


def test_prbs11_zero_state_rejected():
    with pytest.raises(ValueError):
        prbs11_next(0)
    # out-of-range states must not reach a table lookup
    for state in (0, PRBS11_PERIOD + 1, -1):
        with pytest.raises(ValueError):
            prbs11_sequence(state, 10)


def test_prbs11_sequence_matches_scalar_iteration():
    # The bits that follow a state do not depend on where the register
    # started, so one scalar walk gives the reference for every state it visits.
    n = 2 * PRBS11_PERIOD + 5
    states, expect = [], []
    s = 0x3F1
    for _ in range(PRBS11_PERIOD + n):
        states.append(s)
        bit, s = prbs11_next(s)
        expect.append(bit)
    expect = np.array(expect, dtype=np.uint8)
    assert sorted(states[:PRBS11_PERIOD]) == list(range(1, PRBS11_PERIOD + 1))
    for i, state in enumerate(states[:PRBS11_PERIOD]):
        assert np.array_equal(prbs11_sequence(state, n), expect[i:i + n]), state


# --- burst generation -----------------------------------------------------------


def test_generate_burst_mu_zero_all_dark():
    # no photons leave the source: every click is a dark count
    cfg = scaled_config(0.01, mu=0.0, dark_cps=1e5)
    tx = generate_burst(cfg, rng_stream(1, "g"))
    rx, source = detect_with_sources(tx, cfg, rng=rng_stream(1, "c"))
    assert len(rx) == pytest.approx(1000, abs=150)
    assert np.all(source == -1)


def test_generate_burst_photon_fraction():
    # through a lossless channel, the fraction of pulses that click is the
    # fraction of source pulses with >=1 photon, 1 - exp(-mu)
    lossless = dict(eta_frontend=1.0, eta_decode=1.0, eta_detector=1.0, eta_residual=1.0,
                    dark_cps=0.0)
    cfg = scaled_config(0.1, seed=5, **lossless)  # 2M pulses
    tx = generate_burst(cfg, rng_stream(5, "g"))
    _, source = detect_with_sources(tx, cfg, rng=rng_stream(5, "c"))
    frac = len(np.unique(source)) / len(tx)
    assert frac == pytest.approx(1 - np.exp(-0.15), abs=1e-3)


def test_generate_burst_basis_balance():
    cfg = scaled_config(0.1, seed=6)
    tx = generate_burst(cfg, rng_stream(6, "g"))
    assert np.mean(tx.bases) == pytest.approx(0.5, abs=1e-3)
    assert np.mean(tx.bits) == pytest.approx(0.5, abs=1e-3)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, PRBS11_PERIOD), st.integers(1, PRBS11_PERIOD), st.integers(1, 3 * PRBS11_PERIOD),
       st.data())
def test_tx_burst_at_gathers_the_dense_sequences(state_bases, state_bits, n, data):
    tx = TxBurst(n, state_bases, state_bits)
    # the engines pass int32 photon pulses and uint32 wire positions
    dtype = data.draw(st.sampled_from([np.int64, np.int32, np.uint32]))
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=50)), dtype=dtype)
    bases, bits = tx.at(idx)
    assert np.array_equal(bases, prbs11_sequence(state_bases, n)[idx])
    assert np.array_equal(bits, prbs11_sequence(state_bits, n)[idx])
    assert bases.dtype == bits.dtype == np.uint8


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint32])
def test_tx_burst_at_gathers_across_draw_chunks(dtype):
    # indices are gathered DRAW_CHUNK at a time: unsorted indices crossing three
    # chunk edges, and a tail, read the same pulses as the dense sequences
    tx = TxBurst(1_000_003, 0x2F1, 0x03A)
    idx = rng_stream(12, "idx").integers(0, len(tx), 3 * photonics.DRAW_CHUNK + 5).astype(dtype)
    bases, bits = tx.at(idx)
    assert np.array_equal(bases, tx.bases[idx])
    assert np.array_equal(bits, tx.bits[idx])
    assert bases.dtype == bits.dtype == np.uint8


def test_tx_burst_rejects_states_outside_prbs11():
    for states in ((0, 1), (1, 0), (PRBS11_PERIOD + 1, 1), (1, PRBS11_PERIOD + 1)):
        with pytest.raises(ValueError):
            TxBurst(100, *states)


def test_generate_burst_allocates_no_pulse_arrays():
    # a 1-s burst is 20 M pulses: the burst is its two PRBS11 states, not two arrays
    cfg = default_config(3)
    rng = rng_stream(3, "g")
    tracemalloc.start()
    try:
        tx = generate_burst(cfg, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tx) == cfg.n_pulses == 20_000_000
    assert peak < 1024


def test_transmit_and_detect_peak_memory_is_bounded_per_click():
    # the 32-bit merge keys alone in one array, sorted and compacted in place
    # through a mask, with 32-bit source pulses: ~19.5 bytes per click (at this
    # burst the float draws are one chunk; a 1-s burst holds ~13); with 64-bit
    # pulses and an index array for the compaction it took ~23, as 64-bit keys
    # ~27, a source-pulse array beside them, gathered through the sort order,
    # 43, and concatenating the signal and dark entries field by field and
    # gathering every field through the order 76
    cfg = scaled_config(0.05, seed=7)
    tx = generate_burst(cfg, rng_stream(7, "g"))
    rx, peak = traced_peak(lambda: transmit_and_detect(tx, cfg, rng=rng_stream(7, "c")))
    assert len(rx) > 40_000
    assert peak <= 21 * len(rx)


def test_detected_photons_float_scratch_is_one_chunk():
    # a 1-s burst's ~0.95 M photons: beside the int32 result, one chunk of
    # float64 gaps and the result's unused tail (~6 K entries of 4 bytes); the
    # gaps drawn whole, their times and an int64 result took ~8 bytes per photon
    cfg = default_config(7)
    link = cfg.link
    photons, peak = traced_peak(lambda: detected_photons(
        cfg.n_pulses, link.mu, total_efficiency(link), rng_stream(7, "d")))
    assert photons.dtype == np.int32 and len(photons) > 10 * photonics.DRAW_CHUNK
    assert peak - photons.nbytes <= 8 * photonics.DRAW_CHUNK + 64 * 1024


@pytest.mark.parametrize("chunk", [7, 1000])
@pytest.mark.parametrize("eve", [False, True], ids=["clean", "eve"])
def test_detector_entries_do_not_depend_on_the_draw_chunk(chunk, eve, monkeypatch):
    # the float draws of a burst's size come DRAW_CHUNK at a time; the chunk
    # must change no draw: keys, pulses and offsets are byte-identical to the
    # default's, which draws this burst's ~19 K photons as one chunk
    cfg = scaled_config(0.02, seed=6)
    tx = generate_burst(cfg, rng_stream(6, "g"))

    def entries():
        spy = Eavesdropper(rng_stream(6, "e"), 0.5) if eve else None
        return detector_entries(tx, cfg, spy, rng=rng_stream(6, "c"))

    want = entries()
    assert len(want[1]) > 2 * chunk
    monkeypatch.setattr(photonics, "DRAW_CHUNK", chunk)
    got = entries()
    for g, w in zip(got[:2], want[:2], strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert got[2:] == want[2:]


@pytest.mark.parametrize("burst_seconds,threads", [(0.001, 0), (0.1, 1)])
def test_the_encoding_takes_one_thread_from_a_draw_chunk(burst_seconds, threads, monkeypatch):
    # a 1-ms burst (~950 photons, as in the sync trials) encodes inline; a 0.1-s
    # one (~95 K) on one worker beside the channel draws, joined before it returns
    cfg = scaled_config(burst_seconds, seed=4)
    tx = generate_burst(cfg, rng_stream(4, "g"))
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    for eve in (None, Eavesdropper(rng_stream(4, "e"))):
        started.clear()
        _, src, _, _ = detector_entries(tx, cfg, eve, rng=rng_stream(4, "c"))
        assert (len(src) >= photonics.DRAW_CHUNK) == bool(threads)
        assert len(started) == threads
        assert not any(t.is_alive() for t in started)


def test_an_encoding_failure_on_the_worker_surfaces_as_itself(monkeypatch):
    class InterceptFailed(Exception):
        pass

    raised, threads = [], []

    def intercept(self, tx, src):
        threads.append(threading.current_thread())
        raised.append(InterceptFailed())
        raise raised[0]

    monkeypatch.setattr(Eavesdropper, "intercept", intercept)
    cfg = scaled_config(0.1, seed=4, eve_enabled=True)
    with pytest.raises(InterceptFailed) as info:
        received_burst(cfg, 0, transmitted_burst(cfg, 0))
    assert info.value is raised[0]
    assert threads[0] is not threading.current_thread()


# --- geometric collection ---------------------------------------------------------


def test_eta_geometric_reference_distance():
    # 30.2 mm + 66 urad * 300 m = 50 mm footprint, inside the 80 mm aperture
    assert eta_geometric(300, 80, 30.2, 66) == 1.0


def test_eta_geometric_zero_distance():
    assert eta_geometric(0, 80, 30.2, 66) == 1.0


def test_eta_geometric_long_range():
    val = eta_geometric(2500, 80, 30.2, 66)
    assert val == pytest.approx((80 / 195.2) ** 2, rel=1e-6)
    assert val == pytest.approx(0.168, abs=0.001)


def test_eta_geometric_negative_distance_rejected():
    with pytest.raises(ValueError):
        eta_geometric(-1, 80, 30.2, 66)


# --- channel and detection ----------------------------------------------------------


def test_no_detections_when_path_closed():
    cfg = scaled_config(0.001, eta_residual=0.0, dark_cps=0.0)
    tx = generate_burst(cfg, rng_stream(2, "g"))
    rx = transmit_and_detect(tx, cfg, rng=rng_stream(2, "c"))
    assert len(rx) == 0


def test_noiseless_same_basis_decodes_exactly():
    cfg = noiseless_config(0.002, seed=3)
    tx = generate_burst(cfg, rng_stream(3, "g"))
    rx = transmit_and_detect(tx, cfg, rng=rng_stream(3, "c"))
    res = nnc_match(len(tx), rx, cfg.bins_per_frame, 0, central=0, frame_offset=0)
    meas_basis = (res.channel - 1) >> 1
    meas_bit = (res.channel - 1) & 1
    same = meas_basis == tx.bases[res.tx_index]
    assert np.count_nonzero(same) > 100
    assert np.array_equal(meas_bit[same], tx.bits[res.tx_index][same])


def test_click_rate_matches_poisson_thinning():
    cfg = scaled_config(0.05, seed=4)  # 1M pulses
    tx = generate_burst(cfg, rng_stream(4, "g"))
    _, source = detect_with_sources(tx, cfg, rng=rng_stream(4, "c"))
    clicked = len(np.unique(source[source >= 0]))
    p = 1 - np.exp(-total_efficiency(cfg.link) * cfg.link.mu)
    sigma = np.sqrt(len(tx) * p * (1 - p))
    assert abs(clicked - len(tx) * p) < 3 * sigma


def test_full_burst_total_clicks():
    # one full 1-second burst: frames with >=1 click approximate
    # prf * (1 - exp(-eta*mu)) ~ 927K, within +-3K (about 3 sigma + darks)
    cfg = scaled_config(1.0, seed=3)
    tx = generate_burst(cfg, rng_stream(3, "g"))
    rx = transmit_and_detect(tx, cfg, rng=rng_stream(3, "c"))
    shift = synchronize(tx.bases, tx.bits, rx, cfg).shift
    clicked_frames = len(np.unique((rx.bin_index + shift) // cfg.bins_per_frame))
    expected = cfg.n_pulses * (1 - np.exp(-total_efficiency(cfg.link) * cfg.link.mu))
    assert abs(clicked_frames - expected) < 3000


def test_detection_count_monotone_in_mu_and_efficiency():
    base = scaled_config(0.01, seed=9)
    counts = {}
    for label, overrides in {
        "lo_mu": dict(mu=0.08),
        "hi_mu": dict(mu=0.2),
        "lo_eta": dict(eta_residual=0.4),
        "hi_eta": dict(eta_residual=0.9),
    }.items():
        cfg = scaled_config(0.01, seed=9, **overrides)
        tx = generate_burst(cfg, rng_stream(9, "g"))
        rx = transmit_and_detect(tx, cfg, rng=rng_stream(9, "c"))
        counts[label] = len(rx)
    assert counts["lo_mu"] < counts["hi_mu"]
    assert counts["lo_eta"] < counts["hi_eta"]
    del base


def test_detections_sorted_and_multi_flag_consistent():
    cfg = scaled_config(0.02, seed=8, dark_cps=50000.0)  # darks force collisions
    tx = generate_burst(cfg, rng_stream(8, "g"))
    rx = transmit_and_detect(tx, cfg, rng=rng_stream(8, "c"))
    assert np.all(np.diff(rx.bin_index) >= 0)
    # bins flagged multi occur more than once, unflagged exactly once
    _, inverse, counts = np.unique(rx.bin_index, return_inverse=True, return_counts=True)
    assert np.array_equal(rx.multi_click, counts[inverse] > 1)


def test_channels_valid_range(small_cfg):
    tx = generate_burst(small_cfg, rng_stream(1, "g"))
    rx = transmit_and_detect(tx, small_cfg, rng=rng_stream(1, "c"))
    assert rx.channel.min() >= 1 and rx.channel.max() <= 4


def test_pps_cap_respected_in_realization(small_cfg):
    tx = generate_burst(small_cfg, rng_stream(11, "g"))
    _, _, pps_ns, _ = detector_entries(tx, small_cfg, rng=rng_stream(11, "c"))
    assert abs(pps_ns) <= small_cfg.pps_jitter_cap_ns


# --- sparse photon sampling against the dense per-pulse model -------------------------


def _dense_detected_photons(n, mu, eta, rng):
    """Reference sampler: Poisson(mu) photons in every pulse, each kept with probability eta."""
    counts = rng.binomial(rng.poisson(mu, n), eta)
    return np.repeat(np.arange(n), counts)


def _chi2_homogeneity(a, b):
    """Pearson chi^2 of two count vectors over the same categories, and its degrees of freedom."""
    table = np.array([a, b], dtype=float)
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    return float(((table - expected) ** 2 / expected).sum()), len(a) - 1


# chi^2 at a 0.1% false-alarm rate, by degrees of freedom
CHI2_999 = {1: 10.83, 3: 16.27}

# the default 300 m link, and a bright, low-loss one where multi-photon hits are common
OPERATING_POINTS = [dict(), dict(mu=0.6, eta_residual=1.0, dark_cps=0.0)]


@pytest.mark.parametrize("overrides", OPERATING_POINTS, ids=["300m", "bright"])
def test_detected_photon_counts_match_dense_model(overrides):
    cfg = scaled_config(0.1, **overrides)  # 2M pulses: ~35 hits with >=3 photons at 300 m
    link = cfg.link
    eta = link.eta_residual * link.detector_chain_efficiency()
    photons = detected_photons(cfg.n_pulses, link.mu, eta, rng_stream(1, "sparse"))
    ref = _dense_detected_photons(cfg.n_pulses, link.mu, eta, rng_stream(1, "dense"))
    assert photons.dtype == np.int32
    assert np.all(np.diff(photons) >= 0) and photons[0] >= 0 and photons[-1] < cfg.n_pulses

    def categories(hits):  # pulses with 1, 2 and >=3 detected photons, then without any
        c = np.unique(hits, return_counts=True)[1]
        k = [np.count_nonzero(c == 1), np.count_nonzero(c == 2), np.count_nonzero(c >= 3)]
        return k + [cfg.n_pulses - len(c)]

    got, want = categories(photons), categories(ref)
    assert min(want) >= 20  # every category is populated enough for the chi^2 test
    chi2, dof = _chi2_homogeneity(got, want)
    assert chi2 < CHI2_999[dof], (got, want)


@pytest.mark.parametrize("overrides", OPERATING_POINTS, ids=["300m", "bright"])
def test_multi_click_share_matches_dense_model(overrides, monkeypatch):
    cfg = scaled_config(0.02, **overrides)
    tx = generate_burst(cfg, rng_stream(2, "g"))
    rx = transmit_and_detect(tx, cfg, rng=rng_stream(2, "c"))
    monkeypatch.setattr(photonics, "detected_photons", _dense_detected_photons)
    ref = transmit_and_detect(tx, cfg, rng=rng_stream(2, "c"))

    def categories(r):
        multi = int(np.count_nonzero(r.multi_click))
        return [multi, len(r) - multi]

    got, want = categories(rx), categories(ref)
    assert min(want) >= 20
    chi2, dof = _chi2_homogeneity(got, want)
    assert chi2 < CHI2_999[dof], (got, want)


def test_detected_photons_degenerate_rates():
    rng = rng_stream(3, "sparse")
    for mu, eta in ((0.0, 0.5), (0.5, 0.0)):
        assert len(detected_photons(1000, mu, eta, rng)) == 0
    photons = detected_photons(1000, 60.0, 1.0, rng)  # every pulse clicks
    assert np.array_equal(np.unique(photons), np.arange(1000))
    assert len(photons) / 1000 == pytest.approx(60.0, abs=1.0)
    assert len(detected_photons(1000, 1e-30, 1.0, rng)) == 0  # gaps far beyond the burst


# --- click merge against the np.unique reference ---------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(-1, 1), st.integers(1, 4)),
                max_size=60),
       st.lists(st.tuples(st.integers(-4, 130), st.integers(1, 4)), max_size=20),
       st.integers(2, 4), st.integers(-6, 6), st.randoms(use_true_random=False))
def test_merge_clicks_equals_unique_reference(photons, darks, bins_per_frame, base_bin, order):
    # photons in pulse order as detector_entries makes them: at 2 bins per
    # frame a jittered bin can precede the one before it; small ranges make
    # signal-signal and signal-dark collisions common, and base_bin < 0 gives
    # negative bins; the merge must not depend on the entries' order, so they
    # are shuffled before it
    photons.sort(key=lambda p: p[0])
    src = np.array([p[0] for p in photons], dtype=np.int64)
    jitter = np.array([p[1] for p in photons], dtype=np.int64)
    bins = np.concatenate([bins_per_frame * src + base_bin + jitter,
                           np.array([d[0] for d in darks], dtype=np.int64)])
    channel = np.array([p[2] for p in photons] + [d[1] for d in darks], dtype=np.uint8)
    key = bins * 8 + channel
    want = merge_by_unique(key, src)[:3]
    order.shuffle(key)
    got = merge_clicks(key)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def test_merge_clicks_equals_unique_reference_on_a_burst():
    cfg = scaled_config(0.02, seed=8, dark_cps=50000.0, bins_per_frame=2)
    tx = generate_burst(cfg, rng_stream(8, "g"))
    rx = transmit_and_detect(tx, cfg, rng=rng_stream(8, "c"))
    key, src, _, _ = detector_entries(tx, cfg, rng=rng_stream(8, "c"))
    *ref, source = merge_by_unique(key, src)
    assert np.count_nonzero(rx.multi_click) > 0 and np.count_nonzero(source < 0) > 0
    assert rx.bin_index.dtype == np.int32 and rx.channel.dtype == np.uint8
    for name, want in zip(("bin_index", "channel", "multi_click"), ref, strict=True):
        assert np.array_equal(getattr(rx, name), want), name
