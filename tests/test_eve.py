import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from conftest import scaled_config, traced_peak
from qkdlink import photonics
from qkdlink.core import default_config, rng_stream
from qkdlink.eve import Eavesdropper
from qkdlink.photonics import (
    TxBurst,
    detected_photons,
    generate_burst,
    total_efficiency,
    transmit_and_detect,
)
from qkdlink.session import simulate_session


def test_matching_basis_reprepares_identically():
    i = np.arange(2000)
    bases = (i % 2).astype(np.uint8)
    bits = ((i // 2) % 2).astype(np.uint8)
    out_bases, out_bits = Eavesdropper(rng_stream(1, "e")).transform(bases, bits)
    matched = out_bases == bases
    assert np.array_equal(out_bits[matched], bits[matched])
    assert matched.sum() > 800  # half the pulses in expectation


def test_sifted_error_weight_exactly_one_quarter():
    # enumerate every branch: 4 prepared states x 2 Eve bases x 2 Bob bases,
    # with exact rational weights; keep only the sifted (Bob==Alice) subset
    error = Fraction(0)
    total = Fraction(0)
    for a_basis in (0, 1):
        for a_bit in (0, 1):
            for e_basis in (0, 1):
                # Eve's outcome distribution for this branch
                outcomes = [(a_bit, Fraction(1))] if e_basis == a_basis else [
                    (0, Fraction(1, 2)), (1, Fraction(1, 2))]
                for e_bit, w_e in outcomes:
                    for b_basis in (0, 1):
                        if b_basis != a_basis:
                            continue  # sifted out
                        branch = Fraction(1, 4) * Fraction(1, 2) * w_e * Fraction(1, 2)
                        if b_basis == e_basis:
                            # Bob reads Eve's bit deterministically
                            total += branch
                            if e_bit != a_bit:
                                error += branch
                        else:
                            # Bob's projection onto the conjugate basis is uniform
                            total += branch
                            error += branch * Fraction(1, 2)
    assert error / total == Fraction(1, 4)


def test_transform_identity_when_fraction_zero():
    rng = rng_stream(2, "e")
    bases = rng.integers(0, 2, 5000, dtype=np.uint8)
    bits = rng.integers(0, 2, 5000, dtype=np.uint8)
    eve = Eavesdropper(rng_stream(2, "ee"), fraction=0.0)
    out_bases, out_bits = eve.transform(bases, bits)
    assert np.array_equal(out_bases, bases)
    assert np.array_equal(out_bits, bits)


def test_intercept_measures_each_detected_pulse_once():
    tx = TxBurst(1000, 0x155, 0x2AA)
    src = np.array([0, 0, 3, 7, 7, 7, 999], dtype=np.int64)
    log = []
    eve = Eavesdropper(rng_stream(8, "e"), log=log)
    bases, bits = eve.intercept(tx, src)
    ((pulses, eve_bases, eve_bits),) = log
    assert pulses.tolist() == [0, 3, 7, 999]  # pulses, not photons
    # every photon of a pulse carries the one state Eve re-prepared it in
    row = np.searchsorted(pulses, src)
    assert np.array_equal(bases, eve_bases[row])
    assert np.array_equal(bits, eve_bits[row])
    # a pulse measured in its own basis keeps its bit
    alice_bases, alice_bits = tx.at(pulses)
    kept = eve_bases == alice_bases
    assert np.array_equal(eve_bits[kept], alice_bits[kept])


@pytest.mark.parametrize("fraction", [1.0, 0.5])
def test_intercept_across_draw_chunks_matches_transform_per_pulse(fraction):
    # src is read DRAW_CHUNK photons at a time: a pulse whose photons straddle a
    # chunk edge, or open a chunk, gets the one state transform gives it
    chunk = photonics.DRAW_CHUNK
    tx = TxBurst(4_000_000, 0x155, 0x2AA)
    src = np.sort(rng_stream(9, "src").integers(0, len(tx), 3 * chunk + 17)).astype(np.int32)
    src[chunk - 2:chunk + 3] = src[chunk - 2]
    src[2 * chunk - 1:2 * chunk + 1] = src[2 * chunk - 1]
    src[3 * chunk:3 * chunk + 2] = src[3 * chunk]
    assert src[3 * chunk - 1] < src[3 * chunk]
    log = []
    bases, bits = Eavesdropper(rng_stream(9, "e"), fraction, log=log).intercept(tx, src)
    pulses = np.unique(src)
    ref = Eavesdropper(rng_stream(9, "e"), fraction)
    eve_bases, eve_bits = ref.transform(*tx.at(pulses))
    row = np.searchsorted(pulses, src)
    assert bases.dtype == bits.dtype == np.uint8
    assert np.array_equal(bases, eve_bases[row])
    assert np.array_equal(bits, eve_bits[row])
    ((logged, log_bases, log_bits),) = log
    hit = ref.hit
    assert np.count_nonzero(hit) == pytest.approx(fraction * len(pulses), rel=0.02)
    assert np.array_equal(logged, pulses[hit])
    assert np.array_equal(log_bases, eve_bases[hit])
    assert np.array_equal(log_bits, eve_bits[hit])


def test_intercept_peak_memory_is_bounded_per_photon():
    # a 1-s burst's ~0.95 M photons: the one-byte output and per-pulse states, with
    # the run index made a draw chunk at a time, peak at ~4.3 bytes per photon; a
    # burst-long bool run-start mask and int32 run index took ~16, and an int64
    # diff, an int64 cumsum and its shifted copy ~24
    cfg = default_config(7)
    tx = generate_burst(cfg, rng_stream(7, "g"))
    src = detected_photons(cfg.n_pulses, cfg.link.mu, total_efficiency(cfg.link),
                           rng_stream(7, "d"))
    eve = Eavesdropper(rng_stream(7, "e"))
    (bases, _), peak = traced_peak(lambda: eve.intercept(tx, src))
    assert len(bases) == len(src) > 900_000
    assert peak <= 17.5 * len(src)


def test_no_eavesdropper_channel_is_identity():
    cfg = scaled_config(0.002, seed=3)
    tx = generate_burst(cfg, rng_stream(3, "g"))
    rx_plain = transmit_and_detect(tx, cfg, eve=None, rng=rng_stream(3, "c"))
    rx_again = transmit_and_detect(tx, cfg, eve=None, rng=rng_stream(3, "c"))
    assert np.array_equal(rx_plain.bin_index, rx_again.bin_index)
    assert np.array_equal(rx_plain.channel, rx_again.channel)


def test_fraction_validation():
    with pytest.raises(ValueError):
        Eavesdropper(rng_stream(4, "e"), fraction=1.5)


def test_eve_log_counts():
    rng = rng_stream(5, "e")
    bases = rng.integers(0, 2, 10_000, dtype=np.uint8)
    bits = rng.integers(0, 2, 10_000, dtype=np.uint8)
    half = Eavesdropper(rng_stream(5, "eh"), fraction=0.5)
    out_bases, out_bits = half.transform(bases, bits)
    altered = np.count_nonzero((out_bases != bases) | (out_bits != bits))
    # an intercepted pulse comes back altered iff Eve chose the other basis
    intercepted = np.count_nonzero(half.hit)
    assert altered <= intercepted
    assert intercepted == pytest.approx(5000, abs=300)
    assert altered == pytest.approx(0.5 * intercepted, rel=0.06)


def test_simulated_qber_with_eve_in_band():
    # the expected QBER is 1/4 + e_pol/2 = 0.2625; 8M pulses and a half-key
    # sample (~89K bits, sigma ~0.0015) put both band edges >=5 sigma away.
    # Scaled bursts keep a realistically sized sync subset (the offset search
    # needs enough pairs per candidate under Eve)
    cfg = scaled_config(0.4, seed=6, eve_enabled=True, sync_efficiency=0.98,
                        qber_sample_fraction=0.5)
    alice, _ = simulate_session(cfg, 1)
    outcome = alice.outcomes[0]
    assert outcome.aborted_reason == "qber"
    assert 0.23 <= outcome.qber <= 0.27
    assert outcome.secure_bits == 0
    assert len(alice.key_buffer) == 0


def test_partial_interception_scales_qber():
    # a half-key sample (~11K bits, sigma ~0.0034) puts both edges >=7 sigma away
    cfg = scaled_config(0.05, seed=7, eve_enabled=True, eve_fraction=0.5,
                        sync_efficiency=0.98, qber_sample_fraction=0.5)
    alice, _ = simulate_session(cfg, 1)
    # half interception halves the induced error: ~0.125 + intrinsic ~0.0125
    assert alice.outcomes[0].qber == pytest.approx(0.144, abs=0.025)
    assert alice.outcomes[0].aborted_reason == "qber"


# seeds of the sweep below: enough bursts for a standard error of ~0.001 on the mean
SWEEP_SEEDS = range(20)


@pytest.mark.parametrize("fraction", [1.0, 0.5])
def test_eavesdropped_qber_mean_over_seeds(fraction):
    # Intercept-resend with interception share f: a pulse Eve measured in Alice's
    # basis keeps the clean error q, one measured in the other basis errs with
    # probability 1/2, so the sifted QBER is f/4 + q - f*q/2 in expectation.  The
    # mean over 0.05-s bursts must lie within 3 standard errors of that, q being
    # the clean mean over the same seeds
    clean, eaves = [], []
    for seed in SWEEP_SEEDS:
        cfg = scaled_config(0.05, seed=seed, sync_efficiency=0.98, qber_sample_fraction=0.5)
        (o_clean,) = simulate_session(cfg, 1)[0].outcomes
        cfg_eve = dataclasses.replace(cfg, eve_enabled=True, eve_fraction=fraction)
        (o_eve,) = simulate_session(cfg_eve, 1)[0].outcomes
        assert o_clean.aborted_reason is None and o_eve.aborted_reason == "qber"
        clean.append(o_clean.qber)
        eaves.append(o_eve.qber)
    q = np.mean(clean)
    expected = fraction / 4 + q - fraction * q / 2
    se = np.hypot(np.std(eaves, ddof=1), (1 - fraction / 2) * np.std(clean, ddof=1))
    se /= np.sqrt(len(SWEEP_SEEDS))
    assert abs(np.mean(eaves) - expected) <= 3 * se, (np.mean(eaves), expected, se)
