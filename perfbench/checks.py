"""Correctness checks on the outputs of the benchmark's workloads.

Each check takes plain outputs and returns the failure causes it finds, an
empty list meaning correct.  None of them compares against a stored copy of
earlier output: the references are the closed-form model
(``qkdlink.analysis``), the acceptance criteria's bands, the simulator's
ground truth and the protocol's own invariants.
"""

from __future__ import annotations

import math

from qkdlink.analysis import estimate_rates

# Criterion 2's QBER band for a clean 1-s burst at the default configuration.
CLEAN_QBER_BAND = (0.02, 0.032)
# Sifted bits may differ from the closed-form estimate by this share.  Counting
# noise is ~0.15% (sqrt of ~450 K bits); the rest covers what the closed-form
# model leaves out: multi-click and competing-click discards, dark counts, and
# that it treats every click as one pulse.
SIFTED_REL_TOL = 0.03
# An eavesdropped burst's QBER may differ from 1/4 + e_pol/2 by this many
# standard deviations of its disclosed sample.
EVE_QBER_SIGMAS = 6.0


def offset_window(cfg) -> tuple[int, int]:
    """Whole-frame offsets R_N consistent with time of flight +- the 1PPS cap.

    The true bin offset lies in floor((tof +- cap) / bin_ns); the recovered
    one is bins_per_frame * R_N + central - shift with central in
    [0, bins_per_frame) and shift in {0, bins_per_frame // 2}.
    """
    b = cfg.bins_per_frame
    lo = math.floor((cfg.tof_ns() - cfg.pps_jitter_cap_ns) / cfg.bin_ns)
    hi = math.floor((cfg.tof_ns() + cfg.pps_jitter_cap_ns) / cfg.bin_ns)
    return math.ceil((lo - (b - 1)) / b), math.floor((hi + b // 2) / b)


def expected_sifted_bits(cfg) -> float:
    return estimate_rates(cfg.link).sifted_rate * cfg.burst_seconds


def check_clean_burst(outcome, cfg) -> list[str]:
    """A clean burst yields key, with sifted bits, QBER and R_N where the model puts them."""
    if outcome.aborted_reason is not None:
        return [f"aborted_{outcome.aborted_reason}"]
    causes = []
    expected = expected_sifted_bits(cfg)
    if abs(outcome.sifted_bits - expected) > SIFTED_REL_TOL * expected:
        causes.append("sifted_off_model")
    if not CLEAN_QBER_BAND[0] <= outcome.qber <= CLEAN_QBER_BAND[1]:
        causes.append("qber_out_of_band")
    lo, hi = offset_window(cfg)
    if not lo <= outcome.offset_frames <= hi:
        causes.append("offset_out_of_window")
    if outcome.secure_bits <= 0:
        causes.append("no_key")
    return causes


def expected_eve_qber(cfg) -> float:
    """Intercept-resend: half the pulses are re-prepared in the wrong basis (error 1/2),
    the other half keep the link's own polarization error."""
    return 0.25 + cfg.link.e_pol / 2


def check_eve_burst(outcome, cfg, key_bits_added: int) -> list[str]:
    """An eavesdropped burst aborts on QBER near 1/4 + e_pol/2 and adds no key."""
    causes = []
    if outcome.aborted_reason != "qber":
        causes.append("eve_not_detected")
    n_sample = max(1, round(outcome.sifted_bits * cfg.link.qber_sample_fraction))
    q = expected_eve_qber(cfg)
    if abs(outcome.qber - q) > EVE_QBER_SIGMAS * math.sqrt(q * (1 - q) / n_sample):
        causes.append("eve_qber_off")
    if key_bits_added or outcome.secure_bits:
        causes.append("eve_key_added")
    return causes


def check_keys_equal(*keys: bytes) -> list[str]:
    """All key byte strings are non-empty and identical."""
    if not keys[0] or any(k != keys[0] for k in keys[1:]):
        return ["key_mismatch"]
    return []


def check_sync_trial(recovered_bin_offset: int, true_bin_offset: int) -> list[str]:
    return [] if recovered_bin_offset == true_bin_offset else ["wrong_offset"]


def check_otp(sent: bytes, received: bytes) -> list[str]:
    return [] if sent == received else ["payload_mismatch"]


def check_key_ledger(issued_ranges, consumed_total: int, expected_bits: int) -> list[str]:
    """No key bit issued twice, and exactly the expected number of bits consumed."""
    causes = []
    spans = sorted(issued_ranges)
    if any(stop > start for (_, stop), (start, _) in zip(spans, spans[1:])):
        causes.append("key_reuse")
    if consumed_total != expected_bits:
        causes.append("consumed_mismatch")
    return causes
