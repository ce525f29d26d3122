import dataclasses
import hashlib
import threading

import numpy as np
import pytest

from qkdlink.core import (
    ConfigError,
    SimConfig,
    Worker,
    default_config,
    format_config,
    parse_config,
    rng_stream,
)


def test_default_operating_point():
    cfg = default_config()
    assert cfg.link.mu == 0.15
    assert cfg.link.prf_hz == 2.0e7
    assert cfg.link.dark_cps == 300.0
    assert cfg.link.sync_efficiency == 0.995
    assert cfg.link.qber_sample_fraction == 0.05
    assert cfg.link.distance_m == 300.0
    assert cfg.link.aperture_mm == 80.0
    assert cfg.link.divergence_urad == 66.0
    assert cfg.link.footprint0_mm == 30.2
    assert cfg.link.e_pol == 0.025


def test_efficiency_product_calibration():
    # residual loss solved so the four-factor product hits the measured total
    link = default_config().link
    product = link.eta_frontend * link.eta_decode * link.eta_detector * link.eta_residual
    assert product == pytest.approx(0.3164, abs=1e-12)
    assert link.eta_residual == pytest.approx(0.898, abs=2e-3)


def test_derived_geometry():
    cfg = default_config()
    assert cfg.n_pulses == 20_000_000
    assert cfg.bin_ns == pytest.approx(12.5)
    assert cfg.frame_ns == pytest.approx(50.0)
    assert cfg.sync_subset_size == 100_000
    assert cfg.tof_ns() == pytest.approx(1000.7, abs=0.1)


def test_rng_stream_deterministic():
    a = rng_stream(12345, "photon").random(1000)
    b = rng_stream(12345, "photon").random(1000)
    assert np.array_equal(a, b)


def test_rng_stream_labels_differ():
    a = rng_stream(12345, "photon").random(100)
    b = rng_stream(12345, "basis").random(100)
    assert not np.array_equal(a, b)


def _documented_stream(seed, label):
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed % 2**64, *words])))


# seeds on both sides of the 32-bit word boundaries, negative and wider than 64 bits
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, 2**70])
def test_rng_stream_is_the_documented_construction(seed):
    for label in ("photon", "channel:0", ""):
        want = _documented_stream(seed, label).integers(0, 2**63, 64)
        assert np.array_equal(rng_stream(seed, label).integers(0, 2**63, 64), want)


def test_rng_stream_label_cache_never_crosses_streams():
    labels = [f"txgen:{k}" for k in range(1500)]  # more labels than the cache holds
    for seed in (7, 2**40):
        for label in labels + labels[::-1]:
            assert rng_stream(seed, label).integers(0, 2**63) == \
                _documented_stream(seed, label).integers(0, 2**63), label


def test_rng_stream_seed_zero_valid():
    draws = rng_stream(0, "anything").random(100)
    assert len(np.unique(draws)) > 50  # no degenerate state


def test_config_roundtrip():
    cfg = default_config(rng_seed=42)
    again = parse_config(format_config(cfg))
    assert again == cfg


def test_config_fields_take_their_declared_types():
    # a hex literal parses only as an int; == alone cannot tell 42.0 from 42
    cfg = default_config(rng_seed=42)
    int_fields = [f.name for f in dataclasses.fields(SimConfig) if f.type == "int"]
    assert int_fields
    text = "".join(f"{name}={hex(getattr(cfg, name))}\n" for name in int_fields)
    again = parse_config(text + "eve_enabled=on\nburst_seconds=2\n")
    for name in int_fields:
        assert type(getattr(again, name)) is int
        assert getattr(again, name) == getattr(cfg, name)
    assert type(again.eve_enabled) is bool and again.eve_enabled
    assert type(again.burst_seconds) is float


def test_config_overrides():
    cfg = parse_config("link.mu=0.2\nburst_seconds=0.5\neve_enabled=true\n")
    assert cfg.link.mu == 0.2
    assert cfg.burst_seconds == 0.5
    assert cfg.eve_enabled is True


def test_config_comments_and_blanks():
    cfg = parse_config("# comment\n\nlink.mu=0.1\n")
    assert cfg.link.mu == 0.1


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("link.not_a_field=1\n")
    with pytest.raises(ConfigError):
        parse_config("mystery=1\n")
    with pytest.raises(ConfigError):
        parse_config("clock_spread_bins=0\n")


def test_config_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("link.mu=banana\n")
    with pytest.raises(ConfigError):
        parse_config("link.mu=-0.5\n")
    with pytest.raises(ConfigError):
        parse_config("pps_jitter_cap_ns=10\npps_jitter_sigma_ns=50\n")


def test_validate_catches_bad_fractions():
    cfg = default_config()
    bad = dataclasses.replace(cfg, link=dataclasses.replace(cfg.link, eta_detector=1.5))
    with pytest.raises(ConfigError):
        bad.validate()


@pytest.mark.parametrize("text", ["burst_seconds=0.01\nlink.sync_efficiency=1.0\n",
                                  "burst_seconds=0.000001\n"],  # 20 pulses: 0.1 sync pulses
                         ids=["all_pulses_keyed", "burst_too_short"])
def test_config_without_a_sync_pulse_is_refused(text):
    # frame sync could never lock: every burst would abort as no_lock
    with pytest.raises(ConfigError, match="sync subset holds 0 pulses"):
        parse_config(text)


@pytest.mark.parametrize("text, refusal", [
    ("burst_seconds=3.4\n", r"click keys span \[\d+, \d+\]"),
    ("tof_override_ns=1e10\n", r"click keys span \[\d+, \d+\]"),
    ("pps_jitter_cap_ns=1e10\n", r"click keys span \[-\d+, "),  # past both ends
    ("burst_seconds=3.3\n", None),
    # a NaN cap passed the checks above and then hung the 1PPS draw
    ("pps_jitter_cap_ns=nan\n", "must be finite"),
], ids=["burst_too_long", "keys_above_int32", "keys_below_int32", "burst_that_fits",
        "cap_not_finite"])
def test_config_whose_click_keys_leave_int32_is_refused(text, refusal):
    # decided from the configuration alone, before any burst is drawn
    if refusal is None:
        assert parse_config(text).n_pulses == 66_000_000
    else:
        with pytest.raises(ConfigError, match=refusal):
            parse_config(text)


def test_config_with_one_sync_pulse_is_accepted():
    assert parse_config("burst_seconds=0.00001\n").sync_subset_size == 1  # 200 pulses


# --- Worker ---------------------------------------------------------------------


def test_worker_returns_what_the_call_returned():
    ran_on = []

    def call():
        ran_on.append(threading.current_thread())
        return 42

    assert Worker(call).result(timeout=5) == 42
    assert ran_on[0] is not threading.current_thread()


def test_worker_raises_the_calls_own_exception():
    raised = ValueError("on the worker")

    def call():
        raise raised

    with pytest.raises(ValueError) as info:
        Worker(call).result(timeout=5)
    assert info.value is raised


def test_worker_still_running_after_the_timeout_raises_timeout_error():
    release = threading.Event()
    worker = Worker(lambda: release.wait(10))
    try:
        with pytest.raises(TimeoutError):
            worker.result(timeout=0.05)
    finally:
        release.set()
    assert worker.result(timeout=5) is True


def test_inline_worker_runs_the_call_at_once_without_a_thread(monkeypatch):
    started, ran_on = [], []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    worker = Worker(lambda: ran_on.append(threading.current_thread()) or "done", inline=True)
    assert ran_on == [threading.current_thread()]
    assert worker.result(timeout=0) == "done"
    assert started == []
