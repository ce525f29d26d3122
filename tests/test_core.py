import dataclasses

import numpy as np
import pytest

from qkdlink.core import (
    ConfigError,
    SimConfig,
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
