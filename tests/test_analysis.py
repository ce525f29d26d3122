import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlink.analysis import (
    click_prob,
    distance_sweep,
    estimate_rates,
    format_rate_table,
    poisson_pmf,
    total_efficiency,
    trigger_prob,
    write_sweep_csv,
)
from conftest import scaled_config
from qkdlink.core import default_config
from qkdlink.session import simulate_session


LINK = default_config().link


def test_poisson_pmf_values():
    assert poisson_pmf(0, 0.15) == pytest.approx(math.exp(-0.15), rel=1e-12)
    assert poisson_pmf(0, 0.15) == pytest.approx(0.8607, abs=1e-4)
    assert poisson_pmf(0, 0.0) == 1.0
    assert poisson_pmf(3, 0.0) == 0.0


def test_poisson_pmf_normalizes():
    total = sum(poisson_pmf(i, 0.15) for i in range(51))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_trigger_prob_values():
    assert trigger_prob(1, 0.3164) == pytest.approx(0.3164, rel=1e-12)
    assert trigger_prob(0, 0.99) == 0.0
    assert trigger_prob(2, 0.5) == pytest.approx(0.75, rel=1e-12)


def test_click_prob_value():
    assert click_prob(0.15, 0.3164) == pytest.approx(0.046352, abs=1e-6)
    assert click_prob(0.0, 0.3164) == 0.0


def test_click_prob_series_agrees_with_closed_form():
    # the photon-number sum, truncated at 100 photons
    for mu in (0.05, 0.15, 0.5, 1.0):
        for eta in (0.1, 0.3164, 0.9, 1.0):
            series = sum(trigger_prob(i, eta) * poisson_pmf(i, mu) for i in range(101))
            assert series == pytest.approx(click_prob(mu, eta), abs=1e-12)


def test_estimate_reference_rates():
    est = estimate_rates(LINK)
    # expected values against the published operating point, +-1.5%
    assert abs(est.clicks_per_s - 920e3) <= 0.015 * 920e3
    assert abs(est.clicks_after_sync - 915e3) <= 0.015 * 915e3
    assert abs(est.secure_rate - 299e3) <= 0.015 * 299e3


def test_estimate_zero_mu():
    import dataclasses
    est = estimate_rates(dataclasses.replace(LINK, mu=0.0))
    assert est.q_mu == est.clicks_per_s == est.secure_rate == 0.0


def test_estimate_chain_ordering():
    est = estimate_rates(LINK)
    assert est.clicks_after_sync <= est.clicks_per_s
    assert est.sifted_rate <= est.clicks_after_sync
    assert est.secure_rate <= est.sifted_rate


def test_sweep_anchors():
    rows = dict(distance_sweep(LINK, [0.0, 750.0, 2500.0]))
    assert rows[750.0] >= 280e3
    assert 40e3 <= rows[2500.0] <= 60e3
    # zero distance equals the non-geometric ceiling
    assert rows[0.0] == pytest.approx(estimate_rates(LINK).secure_rate, rel=1e-12)


def test_sweep_monotone_non_increasing():
    distances = list(np.linspace(0, 5000, 26))
    rates = [r for _, r in distance_sweep(LINK, distances)]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_sweep_rejects_negative_distance():
    with pytest.raises(ValueError):
        distance_sweep(LINK, [-5.0])


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 5000), st.floats(0, 5000))
def test_rate_monotone_in_distance_property(d1, d2):
    lo, hi = sorted((d1, d2))
    assert estimate_rates(LINK, distance_m=lo).secure_rate >= \
        estimate_rates(LINK, distance_m=hi).secure_rate - 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_rate_monotone_in_detector_efficiency(e1, e2):
    import dataclasses
    lo, hi = sorted((e1, e2))
    r_lo = estimate_rates(dataclasses.replace(LINK, eta_detector=lo)).secure_rate
    r_hi = estimate_rates(dataclasses.replace(LINK, eta_detector=hi)).secure_rate
    assert r_hi >= r_lo - 1e-9


def test_total_efficiency_geometry_coupling():
    assert total_efficiency(LINK) == pytest.approx(0.3164, abs=1e-9)
    assert total_efficiency(LINK, distance_m=2500) < total_efficiency(LINK)


def test_sweep_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(distance_sweep(LINK, [0, 300, 750]), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "distance_m,secure_kbps"
    assert len(lines) == 4
    assert float(lines[2].split(",")[1]) == pytest.approx(301.2, abs=5)


def test_rate_table_mentions_key_numbers():
    table = format_rate_table(LINK)
    assert "31.64%" in table
    assert "Kbps" in table


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("distance_m", [0.0, 750.0, 2500.0])
def test_monte_carlo_locks_at_sweep_anchor(distance_m, seed):
    # the simulated link locks and sifts at the rate the analytic sweep assumes
    cfg = scaled_config(0.1, seed=seed, distance_m=distance_m)
    alice, _ = simulate_session(cfg, 1)
    outcome = alice.outcomes[0]
    assert outcome.aborted_reason is None
    assert outcome.qber <= 0.05  # a wrong offset gives a QBER near 1/2
    expected = estimate_rates(cfg.link).sifted_rate * cfg.burst_seconds
    assert outcome.sifted_bits == pytest.approx(expected, rel=0.05)
