"""Shared fixtures and the acceptance-summary hook."""

import copy
import dataclasses
import socket
import tracemalloc

import numpy as np
import pytest

from qkdlink.core import SimConfig, default_config
from qkdlink.photonics import detector_entries, transmit_and_detect

# (criterion number, label, passed, detail) tuples collected by test_acceptance
_ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


@pytest.fixture
def acceptance_recorder():
    def record(criterion: int, label: str, passed: bool, detail: str) -> None:
        _ACCEPTANCE_RESULTS.append((criterion, label, passed, detail))
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, label, ok, detail in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num} [{label}]: {status} ({detail})")


def scaled_config(burst_seconds: float, seed: int = 1, **overrides):
    """Default operating point with a shorter burst for fast tests."""
    cfg = dataclasses.replace(default_config(seed), burst_seconds=burst_seconds)
    if overrides:
        link_fields = {f.name for f in dataclasses.fields(cfg.link)}
        link_kw = {k: v for k, v in overrides.items() if k in link_fields}
        top_kw = {k: v for k, v in overrides.items() if k not in link_fields}
        if link_kw:
            cfg = dataclasses.replace(cfg, link=dataclasses.replace(cfg.link, **link_kw))
        if top_kw:
            cfg = dataclasses.replace(cfg, **top_kw)
    return cfg


def noiseless_config(burst_seconds: float = 0.001, seed: int = 1, **overrides):
    """All noise sources off: exact decoding, no jitter, no darks, zero offsets."""
    kw = dict(
        e_pol=0.0,
        dark_cps=0.0,
        pps_jitter_sigma_ns=0.0,
        clock_center_prob=1.0,
        tof_override_ns=0.0,
    )
    kw.update(overrides)
    return scaled_config(burst_seconds, seed, **kw)


def merge_by_unique(key, src):
    """Reference merge: one np.unique over the keys, a second over the merged bins.

    ``src`` holds the pulses of the signal entries, which come first in
    ``key``; the entries after them are dark counts.  Returns ``(bins,
    channel, multi_click, source)``, where of equal keys the first entry gives
    the click its source pulse (-1 for a dark count).
    """
    src = np.concatenate([src, np.full(len(key) - len(src), -1, dtype=np.int64)])
    uniq, first = np.unique(key, return_index=True)
    bin_u = uniq // 8
    _, bin_count = np.unique(bin_u, return_counts=True)
    return bin_u, (uniq % 8).astype(np.uint8), np.repeat(bin_count > 1, bin_count), src[first]


def detect_with_sources(tx, cfg: SimConfig, *, rng):
    """``(rx, source)``: the shipped ``transmit_and_detect`` clicks and the
    pulse behind each (-1 for a dark count).

    The source pulses are simulator ground truth.  They come from the same
    detector entries, merged by :func:`merge_by_unique` with signal entries
    ahead of dark counts, and that merge must give the shipped clicks.
    """
    rx = transmit_and_detect(tx, cfg, rng=copy.deepcopy(rng))
    key, src, _, _ = detector_entries(tx, cfg, rng=rng)
    bins, channel, multi, source = merge_by_unique(key, src)
    assert np.array_equal(bins, rx.bin_index)
    assert np.array_equal(channel, rx.channel) and np.array_equal(multi, rx.multi_click)
    return rx, source


def count_split_events(rx, source, shift: int, cfg: SimConfig) -> int:
    """Clicks whose jitter pushed them across a frame edge under the framing
    whose boundaries come ``shift`` bins early.

    Uses simulator ground truth (each click's source pulse, from
    :func:`detect_with_sources`, and the injected bin offset), so it is a
    diagnostic for tests, not part of the protocol.
    """
    signal = source >= 0
    nominal = cfg.bins_per_frame * source[signal] + rx.true_bin_offset
    actual_frame = (rx.bin_index[signal] + shift) // cfg.bins_per_frame
    nominal_frame = (nominal + shift) // cfg.bins_per_frame
    return int(np.count_nonzero(actual_frame != nominal_frame))


def traced_peak(call):
    """``(call(), peak bytes that call allocated)``, measured by tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def free_port() -> int:
    """A loopback port that was free a moment ago (a terminal needs one)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture
def small_cfg():
    return scaled_config(0.01)  # 200K pulses


@pytest.fixture
def tiny_cfg():
    return scaled_config(0.001)  # 20K pulses
