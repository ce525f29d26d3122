"""Configuration, the deterministic randomness contract, and the worker thread.

Everything downstream (photonics, timing, post-processing, the protocol
engine) builds on the configuration types defined here.  They are
immutable; random streams are created per consumer via :func:`rng_stream`
and never shared between modules.  :class:`Worker` is the one way the
package runs a call on a thread of its own: Bob's pulse encoding, the
in-process transmitter and the chat receiver.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT_M_PER_S = 299792458.0


class ConfigError(ValueError):
    """Invalid configuration value or unparseable configuration file."""


# the receiver's click keys, bin * 8 + channel: SimConfig.validate refuses a
# burst whose keys would leave this type
CLICK_KEY_DTYPE = np.int32


@dataclass(frozen=True)
class LinkBudget:
    """Optical and protocol parameters feeding both the analytic estimator and the Monte Carlo.

    Efficiencies are linear fractions in [0, 1].  ``eta_residual`` lumps
    pointing and atmospheric losses; it is calibrated so that the product of
    all four efficiency factors matches the measured end-to-end channel
    efficiency at the reference distance.
    """

    mu: float                    # mean photon number per pulse
    prf_hz: float                # pulse repetition frequency
    eta_frontend: float          # receiver front-end optics transmission
    eta_decode: float            # polarization decoding module transmission
    eta_detector: float          # single-photon detector efficiency
    eta_residual: float          # pointing + atmospheric residual
    distance_m: float
    aperture_mm: float           # receiver primary aperture diameter
    footprint0_mm: float         # beam footprint extrapolated to zero distance
    divergence_urad: float       # full beam divergence
    dark_cps: float              # dark + background counts per second, all channels
    e_pol: float                 # intrinsic polarization error probability
    sync_efficiency: float       # fraction of clicks left after frame-sync overhead
    qber_sample_fraction: float  # sifted-key fraction disclosed for QBER estimation

    def detector_chain_efficiency(self) -> float:
        """Front-end optics x decoder x SPD, i.e. everything behind the aperture."""
        return self.eta_frontend * self.eta_decode * self.eta_detector

    def validate(self) -> None:
        fractions = {
            "eta_frontend": self.eta_frontend,
            "eta_decode": self.eta_decode,
            "eta_detector": self.eta_detector,
            "eta_residual": self.eta_residual,
            "e_pol": self.e_pol,
            "sync_efficiency": self.sync_efficiency,
            "qber_sample_fraction": self.qber_sample_fraction,
        }
        for name, value in fractions.items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"link.{name} must be in [0, 1], got {value}")
        if self.mu < 0:
            raise ConfigError(f"link.mu must be >= 0, got {self.mu}")
        if self.prf_hz <= 0:
            raise ConfigError(f"link.prf_hz must be > 0, got {self.prf_hz}")
        if self.distance_m < 0:
            raise ConfigError(f"link.distance_m must be >= 0, got {self.distance_m}")
        if self.aperture_mm <= 0 or self.footprint0_mm <= 0:
            raise ConfigError("link aperture and footprint must be positive")
        if self.divergence_urad < 0 or self.dark_cps < 0:
            raise ConfigError("link divergence and dark rate must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    """Complete, reproducible description of one simulation / protocol run."""

    link: LinkBudget
    burst_seconds: float = 1.0
    bins_per_frame: int = 4
    pps_jitter_sigma_ns: float = 50.0
    pps_jitter_cap_ns: float = 100.0
    clock_center_prob: float = 0.6   # probability a click stays in its nominal bin (1: no jitter)
    eve_enabled: bool = False
    eve_fraction: float = 1.0        # fraction of pulses intercepted when Eve is on
    tof_override_ns: float = -1.0    # <0: derive time of flight from link.distance_m
    rng_seed: int = 1

    @property
    def n_pulses(self) -> int:
        return int(round(self.link.prf_hz * self.burst_seconds))

    @property
    def frame_ns(self) -> float:
        return 1e9 / self.link.prf_hz

    @property
    def bin_ns(self) -> float:
        return self.frame_ns / self.bins_per_frame

    @property
    def sync_subset_size(self) -> int:
        """Pulses at the head of each burst reserved for frame synchronization."""
        return int(round(self.n_pulses * (1.0 - self.link.sync_efficiency)))

    def tof_ns(self) -> float:
        if self.tof_override_ns >= 0:
            return self.tof_override_ns
        return self.link.distance_m / SPEED_OF_LIGHT_M_PER_S * 1e9

    def validate(self) -> None:
        self.link.validate()
        if self.burst_seconds <= 0:
            raise ConfigError("burst_seconds must be > 0")
        if self.bins_per_frame < 2:
            raise ConfigError("bins_per_frame must be >= 2")
        if self.pps_jitter_cap_ns < self.pps_jitter_sigma_ns:
            raise ConfigError("pps_jitter_cap_ns must be >= pps_jitter_sigma_ns")
        if self.pps_jitter_sigma_ns < 0:
            raise ConfigError("pps_jitter_sigma_ns must be >= 0")
        if not 0.0 <= self.clock_center_prob <= 1.0:
            raise ConfigError("clock_center_prob must be in [0, 1]")
        if not 0.0 <= self.eve_fraction <= 1.0:
            raise ConfigError("eve_fraction must be in [0, 1]")
        if self.sync_subset_size < 1:
            raise ConfigError("the sync subset holds 0 pulses: lower link.sync_efficiency "
                              "or lengthen the burst")
        # every click key lies in [8 * (floor((tof - cap) / bin) - 1), 8 * span) with
        # span = bins_per_frame * n_pulses + floor((tof + cap) / bin) + 2 bins
        tof, cap = self.tof_ns(), self.pps_jitter_cap_ns
        if not math.isfinite(tof + cap):
            raise ConfigError("the time of flight and pps_jitter_cap_ns must be finite")
        lo = 8 * (math.floor((tof - cap) / self.bin_ns) - 1)
        hi = 8 * (self.bins_per_frame * self.n_pulses + math.floor((tof + cap) / self.bin_ns) + 2)
        key = np.iinfo(CLICK_KEY_DTYPE)
        if lo < key.min or hi > key.max:
            raise ConfigError(f"click keys span [{lo}, {hi}], beyond {key.dtype}: shorten the "
                              "burst, the time of flight or the 1PPS cap")


def default_config(rng_seed: int = 1) -> SimConfig:
    """The reference operating point: 20 MHz WCP source, mu=0.15, 300 m link.

    ``eta_residual`` is calibrated so the efficiency product equals the
    measured 31.64% total channel efficiency.
    """
    eta_frontend = 0.667
    eta_decode = 0.7547
    eta_detector = 0.70
    eta_residual = 0.3164 / (eta_frontend * eta_decode * eta_detector)
    link = LinkBudget(
        mu=0.15,
        prf_hz=20e6,
        eta_frontend=eta_frontend,
        eta_decode=eta_decode,
        eta_detector=eta_detector,
        eta_residual=eta_residual,
        distance_m=300.0,
        aperture_mm=80.0,
        footprint0_mm=30.2,
        divergence_urad=66.0,
        dark_cps=300.0,
        e_pol=0.025,
        sync_efficiency=0.995,
        qber_sample_fraction=0.05,
    )
    return SimConfig(link=link, rng_seed=rng_seed)


def _uint32_words(n: int) -> list[int]:
    """An int >= 0 as ``SeedSequence`` splits it: 32-bit words, least significant first."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


@functools.lru_cache(maxsize=1024)
def _label_words(stream_label: str) -> tuple[int, ...]:
    digest = hashlib.sha256(stream_label.encode("utf-8")).digest()
    return tuple(w for i in range(0, 32, 8)
                 for w in _uint32_words(int.from_bytes(digest[i : i + 8], "big")))


def rng_stream(seed: int, stream_label: str) -> np.random.Generator:
    """Deterministic, labelled random stream.

    The same ``(seed, stream_label)`` pair always yields the same draws on
    any platform; distinct labels give statistically independent streams.
    The stream is ``PCG64(SeedSequence([seed mod 2**64, *label]))``, ``label`` the
    four big-endian 64-bit words of the label's sha256, handed over as uint32 words.
    """
    words = _uint32_words(seed & 0xFFFFFFFFFFFFFFFF) + list(_label_words(stream_label))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, np.uint32))))


class Worker:
    """``call()`` on a thread of its own, or at once on this one when ``inline``
    (a short burst does not pay for a thread); :meth:`result` hands its outcome
    to the caller."""

    def __init__(self, call, inline: bool = False):
        self._out = self._error = self._thread = None
        if inline:
            self._out = call()
            return
        self._call = call
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            self._out = self._call()
        except BaseException as exc:  # re-raised by result() on the caller's thread
            self._error = exc

    def result(self, timeout: float | None = None):
        """What the call returned, or the call's own exception raised here; raises
        ``TimeoutError`` if the call is still running after ``timeout`` seconds."""
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                name = getattr(self._call, "__qualname__", "the call")
                raise TimeoutError(f"{name} still running after {timeout} s")
        if self._error is not None:
            raise self._error
        return self._out


# --- configuration files -------------------------------------------------
#
# Flat key=value text, one entry per line, keys matching SimConfig field
# paths ("link.mu=0.15").  Blank lines and lines starting with '#' are
# ignored.  Unknown keys are an error.

# field name -> declared type, as the annotation string ("float", "int", "bool")
_LINK_FIELDS = {f.name: f.type for f in dataclasses.fields(LinkBudget)}
_TOP_FIELDS = {f.name: f.type for f in dataclasses.fields(SimConfig) if f.name != "link"}


def _coerce(key: str, raw: str, kind: str):
    """``raw`` as the field's declared ``kind``; ints accept any base prefix (0x, 0o, 0b)."""
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return int(raw, 0) if kind == "int" else float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_config(text: str) -> SimConfig:
    """Parse flat key=value configuration text, overriding the defaults."""
    cfg = default_config()
    link_updates: dict = {}
    top_updates: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key.startswith("link."):
            field = key[len("link."):]
            if field not in _LINK_FIELDS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            link_updates[field] = _coerce(key, raw, _LINK_FIELDS[field])
        elif key in _TOP_FIELDS:
            top_updates[key] = _coerce(key, raw, _TOP_FIELDS[key])
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    link = dataclasses.replace(cfg.link, **link_updates) if link_updates else cfg.link
    out = dataclasses.replace(cfg, link=link, **top_updates)
    out.validate()
    return out


def load_config(path: str | Path) -> SimConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config(text)


def format_config(cfg: SimConfig) -> str:
    """Render a config as key=value lines; parse_config(format_config(c)) == c."""
    lines = []
    for f in dataclasses.fields(LinkBudget):
        lines.append(f"link.{f.name}={getattr(cfg.link, f.name)!r}".replace("'", ""))
    for f in dataclasses.fields(SimConfig):
        if f.name == "link":
            continue
        lines.append(f"{f.name}={getattr(cfg, f.name)!r}".replace("'", ""))
    return "\n".join(lines) + "\n"
