"""Free-space BB84 QKD link simulator and two-terminal protocol engine.

Submodules: core (types, config, RNG), photonics (Monte Carlo link),
timing (synchronization), postproc (key distillation), eve (intercept-resend
emulation), analysis (closed-form rates), session (wire protocol and burst
state machine), securecomm (OTP messaging), cli (entry points).
"""

from .core import (
    LinkBudget,
    SimConfig,
    default_config,
    load_config,
    parse_config,
    rng_stream,
)

__version__ = "0.1.0"

__all__ = [
    "LinkBudget",
    "SimConfig",
    "default_config",
    "load_config",
    "parse_config",
    "rng_stream",
    "__version__",
]
