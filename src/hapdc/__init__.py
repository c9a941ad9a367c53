"""Energy and delay model of a stratospheric platform that offloads work
from a terrestrial data center.

The package splits into physics (solar, aero, thermal), the offload link
(specfun, channel), service dynamics (queueing), the system-level ledger
(offload), and batch tooling (sweeps, cli, validate).
"""

from ._version import __version__
from .config import (ChannelConfig, CoolingSpec, FanSpec, HapPlatform,
                     ModelConfig, Scenario, ServerSpec, WindSpec,
                     WorkloadSpec, build_config, config_hash, load_config)
from .errors import (ConfigError, LinkRateError, LinkSaturationWarning,
                     NumericsError, OverloadError, PolarError, StabilityError,
                     ValidationError)
from .sweeps import (SweepResult, SweepSpec, run_delay_sweep,
                     run_energy_sweep, run_flying_sweep, run_outage_sweep)

__all__ = [
    "__version__",
    "ChannelConfig", "CoolingSpec", "FanSpec", "HapPlatform", "ModelConfig",
    "Scenario", "ServerSpec", "WindSpec", "WorkloadSpec",
    "build_config", "config_hash", "load_config",
    "ConfigError", "LinkRateError", "LinkSaturationWarning", "NumericsError",
    "OverloadError", "PolarError", "StabilityError", "ValidationError",
    "SweepResult", "SweepSpec", "run_delay_sweep", "run_energy_sweep",
    "run_flying_sweep", "run_outage_sweep",
]
