"""Energy and delay model of a stratospheric platform that offloads work
from a terrestrial data center.

The package splits into physics (solar, aero, thermal), the offload link
(specfun, channel), service dynamics (queueing), the system-level ledger
(offload), and batch tooling (sweeps, cli, validate).
"""

from ._version import __version__
from .config import (ChannelConfig, CoolingSpec, FanSpec, HapPlatform,
                     ModelConfig, Scenario, ServerSpec, WindSpec,
                     WorkloadSpec, build_config, config_hash, load_config,
                     uniform_split)
from .errors import (ConfigError, LinkRateError, LinkSaturationWarning,
                     NumericsError, OverloadError, PolarError, StabilityError,
                     ValidationError)
from .offload import (DelayReport, FlyingAssessment, SavingReport,
                      allocate_rates, end_to_end_delay, flying_condition,
                      fly_point, lambda_max, saving)
from .sweeps import (SweepResult, SweepSpec, run_delay_sweep,
                     run_energy_sweep, run_flying_sweep, run_outage_sweep)

__all__ = [
    "__version__",
    "ChannelConfig", "CoolingSpec", "FanSpec", "HapPlatform", "ModelConfig",
    "Scenario", "ServerSpec", "WindSpec", "WorkloadSpec",
    "build_config", "config_hash", "load_config", "uniform_split",
    "ConfigError", "LinkRateError", "LinkSaturationWarning", "NumericsError",
    "OverloadError", "PolarError", "StabilityError", "ValidationError",
    "DelayReport", "FlyingAssessment", "SavingReport",
    "allocate_rates", "end_to_end_delay", "flying_condition", "fly_point",
    "lambda_max", "saving",
    "SweepResult", "SweepSpec", "run_delay_sweep", "run_energy_sweep",
    "run_flying_sweep", "run_outage_sweep",
]
