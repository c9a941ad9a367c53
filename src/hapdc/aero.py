"""Aerodynamic drag and station-keeping propulsion power."""

from __future__ import annotations

from .config import HapPlatform


def _shape_factor(fineness: float) -> float:
    # hull shape polynomial in the length/diameter ratio
    return (0.172 * fineness ** (1.0 / 3.0)
            + 0.252 * fineness ** -1.2
            + 1.032 * fineness ** -2.7)


def reynolds(platform: HapPlatform, wind_speed: float) -> float:
    """Reynolds number of the flow around the hull diameter."""
    return platform.air_density * wind_speed * platform.body_diameter / platform.air_viscosity


def envelope_drag_coeff(platform: HapPlatform, wind_speed: float) -> float:
    re = reynolds(platform, wind_speed)
    if re <= 0.0:
        raise ValueError("envelope drag undefined for non-positive Reynolds number")
    return _shape_factor(platform.fineness_ratio) / re ** (1.0 / 6.0)


def drag_coeff(platform: HapPlatform, wind_speed: float) -> float:
    return platform.drag_constant * envelope_drag_coeff(platform, wind_speed)


def propulsion_power(platform: HapPlatform, wind_speed: float) -> float:
    """Propulsion power holding position against the wind, W.

    Exactly zero in still air.
    """
    if wind_speed == 0.0:
        return 0.0
    if wind_speed < 0.0:
        raise ValueError("wind_speed must be non-negative")
    return (platform.air_density / (2.0 * platform.propeller_efficiency)
            * wind_speed**3
            * platform.hap_velocity ** (2.0 / 3.0)
            * drag_coeff(platform, wind_speed))


def reduced_drag_coeff(platform: HapPlatform) -> float:
    """Wind-independent drag lump; propulsion power is wind^(17/6) times this."""
    return (platform.air_density ** (5.0 / 6.0)
            * platform.hap_velocity ** (2.0 / 3.0)
            / (2.0 * platform.propeller_efficiency)
            * platform.air_viscosity ** (1.0 / 6.0)
            * platform.drag_constant
            * _shape_factor(platform.fineness_ratio)
            / platform.body_diameter ** (1.0 / 6.0))


def propulsion_power_reduced(platform: HapPlatform, wind_speed: float) -> float:
    """Same power through the collapsed form; equal to propulsion_power."""
    if wind_speed == 0.0:
        return 0.0
    if wind_speed < 0.0:
        raise ValueError("wind_speed must be non-negative")
    return wind_speed ** (17.0 / 6.0) * reduced_drag_coeff(platform)
