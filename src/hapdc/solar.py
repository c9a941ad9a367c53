"""Solar geometry and harvested power for a high-altitude platform.

Latitude crosses the API boundary in degrees; all trigonometry runs in
radians.  Day of year is continuous (0..365, fractional allowed).

The flight check is elementwise: ``harvest`` prices columns of sites with
each point's PolarError, and the scalar functions are one-point calls.
numpy's tan and arccos round otherwise than ``math``'s, so those two are
taken per element with ``math``.
"""

from __future__ import annotations

import math

import numpy as np

from .config import HapPlatform
from .errors import PolarError

SOLAR_CONSTANT = 1366.1  # W/m^2
OBLIQUITY = 0.4093  # rad, also the declination amplitude
ECCENTRICITY_FACTOR = 0.033

_TWO_PI = 2.0 * math.pi
_TAN, _ACOS = np.frompyfunc(math.tan, 1, 1), np.frompyfunc(math.acos, 1, 1)


def declination(day):
    """Solar declination in radians; zero at day 79.75, peak at day 171."""
    return OBLIQUITY * np.sin(_TWO_PI * ((day - 79.75) / 365.0))


def solar_azimuth(day):
    """Azimuthal position of the sun along the ecliptic, radians."""
    m = -0.041 + 0.017202 * day  # mean anomaly
    return -1.3411 + m + 0.0334 * np.sin(m) + 0.0003 * np.sin(2.0 * m)


def _flag(errors: list, where: np.ndarray, text: str, latitudes, days):
    """``errors`` with a PolarError ``text`` at each point of ``where``."""
    for k in np.flatnonzero(where).tolist():
        errors[k] = PolarError(
            f"{text} at latitude {latitudes[k]} deg, day {days[k]}")
    return errors


def _day_fractions(latitudes, days) -> tuple[np.ndarray, list]:
    """``day_fraction`` at each (latitude, day), and its PolarError."""
    lat, day = np.radians(np.asarray(latitudes, float)), np.asarray(days, float)
    s = math.sin(OBLIQUITY) * np.sin(solar_azimuth(day))
    arg = _TAN(lat).astype(float) * s / np.sqrt(1.0 - s * s)
    polar = ~((arg >= -1.0) & (arg <= 1.0))
    fraction = 1.0 - _ACOS(np.where(polar, 0.0, arg)).astype(float) / math.pi
    return fraction, _flag([None] * len(arg), polar,
                           "continuous polar day/night", latitudes, days)


def day_fraction(latitude_deg: float, day: float) -> float:
    """Sunlit fraction of the day in [0, 1]; PolarError inside the polar
    circles (roughly beyond 66 deg, date-dependent)."""
    return _one(*_day_fractions([latitude_deg], [day]))


def max_incidence_angle(latitude_deg, day):
    """Largest solar incidence angle over the day, radians.

    It is pi/2 plus the noon zenith angle |latitude - declination|, so it
    is the same on both sides of the subsolar latitude and never below
    pi/2.
    """
    lat = np.radians(latitude_deg)
    dec = declination(day)
    return np.where(lat >= dec, math.pi / 2.0 + lat - dec,
                    math.pi / 2.0 + dec - lat)[()]


def max_radiation(latitude_deg, day):
    """Peak extraterrestrial radiation for the site and date, W/m^2."""
    ecc = 1.0 + ECCENTRICITY_FACTOR * np.cos(_TWO_PI * (day / 365.0))
    return SOLAR_CONSTANT * ecc * np.cos(np.radians(latitude_deg) - declination(day))


def _irradiance(latitudes, days) -> tuple[np.ndarray, list]:
    """Mean daily radiation on the platform's panels at each (latitude,
    day), W/m^2, and its PolarError or None; the incidence check goes
    before the day fraction's."""
    lat, day = np.asarray(latitudes, float), np.asarray(days, float)
    xi = max_incidence_angle(lat, day)
    tau, errors = _day_fractions(latitudes, days)
    _flag(errors, xi > math.pi, "sun geometry out of range", latitudes, days)
    return tau * max_radiation(lat, day) * (1.0 - np.cos(xi)) / xi, errors


def _one(values: np.ndarray, errors: list) -> float:
    """The one point of an elementwise answer; its error is raised."""
    if errors[0] is not None:
        raise errors[0]
    return float(values[0])


def harvest(platform: HapPlatform, latitudes, days) -> tuple[np.ndarray, list]:
    """``harvested_power`` at each (latitude, day), W, and its PolarError."""
    power, errors = _irradiance(latitudes, days)
    return platform.pv_efficiency * platform.pv_area * power, errors


def harvested_power(platform: HapPlatform, latitude_deg: float, day: float) -> float:
    """Mean harvested electrical power over the day, W."""
    return _one(*harvest(platform, [latitude_deg], [day]))
