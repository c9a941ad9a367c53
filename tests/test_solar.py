"""Solar geometry and harvested power.

The calibration anchors are exact by construction: declination vanishes at
day 79.75 and tops out at the obliquity on day 171, and the equator sees a
half day of sun year round.
"""

import math

import numpy as np
import pytest

from hapdc import solar
from hapdc.config import HapPlatform
from hapdc.errors import PolarError


def irradiance(latitude_deg, day):
    """Mean daily radiation at one site, W/m^2, from ``solar._irradiance``;
    its PolarError is raised."""
    (value,), (error,) = solar._irradiance([latitude_deg], [day])
    if error is not None:
        raise error
    return float(value)


def test_declination_zero_crossing_exact():
    assert solar.declination(79.75) == 0.0


def test_declination_peak_exact():
    assert solar.declination(171.0) == 0.4093


def test_declination_range():
    days = np.arange(1, 366)
    d = np.array([solar.declination(x) for x in days])
    assert d.max() <= 0.4093 + 1e-15
    assert d.min() >= -0.4093 - 1e-15


def test_equator_half_day_every_day():
    for day in range(1, 366):
        assert solar.day_fraction(0.0, float(day)) == 0.5


def test_day_fraction_hemispheric_mirror():
    # the two hemispheres split the day: tau(-l) + tau(l) = 1
    for lat in (10.0, 25.0, 40.0, 55.0):
        for day in (20.0, 171.0, 250.0, 355.0):
            s = solar.day_fraction(lat, day) + solar.day_fraction(-lat, day)
            assert abs(s - 1.0) < 1e-12


def test_day_fraction_summer_longer():
    assert solar.day_fraction(45.0, 171.0) > 0.5
    assert solar.day_fraction(45.0, 355.0) < 0.5


def test_polar_night_raises():
    with pytest.raises(PolarError):
        solar.day_fraction(80.0, 171.0)
    with pytest.raises(PolarError):
        solar.day_fraction(-80.0, 171.0)


def test_irradiance_bounded_by_max_radiation():
    for lat in (-50.0, -20.0, 0.0, 20.0, 50.0):
        for day in (15.0, 100.0, 200.0, 330.0):
            g = irradiance(lat, day)
            assert 0.0 < g <= solar.max_radiation(lat, day)


def test_equator_irradiance_even_in_declination():
    # days d and 159.5 - d have opposite declinations; at the equator the
    # noon zenith angle |0 - dec| is the same for both, so once the orbit
    # eccentricity factor is divided out the two irradiances agree
    def ecc(day):
        return 1.0 + solar.ECCENTRICITY_FACTOR * math.cos(2.0 * math.pi * day / 365.0)

    for day in range(0, 366):
        mirror = (159.5 - day) % 365.0
        assert math.isclose(solar.declination(mirror), -solar.declination(day),
                            rel_tol=1e-12, abs_tol=1e-15)
        a = irradiance(0.0, day) / ecc(day)
        b = irradiance(0.0, mirror) / ecc(mirror)
        assert math.isclose(a, b, rel_tol=1e-14), (day, a, b)


def test_max_incidence_angle_at_least_right_angle():
    for lat in range(-90, 91, 5):
        for day in range(0, 366, 7):
            assert solar.max_incidence_angle(float(lat), float(day)) >= math.pi / 2.0


def test_max_radiation_seasonal_asymmetry():
    # northern summer beats northern winter at mid latitude
    assert solar.max_radiation(40.0, 171.0) > solar.max_radiation(40.0, 355.0)


def test_harvested_power_scaling():
    """Harvested power is irradiance times area times efficiency."""
    p = HapPlatform()
    g = irradiance(40.0, 150.0)
    expect = p.pv_efficiency * p.pv_area * g
    assert math.isclose(solar.harvested_power(p, 40.0, 150.0), expect,
                        rel_tol=1e-12)
    half = HapPlatform(pv_area=p.pv_area / 2)
    assert math.isclose(solar.harvested_power(half, 40.0, 150.0), expect / 2,
                        rel_tol=1e-12)


def test_harvested_energy_is_power_times_span():
    # an energy over a window is the harvest column times the span, as the
    # flight check bills it, and each point's power is the one-point call's
    p = HapPlatform()
    power, errors = solar.harvest(p, [30.0, 60.0], [120.0, 200.0])
    assert errors == [None, None]
    energy = power * (4600.0 - 1000.0)
    for k, (lat, day) in enumerate([(30.0, 120.0), (60.0, 200.0)]):
        assert math.isclose(energy[k],
                            solar.harvested_power(p, lat, day) * 3600.0,
                            rel_tol=1e-12)


def test_solar_constant_value():
    assert solar.SOLAR_CONSTANT == 1366.1
    assert solar.OBLIQUITY == 0.4093
