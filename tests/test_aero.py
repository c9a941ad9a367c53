"""Propulsion drag power: dual formulas and edge cases."""

import math

import numpy as np
import pytest

from hapdc import aero
from hapdc.config import HapPlatform


def test_propulsion_power_reference_value():
    p = HapPlatform()
    got = aero.propulsion_power(p, 20.0)
    assert math.isclose(got, 89.2777, rel_tol=1e-5)


def test_still_air_costs_nothing():
    assert aero.propulsion_power(HapPlatform(), 0.0) == 0.0
    assert aero.propulsion_power_reduced(HapPlatform(), 0.0) == 0.0


def test_negative_speed_rejected():
    with pytest.raises(ValueError):
        aero.propulsion_power(HapPlatform(), -1.0)
    with pytest.raises(ValueError):
        aero.propulsion_power_reduced(HapPlatform(), -2.0)


def test_drag_coefficient_envelope_scaling():
    p = HapPlatform()
    base = aero.envelope_drag_coeff(p, 20.0)
    assert math.isclose(aero.drag_coeff(p, 20.0), p.drag_constant * base,
                        rel_tol=1e-12)


def test_zero_wind_reynolds_rejected():
    with pytest.raises(ValueError):
        aero.envelope_drag_coeff(HapPlatform(), 0.0)


def test_power_formulations_agree():
    """The spelled-out drag form and the reduced-coefficient form must
    match to near machine precision over a wide random parameter sweep."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = HapPlatform(
            air_density=float(rng.uniform(0.01, 1.2)),
            air_viscosity=float(rng.uniform(5e-6, 5e-5)),
            propeller_efficiency=float(rng.uniform(0.3, 0.95)),
            body_length=float(rng.uniform(20.0, 200.0)),
            body_diameter=float(rng.uniform(5.0, 60.0)),
            hap_velocity=float(rng.uniform(0.1, 50.0)),
            drag_constant=float(rng.uniform(1.0, 3.0)),
        )
        v = float(rng.uniform(0.1, 60.0))
        a = aero.propulsion_power(p, v)
        b = aero.propulsion_power_reduced(p, v)
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_power_grows_with_wind_speed():
    p = HapPlatform()
    speeds = [5.0, 10.0, 20.0, 40.0]
    powers = [aero.propulsion_power(p, v) for v in speeds]
    assert powers == sorted(powers)
    # drag falls slightly with Reynolds number, so the net exponent is 17/6
    assert math.isclose(powers[2] / powers[1], 2.0 ** (17.0 / 6.0),
                        rel_tol=1e-12)
