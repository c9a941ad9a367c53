"""Server compute power, transient heat flow and CRAC cooling energy.

The transient model tracks each server's inlet and CPU temperature from the
configured initial state toward steady state.  Cooling energy over a window
has a closed form (sum of exponential relaxations); tests check it against
direct quadrature of the instantaneous cooling power.

The fleet bills price a rows x servers array, one fleet per row, in one
array pass; one fleet's rate vector is priced as the one-row batch.  Each
server's power and heat addend is the scalar expression evaluated
elementwise, each CRAC's heat is summed in server order with
``np.add.accumulate`` (strictly sequential, so it rounds as a scalar loop
does), the CRAC totals are added in CRAC order, and a fleet's compute
energy is one correctly rounded ``math.fsum``.  A batch row over the
utilization ceiling holds the OverloadError naming its first server over
it in place of its bill; a single fleet raises it.  ``ground_energy`` is
the one ground bill, compute plus cooling, that the all-ground baseline
and the split system's ground side both pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CoolingSpec, ModelConfig, Scenario, ServerSpec
from .errors import OverloadError

KELVIN_OFFSET = 273.15

ServerLoad = tuple[ServerSpec, float]


def utilization(server: ServerSpec, rate, task_len: float):
    """Fraction of the service rate consumed by ``rate`` tasks/s (a number
    or an array of per-server rates)."""
    return task_len * rate / server.service_rate_ips


def _overload(server: ServerSpec, u) -> OverloadError:
    """The OverloadError of a server at utilization ``u``."""
    return OverloadError(
        f"utilization {u:.4f} exceeds ceiling {server.desired_utilization}")


def compute_power(server: ServerSpec, rate, task_len: float):
    """Electrical draw at the given arrival rate, W; linear idle-to-peak.

    ``rate`` is one rate or an array of them, one per server; the
    OverloadError names the first server over the ceiling."""
    u = utilization(server, rate, task_len)
    over = np.ravel(u > server.desired_utilization * (1.0 + 1e-12))
    if over.any():
        raise _overload(server, np.ravel(u)[over.argmax()])
    return server.p_idle + (server.p_peak - server.p_idle) * u


def _billed(server: ServerSpec, rates, task_len: float, bill, *args):
    """``bill(power, *args)`` of the per-server power at ``rates``, a rows x
    servers batch, one fleet per row: a list of each row's bill or its
    OverloadError.  One fleet's rate vector is the one-row batch, and its
    row's bill is returned or its error raised.  ``bill`` prices each fleet
    along the last axis of ``power``.
    """
    rates = np.asarray(rates, dtype=float)
    # a row over the ceiling is priced, then its bill replaced
    u = utilization(server, np.atleast_2d(rates), task_len)
    over = u > server.desired_utilization * (1.0 + 1e-12)
    bills = bill(server.p_idle + (server.p_peak - server.p_idle) * u, *args)
    for row in np.flatnonzero(over.any(axis=1)):
        bills[row] = _overload(server, u[row, over[row].argmax()])
    if rates.ndim == 2:
        return bills
    if isinstance(bills[0], OverloadError):
        raise bills[0]
    return bills[0]


def _compute_bill(power: np.ndarray, window: tuple[float, float]):
    """Compute energy over the window of each fleet along the last axis of
    ``power``: one correctly rounded sum per fleet, J."""
    return list(map(math.fsum, (power * (window[1] - window[0])).tolist()))


def fleet_compute_energy(server: ServerSpec, rates, task_len: float,
                         window: tuple[float, float]):
    """Compute energy of a fleet at per-server ``rates`` over the window, J:
    one correctly rounded sum of the per-server energies.  A rows x servers
    batch gets a list of each row's energy or its OverloadError."""
    return _billed(server, rates, task_len, _compute_bill, window)


def cop(cooling: CoolingSpec, temp_k: float) -> float:
    """CRAC coefficient of performance at the given air temperature."""
    t = temp_k - KELVIN_OFFSET if cooling.cop_in_celsius else temp_k
    return 0.0068 * t * t + 0.008 * t + 0.458


class ThermalTrace:
    """Transient temperatures of a single server under one CRAC.

    Component route: the removed heat follows from the inlet/outlet pair,
    heat = C_air*f_air*(t_out - t_in).  The aggregated closed form in
    ``heat_removed`` must match it.
    """

    def __init__(self, server: ServerSpec, rate: float, task_len: float,
                 cooling: CoolingSpec):
        self.server = server
        self.cooling = cooling
        self.p_comp = compute_power(server, rate, task_len)
        self._t_steady = cooling.supply_temp + cooling.recirculation_raise
        self._rc = server.thermal_resistance * server.heat_capacity

    def t_in(self, t: float) -> float:
        c = self.cooling
        return self._t_steady + (c.t_in_initial - self._t_steady) * math.exp(
            -c.crac_influence_rate * t)

    def t_cpu(self, t: float) -> float:
        tin = self.t_in(t)
        rp = self.server.thermal_resistance * self.p_comp
        return tin + rp + (self.cooling.t_cpu_initial - tin - rp) * math.exp(-t / self._rc)

    def t_out(self, t: float) -> float:
        share = 1.0 / (self.cooling.air_heat_capacity_flow * self.server.thermal_resistance)
        return (1.0 - share) * self.t_in(t) + share * self.t_cpu(t)

    def heat(self, t: float) -> float:
        """Heat carried off by the airflow at time t, W."""
        return self.cooling.air_heat_capacity_flow * (self.t_out(t) - self.t_in(t))


def heat_removed(server_loads: list[ServerLoad], cooling: CoolingSpec,
                 task_len: float, t: float) -> float:
    """Total heat one CRAC removes from its servers at time t, W.

    Closed aggregate of the per-server relaxations; approaches the summed
    compute power as t grows."""
    nu = cooling.crac_influence_rate
    base = cooling.supply_temp + cooling.recirculation_raise
    d_cpu = cooling.t_cpu_initial - base
    d_in = cooling.t_in_initial - base
    total = 0.0
    for server, rate in server_loads:
        r = server.thermal_resistance
        rc = r * server.heat_capacity
        p = compute_power(server, rate, task_len)
        decay = math.exp(-t / rc)
        total += (r * (1.0 - decay) * p
                  + d_cpu * decay
                  - d_in * math.exp(-(nu + 1.0 / rc) * t)) / r
    return total


def cooling_power(server_loads: list[ServerLoad], cooling: CoolingSpec,
                  task_len: float, t: float) -> float:
    """Instantaneous electrical power of one CRAC, W (fan plus heat over COP)."""
    return cooling.fan_power_w() + heat_removed(server_loads, cooling, task_len, t) / cop(
        cooling, cooling.supply_temp)


def cooling_energy(server_loads: list[ServerLoad], cooling: CoolingSpec,
                   task_len: float, window: tuple[float, float]) -> float:
    """Energy one CRAC spends over the window, J (closed form).

    Integrates fan power plus removed heat over the COP; the relaxation
    integrals are evaluated analytically."""
    heat = np.array([
        _heat_integral(server, compute_power(server, rate, task_len), cooling,
                       window)
        for server, rate in server_loads])
    return float(_crac_energy(heat, cooling, window))


def _heat_integral(server: ServerSpec, power, cooling: CoolingSpec,
                   window: tuple[float, float]):
    """Heat each server drawing ``power`` hands its CRAC over the window, J.

    The exponentials depend only on the server, the cooling spec and the
    window, so they are taken once for the whole power array."""
    t1, t2 = window
    span = t2 - t1
    nu = cooling.crac_influence_rate
    base = cooling.supply_temp + cooling.recirculation_raise
    d_cpu = cooling.t_cpu_initial - base
    d_in = cooling.t_in_initial - base
    r = server.thermal_resistance
    cap = server.heat_capacity
    rc = r * cap
    k = nu + 1.0 / rc
    relax = span + rc * (math.exp(-t2 / rc) - math.exp(-t1 / rc))
    cpu = cap * d_cpu * (math.exp(-t1 / rc) - math.exp(-t2 / rc))
    inlet = cap / (nu * rc + 1.0) * d_in * (math.exp(-k * t2) - math.exp(-k * t1))
    return power * relax + cpu + inlet


def _crac_energy(heat: np.ndarray, cooling: CoolingSpec,
                 window: tuple[float, float]):
    """Fan energy plus the heat of one CRAC's servers (the last axis of
    ``heat``), summed in order, over the COP, J."""
    total = (np.add.accumulate(heat, axis=-1)[..., -1] if heat.shape[-1]
             else np.zeros(heat.shape[:-1]))
    return (cooling.fan_power_w() * (window[1] - window[0])
            + total / cop(cooling, cooling.supply_temp))


def _cooling_bill(power: np.ndarray, server: ServerSpec, cooling: CoolingSpec,
                  window: tuple[float, float]):
    """CRAC energy of each fleet along the last axis of ``power``, J: the
    servers split near-uniformly across the CRACs in order, each CRAC's
    heat summed in server order, the CRACs added in order."""
    heat = _heat_integral(server, power, cooling, window)
    sizes = partition_servers(heat.shape[-1], cooling.crac_count)
    if sizes[0] != sizes[-1]:
        # a trailing 0.0 on each narrower CRAC leaves its sum as it is
        ends = np.cumsum(sizes)[sizes.index(sizes[-1]):]
        heat = np.insert(heat, ends, 0.0, axis=-1)
    cracs = _crac_energy(heat.reshape(*heat.shape[:-1], len(sizes), -1),
                         cooling, window)
    return np.add.accumulate(cracs, axis=-1)[..., -1].tolist()


def partition_servers(count: int, crac_count: int) -> list[int]:
    """Near-uniform split of ``count`` servers across the CRACs."""
    base, extra = divmod(count, crac_count)
    return [base + 1] * extra + [base] * (crac_count - extra)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Window energy split by destination, J."""

    compute_j: float
    cooling_j: float
    payload_j: float
    propulsion_j: float
    transmission_j: float
    total_j: float

    @classmethod
    def from_parts(cls, compute_j=0.0, cooling_j=0.0, payload_j=0.0,
                   propulsion_j=0.0, transmission_j=0.0) -> "EnergyBreakdown":
        return cls(compute_j, cooling_j, payload_j, propulsion_j, transmission_j,
                   math.fsum([compute_j, cooling_j, payload_j, propulsion_j,
                              transmission_j]))


def grouped_cooling_energy(rates, server: ServerSpec, cooling: CoolingSpec,
                            task_len: float, window):
    """Cooling energy with the rate list split near-uniformly across CRACs.
    A rows x servers batch gets a list of each row's energy or its
    OverloadError."""
    return _billed(server, rates, task_len, _cooling_bill, server, cooling,
                   window)


def _ground_bill(power: np.ndarray, cfg: ModelConfig,
                 window: tuple[float, float]):
    """Compute plus cooling of each ground fleet along the last axis of
    ``power``, J."""
    return [EnergyBreakdown.from_parts(compute_j=c, cooling_j=k)
            for c, k in zip(_compute_bill(power, window),
                            _cooling_bill(power, cfg.server, cfg.cooling,
                                          window))]


def ground_energy(rates, cfg: ModelConfig, window: tuple[float, float]):
    """Compute plus CRAC cooling of a ground fleet at ``rates``, J: the
    ground bill of both the baseline and the split system.  A rows x
    servers batch gets a list of each row's bill or its OverloadError."""
    return _billed(cfg.server, rates, cfg.workload.task_length_instr,
                   _ground_bill, cfg, window)


def tdc_total_energy(scenario: Scenario | list[Scenario], cfg: ModelConfig):
    """Baseline energy with every server on the ground.

    The airborne rate vector (replicated per platform) joins the ground one,
    so the baseline serves the identical workload.  ``scenario`` may also be
    a list of scenarios sharing one fleet shape and window, priced in one
    array pass as ``ground_energy`` prices a batch."""
    one = isinstance(scenario, Scenario)
    batch = [scenario] if one else scenario
    fleets = [s.ground_rates + s.hap_rates * s.hap_count for s in batch]
    return ground_energy(fleets[0] if one else fleets, cfg, batch[0].window)
