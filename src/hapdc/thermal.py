"""Server compute power, transient heat flow and CRAC cooling energy.

The transient model tracks each server's inlet and CPU temperature from the
configured initial state toward steady state.  Cooling energy over a window
has a closed form (sum of exponential relaxations); tests check it against
direct quadrature of the instantaneous cooling power.

Power has one route, ``_power`` (utilization, ceiling, idle-to-peak line),
and ``compute_power`` is its raising one-fleet form.  The fleet bills price
a rows x servers array, one fleet per row, in one array pass: one column
per bill with one entry per row, one fleet's rates being the one-row batch.
Each server's heat addend is the scalar expression evaluated elementwise,
each CRAC sums its slice of the servers in server order with
``np.add.accumulate`` (strictly sequential, so it rounds as a scalar loop
does), the CRACs are added in order, and a fleet's compute energy is one
correctly rounded ``math.fsum``.  A batch comes back with each row's
OverloadError, naming its first server over the ceiling, or None beside
its columns; a single fleet raises it.  ``ground_energy`` is the one ground
bill, compute plus cooling, that the baseline and the split system pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CoolingSpec, ModelConfig, ServerSpec, fsum_runs
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


def _power(server: ServerSpec, rates, task_len: float):
    """Electrical draw at ``rates`` (one rate, one fleet's array or a rows x
    servers array, one fleet per row), W, linear idle-to-peak, and each
    fleet's OverloadError, naming its first server over the ceiling, or
    None; an overloaded fleet is priced all the same."""
    u = utilization(server, rates, task_len)
    over = np.atleast_2d(u > server.desired_utilization * (1.0 + 1e-12))
    errors = [None] * len(over)
    # one test first: quadratures call this once per scalar rate
    if over.any():
        fleets = np.atleast_2d(u)
        for row in np.flatnonzero(over.any(axis=1)):
            errors[row] = _overload(server, fleets[row, over[row].argmax()])
    return server.p_idle + (server.p_peak - server.p_idle) * u, errors


def compute_power(server: ServerSpec, rate, task_len: float):
    """Electrical draw at the given arrival rate, W; linear idle-to-peak.

    ``rate`` is one rate or one fleet's array of per-server rates; the
    OverloadError names the first server over the ceiling."""
    power, (error,) = _power(server, rate, task_len)
    if error is not None:
        raise error
    return power


def _one_row(errors, *columns) -> list[float]:
    """The entry of each of ``columns`` of a one-fleet batch; its
    OverloadError is raised."""
    if errors[0] is not None:
        raise errors[0]
    return [float(column[0]) for column in columns]


def fsum_rows(parts: np.ndarray) -> np.ndarray:
    """One correctly rounded ``math.fsum`` along each row of ``parts``, bit
    for bit, over its runs: spans of columns in which no row changes value,
    two on a uniform split.  ``config.fsum_runs`` sums each run as count x
    value in two exact terms where the row has at most 2**26 entries, all
    finite and zero or of magnitude in [2**-969, 2**969]; any other row,
    and every row when runs would not halve the terms, is summed entry by
    entry."""
    cuts = np.flatnonzero((parts[:, 1:] != parts[:, :-1]).any(axis=0)) + 1
    if 2 * len(cuts) + 2 >= parts.shape[1]:
        return np.array(list(map(math.fsum, parts.tolist())), dtype=float)
    starts = np.concatenate(([0], cuts))
    return fsum_runs(parts[:, starts], np.diff(starts, append=parts.shape[1]))


def _compute_bill(power: np.ndarray, window: tuple[float, float]):
    """Compute energy over the window of each fleet along the last axis of
    ``power``: one correctly rounded sum per fleet, J."""
    return fsum_rows(power * (window[1] - window[0]))


def fleet_compute_energy(server: ServerSpec, rates, task_len: float,
                         window: tuple[float, float]):
    """Compute energy of a fleet at per-server ``rates`` over the window, J:
    one correctly rounded sum of the per-server energies.  A rows x servers
    batch gets the energy column and each row's OverloadError or None."""
    power, errors = _power(server, np.array(rates, dtype=float, ndmin=2),
                           task_len)
    energy = _compute_bill(power, window)
    if np.ndim(rates) == 2:
        return energy, errors
    return _one_row(errors, energy)[0]


def cop(cooling: CoolingSpec, temp_k: float) -> float:
    """CRAC coefficient of performance at an air temperature in K; the
    polynomial is fitted in deg C (Moore et al., USENIX ATC 2005)."""
    t = temp_k - KELVIN_OFFSET
    return 0.0068 * t * t + 0.008 * t + 0.458


def _relaxation(server: ServerSpec, cooling: CoolingSpec):
    """The inlet relaxation rate nu, the CPU and inlet offsets from the
    steady inlet, r and the time constant r * C of a server under its CRAC."""
    base = cooling.supply_temp + cooling.recirculation_raise
    r = server.thermal_resistance
    return (cooling.crac_influence_rate, cooling.t_cpu_initial - base,
            cooling.t_in_initial - base, r, r * server.heat_capacity)


def heat_removed(server_loads: list[ServerLoad], cooling: CoolingSpec,
                 task_len: float, t: float) -> float:
    """Total heat one CRAC removes from its servers at time t, W.

    Closed aggregate of the per-server relaxations; approaches the summed
    compute power as t grows."""
    total = 0.0
    for server, rate in server_loads:
        nu, d_cpu, d_in, r, rc = _relaxation(server, cooling)
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
    nu, d_cpu, d_in, _, rc = _relaxation(server, cooling)
    cap = server.heat_capacity
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
    servers split near-uniformly across the CRACs, each CRAC's slice of
    them summed in server order, the CRACs added in order."""
    heat = _heat_integral(server, power, cooling, window)
    ends = np.cumsum([0, *partition_servers(heat.shape[-1],
                                            cooling.crac_count)])
    return sum(_crac_energy(heat[..., start:end], cooling, window)
               for start, end in zip(ends[:-1], ends[1:]))


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
    A rows x servers batch gets the energy column and each row's
    OverloadError or None."""
    power, errors = _power(server, np.array(rates, dtype=float, ndmin=2),
                           task_len)
    energy = _cooling_bill(power, server, cooling, window)
    if np.ndim(rates) == 2:
        return energy, errors
    return _one_row(errors, energy)[0]


def ground_energy(rates, cfg: ModelConfig, window: tuple[float, float]):
    """Compute plus CRAC cooling of a ground fleet at ``rates``, J: the
    ground bill of both the baseline and the split system.  A rows x
    servers batch gets the compute and cooling columns and each row's
    OverloadError or None."""
    power, errors = _power(cfg.server, np.array(rates, dtype=float, ndmin=2),
                           cfg.workload.task_length_instr)
    compute = _compute_bill(power, window)
    cooling = _cooling_bill(power, cfg.server, cfg.cooling, window)
    if np.ndim(rates) == 2:
        return compute, cooling, errors
    compute, cooling = _one_row(errors, compute, cooling)
    return EnergyBreakdown.from_parts(compute_j=compute, cooling_j=cooling)


def tdc_total_energy(fleets, cfg: ModelConfig):
    """Baseline energy with every server on the ground.

    The airborne rate vector (replicated per platform) joins the ground one,
    so the baseline serves the identical workload.  ``fleets`` is one
    ``Scenario``, or an ``offload.Fleets`` group whose rows x servers rates
    are priced in one array pass as ``ground_energy`` prices a batch."""
    hap = np.tile(np.asarray(fleets.hap_rates, dtype=float), fleets.hap_count)
    return ground_energy(np.concatenate(
        [np.asarray(fleets.ground_rates, dtype=float), hap], axis=-1),
        cfg, fleets.window)
