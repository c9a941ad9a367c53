"""One-scenario pricing of the two delivery policies, kept as an
independent reference for ``offload.saving`` and the chunk pricing of the
sweeps, the flight check in scalar ``math`` (``fly_point``, a reference
for ``offload.fly_points``), one platform's energy balance
(``flying_condition``, criterion 7's cross-check of the flight check),
and the per-point config of a sweep grid point.

It prices each step on its own, one scalar call at a time: the baseline
as the all-ground ``offload.hybrid_total_energy`` of every rate, the drop
with one ``channel.drop_probability`` call, the split bills with
``offload.hybrid_total_energy`` and each retry round with
``channel.transmission_energy``.  The library prices a list of scenarios
in array passes instead, and must agree with this bit for bit.  Like the
library's one-row API, each call prices the config's scenario at the
per-server ground and per-platform rates it is passed.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from hapdc import aero, channel, offload, solar, thermal
from hapdc.errors import OverloadError, PolarError


def apply_axis(cfg, axis, value):
    """Config with one scenario/workload knob replaced by the grid value:
    the whole-config grid point that the sweeps' rows must price as
    ``offload.saving(point, *offload.allocate_rates(point))`` does."""
    sc = cfg.scenario
    if axis == "latitude":
        return replace(cfg, scenario=replace(sc, latitude_deg=float(value)))
    if axis == "day":
        return replace(cfg, scenario=replace(sc, day_of_year=float(value)))
    if axis == "hap_servers":
        sc = replace(sc, hap_servers=int(round(value)))
        return replace(cfg, scenario=sc)
    if axis == "arrival_rate":
        wl = replace(cfg.workload, arrival_rate_total=float(value))
        return replace(cfg, workload=wl)
    raise ValueError(f"unknown sweep axis {axis!r}")


def _charged(per_link, cfg):
    """Whether a link offloading ``per_link`` task/s is charged a drop:
    at or above the reliable-rate gate, looked up only when it offloads."""
    return per_link > 0 and per_link >= offload._gate(cfg).refine()


def evaluate(cfg, ground_rates, hap_rates, drop=None):
    """(baseline J, per-link rate, drop probability, lossless split bill);
    the drop is one minus the CCDF lower bound, which ``drop``, when
    given, stands in for above the gate."""
    k = cfg.scenario.hap_count
    everything = tuple(ground_rates) + tuple(hap_rates) * k
    baseline = offload.hybrid_total_energy(cfg, everything, ())
    per_link = math.fsum(hap_rates)
    pr_drop = 0.0
    if _charged(per_link, cfg):
        pr_drop = drop if drop is not None else 1.0 - channel.ccdf_lower(
            cfg.channel, channel.spectral_demand(
                cfg.channel, cfg.workload, per_link))
    lossless = offload.hybrid_total_energy(cfg, ground_rates, hap_rates)
    return baseline.total_j, per_link, pr_drop, lossless


def _report(e_tdc, e_hybrid, retransmissions=0):
    saved = e_tdc - e_hybrid
    rate = saved / e_tdc if e_tdc > 0 else 0.0
    return offload.SavingReport(
        e_tdc_j=e_tdc, e_hybrid_j=e_hybrid, saved_j=saved,
        saved_rate=rate, retransmissions=retransmissions,
    )


def retransmit_saving(cfg, ground_rates, hap_rates, evaluation):
    """Dropped traffic resent over the link: one more round of uplink
    energy on every platform, and how many rounds the gross saving funds
    (None where that ratio overflows to inf)."""
    e_tdc, per_link, pr_drop, lossless = evaluation
    if pr_drop <= 0.0:
        return _report(e_tdc, lossless.total_j)
    e_round = cfg.scenario.hap_count * channel.transmission_energy(
        cfg.channel, cfg.workload, per_link * pr_drop,
        cfg.scenario.window_length)
    e_hybrid = lossless.total_j + e_round
    gross = e_tdc - (e_hybrid - e_round)
    retransmissions = 0
    if e_round > 0 and gross > 0:
        rounds = gross / e_round
        retransmissions = math.ceil(rounds) if math.isfinite(rounds) else None
    return _report(e_tdc, e_hybrid, retransmissions)


def reroute_saving(cfg, ground_rates, hap_rates, evaluation):
    """Dropped traffic recomputed on the ground, while the uplink energy of
    the full offered stream stays charged."""
    e_tdc, _, pr_drop, lossless = evaluation
    parts = lossless
    if pr_drop > 0.0:
        kept = tuple(r * (1.0 - pr_drop) for r in hap_rates)
        moved = ((math.fsum(hap_rates) - math.fsum(kept))
                 * cfg.scenario.hap_count)
        servers = len(ground_rates)
        if moved > 0 and servers == 0:
            raise OverloadError("no ground servers to absorb dropped workload")
        extra = moved / servers if servers else 0.0
        parts = offload.hybrid_total_energy(
            cfg, tuple(r + extra for r in ground_rates), kept)
    return _report(e_tdc, parts.total_j - parts.transmission_j
                   + lossless.transmission_j)


def saving(cfg, ground_rates, hap_rates, with_retransmission=False,
           drop=None):
    """What ``offload.saving`` reports for one scenario, priced one scalar
    call at a time; ``drop`` as in ``evaluate``."""
    evaluation = evaluate(cfg, ground_rates, hap_rates, drop)
    policy = retransmit_saving if with_retransmission else reroute_saving
    return policy(cfg, ground_rates, hap_rates, evaluation)


@dataclass(frozen=True)
class FlyingAssessment:
    """Energy balance of one platform over the window, J."""

    harvested_j: float
    payload_j: float
    propulsion_j: float
    slack_j: float
    feasible: bool


def flying_condition(cfg, hap_rates):
    """Energy balance of one platform of the config's scenario carrying
    the per-server ``hap_rates``: harvest against payload compute and
    station keeping over the window."""
    sc = cfg.scenario
    harvested = solar.harvested_power(cfg.hap, sc.latitude_deg,
                                      sc.day_of_year) * sc.window_length
    (power,) = offload.station_keeping(cfg, [sc.latitude_deg],
                                       [sc.day_of_year]).tolist()
    propulsion = power * sc.window_length
    energy, (error,) = thermal.fleet_compute_energy(
        cfg.server, np.array([hap_rates], dtype=float),
        cfg.workload.task_length_instr, sc.window)
    if error is not None:
        raise error
    (payload,) = energy.tolist()
    slack = harvested - payload - propulsion
    return FlyingAssessment(
        harvested_j=harvested, payload_j=payload, propulsion_j=propulsion,
        slack_j=slack, feasible=slack >= 0.0,
    )


def _irradiance(latitude_deg, day):
    """``solar._irradiance`` at one point in scalar ``math``, its
    PolarError text included."""
    lat = math.radians(latitude_deg)
    dec = solar.OBLIQUITY * math.sin(2.0 * math.pi * ((day - 79.75) / 365.0))
    xi = (math.pi / 2.0 + lat - dec if lat >= dec
          else math.pi / 2.0 + dec - lat)
    if xi > math.pi:
        raise PolarError(f"sun geometry out of range at latitude "
                         f"{latitude_deg} deg, day {day}")
    m = -0.041 + 0.017202 * day
    azimuth = -1.3411 + m + 0.0334 * math.sin(m) + 0.0003 * math.sin(2.0 * m)
    s = math.sin(solar.OBLIQUITY) * math.sin(azimuth)
    arg = math.tan(lat) * s / math.sqrt(1.0 - s * s)
    if not -1.0 <= arg <= 1.0:
        raise PolarError(f"continuous polar day/night at latitude "
                         f"{latitude_deg} deg, day {day}")
    tau = 1.0 - math.acos(arg) / math.pi
    ecc = 1.0 + solar.ECCENTRICITY_FACTOR * math.cos(2.0 * math.pi
                                                     * (day / 365.0))
    peak = solar.SOLAR_CONSTANT * ecc * math.cos(lat - dec)
    return tau * peak * (1.0 - math.cos(xi)) / xi


def fly_point(latitude_deg, day, hap_servers, cfg):
    """What ``offload.fly_point`` gives at one site and date, each step one
    scalar ``math`` call: (lambda_max, threshold, binding)."""
    hap, srv = cfg.hap, cfg.server
    harvested = hap.pv_efficiency * hap.pv_area * _irradiance(latitude_deg,
                                                              day)
    wind = cfg.wind.speed_at(latitude_deg, day)
    budget = (harvested - aero.propulsion_power_reduced(hap, wind)) / hap_servers
    u_bind = (budget - srv.p_idle) / (srv.p_peak - srv.p_idle)
    bind = u_bind * srv.service_rate_ips / cfg.workload.task_length_instr
    cap = offload.high_load_threshold(srv, cfg.workload.task_length_instr)
    if bind <= 0.0:
        return 0.0, cap, offload.PAYLOAD_BOUND
    if bind < cap:
        return bind, cap, offload.HARVEST_BOUND
    return cap, cap, offload.HIGH_LOAD_BOUND
