"""Composition layer tying solar harvest, propulsion, thermal and link models
into the airborne-fleet decisions: can the platform fly, how much workload it
may accept, what the two-site system consumes, and what offloading saves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

from . import aero, channel, queueing, solar, thermal
from .config import (ModelConfig, Scenario, ServerSpec, WorkloadSpec,
                     uniform_split)
from .errors import LinkRateError, OverloadError


@lru_cache(maxsize=32)
def _reliable_rate(ch, bits_per_instruction: float, task_len: float) -> float:
    """Arrival rate where the link first shows measurable outage, task/s.

    The inversion reads the workload only through its bits per task,
    ``task_len * bits_per_instruction``, so the cache key holds the channel
    and those two numbers, not the whole ``WorkloadSpec``.  In particular
    the offered load ``arrival_rate_total`` is left out: the threshold does
    not depend on it, and an arrival-rate sweep changes it at every point.
    """
    workload = WorkloadSpec(bits_per_instruction=bits_per_instruction)
    try:
        return channel.max_reliable_rate(ch, workload, task_len)
    except LinkRateError:
        return math.inf

HARVEST_BOUND = "harvest"
HIGH_LOAD_BOUND = "high-load"
PAYLOAD_BOUND = "payload"


@dataclass(frozen=True)
class FlyingAssessment:
    """Energy balance of one platform over the window, J."""

    harvested_j: float
    payload_j: float
    propulsion_j: float
    slack_j: float
    feasible: bool


@dataclass(frozen=True)
class SavingReport:
    e_tdc_j: float
    e_hybrid_j: float
    saved_j: float
    saved_rate: float
    retransmissions: int


@dataclass(frozen=True)
class DelayReport:
    """End-to-end offloading delay split into queueing and transport parts."""

    arrival_rate: float
    mean_wait_s: float
    rtt_s: float
    total_delay_s: float
    transport_dominated: bool


def payload_energy(hap_rates, server: ServerSpec, task_len: float,
                   window: tuple[float, float]) -> float:
    """Compute energy of the airborne servers over the window, J.

    The stratosphere cools the platform for free, so payload energy is
    compute only; OverloadError if any rate breaks the utilization ceiling.
    """
    return math.fsum(
        thermal.compute_energy(server, rate, task_len, window) for rate in hap_rates
    )


def high_load_threshold(server: ServerSpec, task_len: float) -> float:
    """Per-server arrival rate at the utilization ceiling, task/s."""
    return server.desired_utilization * server.service_rate_ips / task_len


def _harvest_bound_rate(latitude_deg: float, day: float, hap_servers: int,
                        cfg: ModelConfig) -> float:
    """Per-server rate at which harvest exactly covers propulsion + compute."""
    wind = cfg.wind.speed_at(latitude_deg, day)
    budget = (solar.harvested_power(cfg.hap, latitude_deg, day)
              - aero.propulsion_power_reduced(cfg.hap, wind)) / hap_servers
    srv = cfg.server
    u_bind = (budget - srv.p_idle) / (srv.p_peak - srv.p_idle)
    return u_bind * srv.service_rate_ips / cfg.workload.task_length_instr


def lambda_max(latitude_deg: float, day: float, hap_servers: int,
               cfg: ModelConfig) -> float:
    """Largest admissible per-server arrival rate on the platform, task/s.

    The first element of ``fly_point``: the harvest balance and the
    utilization ceiling both cap it, and it is zero when harvest cannot
    even hold the fleet idle.
    """
    return fly_point(latitude_deg, day, hap_servers, cfg)[0]


def fly_point(latitude_deg: float, day: float, hap_servers: int,
              cfg: ModelConfig) -> tuple[float, float, str]:
    """(lambda_max, high-load threshold, binding constraint) for one site/date.

    The constraint names whichever limit produced the reported rate:
    ``payload`` when idle draw already exceeds the budget, else ``harvest``
    or ``high-load``.
    """
    if hap_servers < 1:
        raise ValueError("fly_point needs at least one airborne server")
    bind = _harvest_bound_rate(latitude_deg, day, hap_servers, cfg)
    cap = high_load_threshold(cfg.server, cfg.workload.task_length_instr)
    if bind <= 0.0:
        return 0.0, cap, PAYLOAD_BOUND
    if bind < cap:
        return bind, cap, HARVEST_BOUND
    return cap, cap, HIGH_LOAD_BOUND


def flying_condition(scenario: Scenario, cfg: ModelConfig) -> FlyingAssessment:
    """Energy balance of one platform carrying ``scenario.hap_rates``."""
    window = scenario.window
    harvested = solar.harvested_energy(cfg.hap, scenario.latitude_deg,
                                       scenario.day_of_year, window)
    wind = cfg.wind.speed_at(scenario.latitude_deg, scenario.day_of_year)
    propulsion = aero.propulsion_energy(cfg.hap, wind, window)
    payload = payload_energy(scenario.hap_rates, cfg.server,
                             cfg.workload.task_length_instr, window)
    slack = harvested - payload - propulsion
    return FlyingAssessment(
        harvested_j=harvested, payload_j=payload, propulsion_j=propulsion,
        slack_j=slack, feasible=slack >= 0.0,
    )


def allocate_rates(cfg: ModelConfig, total_rate: float | None = None,
                   ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Split the total workload between ground and airborne servers.

    Airborne servers absorb as much as the admissible rate allows (they are
    the cheap side: no cooling bill); the remainder lands on the ground
    fleet.  Returns (ground_rates, per-platform hap_rates).
    """
    sc = cfg.scenario
    if total_rate is None:
        total_rate = cfg.workload.arrival_rate_total
    if total_rate < 0:
        raise ValueError("total_rate must be non-negative")
    airborne = sc.hap_servers * sc.hap_count
    if airborne:
        per_server = lambda_max(sc.latitude_deg, sc.day_of_year,
                                sc.hap_servers, cfg)
        hap_total = min(total_rate, per_server * airborne)
    else:
        hap_total = 0.0
    ground_total = total_rate - hap_total
    if ground_total > 0 and sc.ground_servers == 0:
        raise OverloadError("no ground servers to take the residual workload")
    cap = high_load_threshold(cfg.server, cfg.workload.task_length_instr)
    if sc.ground_servers and ground_total / sc.ground_servers > cap * (1 + 1e-12):
        raise OverloadError(
            f"residual workload {ground_total:.6g} task/s exceeds ground capacity"
        )
    ground = uniform_split(ground_total, sc.ground_servers)
    hap = uniform_split(hap_total / sc.hap_count if airborne else 0.0,
                        sc.hap_servers)
    return ground, hap


def allocated_scenario(cfg: ModelConfig, total_rate: float | None = None) -> Scenario:
    ground, hap = allocate_rates(cfg, total_rate)
    return replace(cfg.scenario, ground_rates=ground, hap_rates=hap)


def hybrid_total_energy(scenario: Scenario, cfg: ModelConfig) -> thermal.EnergyBreakdown:
    """Energy of the split system over the window, J, by destination.

    Ground servers pay compute plus CRAC cooling; each platform pays its
    payload compute, station-keeping propulsion, and uplink transmission at
    its aggregate offload rate.  With no airborne servers this reduces to
    the all-ground baseline (no platform deployed).
    """
    task_len = cfg.workload.task_length_instr
    window = scenario.window
    compute = math.fsum(
        thermal.compute_energy(cfg.server, r, task_len, window)
        for r in scenario.ground_rates
    )
    cooling = thermal.grouped_cooling_energy(
        list(scenario.ground_rates), cfg.server, cfg.cooling, task_len, window)
    if scenario.hap_servers == 0:
        return thermal.EnergyBreakdown.from_parts(compute_j=compute, cooling_j=cooling)
    k = scenario.hap_count
    payload = k * payload_energy(scenario.hap_rates, cfg.server, task_len, window)
    wind = cfg.wind.speed_at(scenario.latitude_deg, scenario.day_of_year)
    propulsion = k * aero.propulsion_energy(cfg.hap, wind, window)
    per_link_rate = math.fsum(scenario.hap_rates)
    transmission = k * channel.transmission_energy(
        cfg.channel, cfg.workload, per_link_rate, scenario.window_length, task_len)
    return thermal.EnergyBreakdown.from_parts(
        compute_j=compute, cooling_j=cooling, payload_j=payload,
        propulsion_j=propulsion, transmission_j=transmission,
    )


def _reroute_scenario(scenario: Scenario, drop_prob: float) -> Scenario:
    """Dropped offload traffic comes back to the ground servers."""
    if drop_prob <= 0.0:
        return scenario
    kept = tuple(r * (1.0 - drop_prob) for r in scenario.hap_rates)
    rerouted = (math.fsum(scenario.hap_rates) - math.fsum(kept)) * scenario.hap_count
    if rerouted > 0 and scenario.ground_servers == 0:
        raise OverloadError("no ground servers to absorb dropped workload")
    extra = rerouted / scenario.ground_servers if scenario.ground_servers else 0.0
    ground = tuple(r + extra for r in scenario.ground_rates)
    return replace(scenario, ground_rates=ground, hap_rates=kept)


def saving(scenario: Scenario, cfg: ModelConfig,
           with_retransmission: bool = False) -> SavingReport:
    """Energy saved by the split system against the all-ground baseline.

    Both systems serve the identical rate vector on the same total server
    count.  With retransmission, dropped offload traffic is resent over the
    link (the spend is charged, and the report counts how many such rounds
    the gross saving could fund); without it, dropped traffic is recomputed
    on the ground while the wasted uplink energy stays charged.  Negative
    savings are reported, not raised.
    """
    e_tdc = thermal.tdc_total_energy(scenario, cfg).total_j
    task_len = cfg.workload.task_length_instr
    per_link = math.fsum(scenario.hap_rates)
    # Below the reliable-rate threshold the drop bound is vanishingly
    # small; treat the link as lossless there so both branches agree.
    pr_drop = 0.0
    if per_link > 0 and per_link >= _reliable_rate(
            cfg.channel, cfg.workload.bits_per_instruction, task_len):
        pr_drop = channel.drop_probability(cfg.channel, cfg.workload,
                                           per_link, task_len)
    window = scenario.window_length
    k = scenario.hap_count

    if with_retransmission:
        e_hybrid = hybrid_total_energy(scenario, cfg).total_j
        retransmissions = 0
        if per_link > 0 and pr_drop > 0.0:
            dropped = per_link * pr_drop
            e_round = k * channel.transmission_energy(
                cfg.channel, cfg.workload, dropped, window, task_len)
            e_hybrid += e_round
            gross = e_tdc - (e_hybrid - e_round)
            if e_round > 0 and gross > 0:
                retransmissions = math.ceil(gross / e_round)
        saved = e_tdc - e_hybrid
    else:
        rerouted = _reroute_scenario(scenario, pr_drop)
        parts = hybrid_total_energy(rerouted, cfg)
        # the uplink transmitted (and lost) the full offered stream
        full_tx = k * channel.transmission_energy(
            cfg.channel, cfg.workload, per_link, window, task_len
        ) if scenario.hap_servers else 0.0
        e_hybrid = parts.total_j - parts.transmission_j + full_tx
        saved = e_tdc - e_hybrid
        retransmissions = 0

    rate = saved / e_tdc if e_tdc > 0 else 0.0
    return SavingReport(
        e_tdc_j=e_tdc, e_hybrid_j=e_hybrid, saved_j=saved,
        saved_rate=rate, retransmissions=retransmissions,
    )


def end_to_end_delay(cfg: ModelConfig, arrival_rate: float,
                     task_len: float | None = None) -> DelayReport:
    """Queueing wait at the airborne fleet plus two-way transport delay.

    The fleet is modeled as one fast server at the aggregate service rate;
    StabilityError beyond it.
    """
    if task_len is None:
        task_len = cfg.workload.task_length_instr
    if cfg.scenario.hap_servers < 1:
        raise ValueError("end_to_end_delay needs at least one airborne server")
    service_rate = cfg.scenario.hap_servers * cfg.server.service_rate_ips / task_len
    wait = queueing.mean_wait(arrival_rate, service_rate,
                              cfg.workload.vacation_rate)
    rtt = channel.round_trip_time(cfg.channel, cfg.workload, arrival_rate, task_len)
    return DelayReport(
        arrival_rate=arrival_rate, mean_wait_s=wait, rtt_s=rtt,
        total_delay_s=wait + rtt, transport_dominated=rtt >= wait,
    )
