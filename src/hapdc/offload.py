"""Composition layer tying solar harvest, propulsion, thermal and link models
into the airborne-fleet decisions: can the platform fly, how much workload it
may accept, what the two-site system consumes, and what offloading saves.

A saving is priced in two steps.  ``evaluate_offload`` computes what every
delivery policy shares: the all-ground baseline, the per-link offload rate,
the reliable-rate gate (below it the link counts as lossless and no drop
probability is evaluated) and the lossless split-system bill.  A policy then
charges the dropped traffic: ``retransmit_saving`` resends it over the link,
``reroute_saving`` recomputes it on the ground.  ``saving`` prices one
policy; the outage sweep prices both from one evaluation.

Many scenarios of one fleet shape and window share one array pass for
their bills (``thermal.tdc_total_energy`` and ``split_bills``).
``retransmit_savings`` prices a list of scenarios under the retransmit
policy that way, and its link side in array passes too, by the rules the
one-scenario route applies: the gate of ``_charged``, the round and its
count of ``_retransmit_report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

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


def drop_gate(cfg: ModelConfig) -> float:
    """Per-link offload rate from which a drop probability is charged,
    task/s.

    Below it the drop bound is vanishingly small, so the link counts as
    lossless there and every delivery policy agrees; a link that offloads
    nothing drops nothing and never looks the gate up.
    """
    return _reliable_rate(cfg.channel, cfg.workload.bits_per_instruction,
                          cfg.workload.task_length_instr)


def _charged(per_links: list[float], cfg: ModelConfig) -> list[bool]:
    """Which links, offloading ``per_links`` task/s each, are charged a
    drop probability: those that offload at or above ``drop_gate``, looked
    up once and only when some link offloads."""
    if not any(p > 0 for p in per_links):
        return [False] * len(per_links)
    gate = drop_gate(cfg)
    return [p > 0 and p >= gate for p in per_links]


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
    service_rate: float
    """Aggregate service rate of the airborne fleet, task/s."""
    mean_wait_s: float
    rtt_s: float
    total_delay_s: float
    transport_dominated: bool


def payload_energy(hap_rates, server: ServerSpec, task_len: float,
                   window: tuple[float, float]) -> float:
    """Compute energy of the airborne servers over the window, J.

    The stratosphere cools the platform for free, so payload energy is
    compute only; OverloadError if any rate breaks the utilization ceiling.
    A rows x servers batch is priced as ``thermal.fleet_compute_energy``
    prices one.
    """
    return thermal.fleet_compute_energy(server, hap_rates, task_len, window)


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


def allocated_scenario(cfg: ModelConfig) -> Scenario:
    ground, hap = allocate_rates(cfg)
    return replace(cfg.scenario, ground_rates=ground, hap_rates=hap)


def split_bills(scenarios: list[Scenario], cfg: ModelConfig) -> list:
    """(ground bill, per-platform payload energy) of each of ``scenarios``,
    which share one fleet shape and window, J; each bill is priced for all
    scenarios in one array pass, and a row over the utilization ceiling
    holds its OverloadError in place of the bill."""
    window = scenarios[0].window
    ground = thermal.ground_energy([s.ground_rates for s in scenarios], cfg,
                                   window)
    payload = payload_energy([s.hap_rates for s in scenarios], cfg.server,
                             cfg.workload.task_length_instr, window)
    return list(zip(ground, payload))


def hybrid_total_energy(scenario: Scenario, cfg: ModelConfig) -> thermal.EnergyBreakdown:
    """Energy of the split system over the window, J, by destination.

    Ground servers pay compute plus CRAC cooling; each platform pays its
    payload compute, station-keeping propulsion, and uplink transmission at
    its aggregate offload rate.  With no airborne servers this reduces to
    the all-ground baseline (no platform deployed).
    """
    return _hybrid(
        scenario, cfg,
        thermal.ground_energy(scenario.ground_rates, cfg, scenario.window),
        payload_energy(scenario.hap_rates, cfg.server,
                       cfg.workload.task_length_instr, scenario.window))


def _hybrid(scenario: Scenario, cfg: ModelConfig, ground, payload,
            link=None) -> thermal.EnergyBreakdown:
    """``hybrid_total_energy`` on the scenario's ground bill and payload
    energy and, when given, one platform's uplink energy ``link`` (else
    ``channel.transmission_energy`` prices it); an error held in place of
    any of them is raised, the bills' first."""
    for bill in (ground, payload):
        if isinstance(bill, OverloadError):
            raise bill
    if scenario.hap_servers == 0:
        return ground
    k = scenario.hap_count
    wind = cfg.wind.speed_at(scenario.latitude_deg, scenario.day_of_year)
    propulsion = k * aero.propulsion_energy(cfg.hap, wind, scenario.window)
    if link is None:
        link = channel.transmission_energy(
            cfg.channel, cfg.workload, math.fsum(scenario.hap_rates),
            scenario.window_length, cfg.workload.task_length_instr)
    elif isinstance(link, Exception):
        raise link
    transmission = k * link
    return thermal.EnergyBreakdown.from_parts(
        compute_j=ground.compute_j, cooling_j=ground.cooling_j,
        payload_j=k * payload, propulsion_j=propulsion,
        transmission_j=transmission,
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


@dataclass(frozen=True)
class OffloadEvaluation:
    """What both delivery policies read of one offload scenario.

    ``pr_drop`` is the per-task drop probability the policies charge: 0
    below the reliable-rate gate, where the link is treated as lossless,
    and ``channel.drop_probability`` of the per-link rate above it.
    ``lossless`` is the split-system bill with nothing dropped.
    """

    scenario: Scenario
    e_tdc_j: float
    per_link: float
    pr_drop: float
    lossless: thermal.EnergyBreakdown


def evaluate_offload(scenario: Scenario, cfg: ModelConfig,
                     drop: float | None = None) -> OffloadEvaluation:
    """The all-ground baseline, the drop gate and the lossless split bill.

    A caller that already holds ``1 - ccdf_lower`` at the per-link rate
    passes it as ``drop``; it then stands in for ``drop_probability``
    when the gate is open.  Below the gate no drop is evaluated.
    """
    baseline = thermal.tdc_total_energy(scenario, cfg)
    per_link = math.fsum(scenario.hap_rates)
    pr_drop = 0.0
    if _charged([per_link], cfg)[0]:
        pr_drop = drop if drop is not None else channel.drop_probability(
            cfg.channel, cfg.workload, per_link,
            cfg.workload.task_length_instr)
    lossless = hybrid_total_energy(scenario, cfg)
    return OffloadEvaluation(scenario, baseline.total_j, per_link, pr_drop,
                             lossless)


def _report(e_tdc: float, e_hybrid: float,
            retransmissions: int = 0) -> SavingReport:
    saved = e_tdc - e_hybrid
    rate = saved / e_tdc if e_tdc > 0 else 0.0
    return SavingReport(
        e_tdc_j=e_tdc, e_hybrid_j=e_hybrid, saved_j=saved,
        saved_rate=rate, retransmissions=retransmissions,
    )


def _retransmit_report(e_tdc: float, e_lossless: float,
                       e_round: float | None) -> SavingReport:
    """The retransmit policy's report: one retransmission round of
    ``e_round`` J (None when nothing is dropped) charged on the lossless
    bill, and how many such rounds the gross saving could fund."""
    if e_round is None:
        return _report(e_tdc, e_lossless)
    e_hybrid = e_lossless + e_round
    gross = e_tdc - (e_hybrid - e_round)
    retransmissions = 0
    if e_round > 0 and gross > 0:
        retransmissions = math.ceil(gross / e_round)
    return _report(e_tdc, e_hybrid, retransmissions)


def retransmit_saving(ev: OffloadEvaluation, cfg: ModelConfig) -> SavingReport:
    """Dropped offload traffic is resent over the link: one more round of
    uplink energy, at the per-link rate times the drop probability, is
    charged on every platform, and the report counts how many such rounds
    the gross saving could fund."""
    e_round = None
    if ev.pr_drop > 0.0:
        e_round = ev.scenario.hap_count * channel.transmission_energy(
            cfg.channel, cfg.workload, ev.per_link * ev.pr_drop,
            ev.scenario.window_length, cfg.workload.task_length_instr)
    return _retransmit_report(ev.e_tdc_j, ev.lossless.total_j, e_round)


def retransmit_savings(scenarios: list[Scenario], cfg: ModelConfig) -> list:
    """``saving(s, cfg, with_retransmission=True)`` of each of
    ``scenarios``, bit for bit, with whether its offered traffic saturates
    the link.

    An element is (report, saturated), or (error, False) where the scalar
    route raises an OverloadError or a LinkRateError.  The steps are those
    of ``evaluate_offload`` and ``retransmit_saving``, each in array
    passes: the bills once per group of scenarios sharing a fleet shape and
    window, the drop gate once, the drops of every link charged one in one
    ``channel.drop_probability`` call, and the lossless uplink energies and
    the retry rounds in one ``channel.link_energy`` call each.  A scenario
    saturates the link when its lossless airtime passes
    ``channel.SATURATION``, where ``transmission_energy`` would warn; no
    warning is raised.
    """
    priced = [None] * len(scenarios)
    groups, bills = {}, {}
    for k, sc in enumerate(scenarios):
        groups.setdefault((len(sc.ground_rates), len(sc.hap_rates),
                           sc.hap_count, sc.window), []).append(k)
    for members in groups.values():
        batch = [scenarios[k] for k in members]
        for k, baseline, split in zip(members,
                                      thermal.tdc_total_energy(batch, cfg),
                                      split_bills(batch, cfg)):
            if isinstance(baseline, OverloadError):
                priced[k] = baseline, False
            else:
                bills[k] = baseline.total_j, split

    ch, wl = cfg.channel, cfg.workload
    task_len = wl.task_length_instr
    per_link = {k: math.fsum(scenarios[k].hap_rates) for k in bills}
    lossy = [k for k, charged in zip(per_link,
                                     _charged(list(per_link.values()), cfg))
             if charged]
    drops = {}
    if lossy:
        drops = dict(zip(lossy, channel.drop_probability(
            ch, wl, np.array([per_link[k] for k in lossy]),
            task_len).tolist()))

    linked = [k for k in bills if scenarios[k].hap_servers]
    link, duty, retry = {}, {}, {}
    if linked:
        windows = np.array([scenarios[k].window_length for k in linked])
        rates = np.array([per_link[k] for k in linked])
        try:
            energy, airtime = channel.link_energy(ch, wl, rates, windows,
                                                  task_len)
        except LinkRateError as exc:
            link = dict.fromkeys(linked, exc)
        else:
            link = dict(zip(linked, energy.tolist()))
            duty = dict(zip(linked, airtime.tolist()))
            dropped = np.array([drops.get(k, 0.0) for k in linked])
            retry = dict(zip(linked, channel.link_energy(
                ch, wl, rates * dropped, windows, task_len)[0].tolist()))

    for k, (e_tdc, split) in bills.items():
        sc = scenarios[k]
        try:
            lossless = _hybrid(sc, cfg, *split, link.get(k)).total_j
        except (OverloadError, LinkRateError) as exc:
            priced[k] = exc, False
            continue
        e_round = None
        if drops.get(k, 0.0) > 0.0:
            e_round = sc.hap_count * retry[k]
        priced[k] = (_retransmit_report(e_tdc, lossless, e_round),
                     duty.get(k, 0.0) > channel.SATURATION)
    return priced


def reroute_saving(ev: OffloadEvaluation, cfg: ModelConfig) -> SavingReport:
    """Dropped offload traffic is recomputed on the ground, while the uplink
    energy of the full offered stream stays charged."""
    rerouted = _reroute_scenario(ev.scenario, ev.pr_drop)
    parts = (ev.lossless if rerouted is ev.scenario
             else hybrid_total_energy(rerouted, cfg))
    return _report(ev.e_tdc_j, parts.total_j - parts.transmission_j
                   + ev.lossless.transmission_j)


def saving(scenario: Scenario, cfg: ModelConfig,
           with_retransmission: bool = False) -> SavingReport:
    """Energy saved by the split system against the all-ground baseline.

    Both systems serve the identical rate vector on the same total server
    count.  ``evaluate_offload`` prices what the two delivery policies
    share: the baseline, the reliable-rate gate with the drop probability
    above it, and the lossless split bill.  The policy then charges the
    drops: ``retransmit_saving`` with retransmission, ``reroute_saving``
    without it.  Negative savings are reported, not raised.
    """
    ev = evaluate_offload(scenario, cfg)
    if with_retransmission:
        return retransmit_saving(ev, cfg)
    return reroute_saving(ev, cfg)


def end_to_end_delay(cfg: ModelConfig, arrival_rate: float) -> DelayReport:
    """Queueing wait at the airborne fleet plus two-way transport delay.

    The fleet is modeled as one fast server at the aggregate service rate,
    which the report carries; StabilityError beyond it.
    """
    task_len = cfg.workload.task_length_instr
    if cfg.scenario.hap_servers < 1:
        raise ValueError("end_to_end_delay needs at least one airborne server")
    service_rate = cfg.scenario.hap_servers * cfg.server.service_rate_ips / task_len
    wait = queueing.mean_wait(arrival_rate, service_rate,
                              cfg.workload.vacation_rate)
    rtt = channel.round_trip_time(cfg.channel, cfg.workload, arrival_rate, task_len)
    return DelayReport(
        arrival_rate=arrival_rate, service_rate=service_rate,
        mean_wait_s=wait, rtt_s=rtt,
        total_delay_s=wait + rtt, transport_dominated=rtt >= wait,
    )
