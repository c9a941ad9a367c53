"""Composition layer tying solar harvest, propulsion, thermal and link models
into the airborne-fleet decisions: can the platform fly, how much workload it
may accept, what the two-site system consumes, and what offloading saves.

A saving is priced by one flow over a list of scenarios, each step once
for the whole list.  ``evaluate_offload`` computes what every delivery
policy shares: the all-ground baseline and the lossless split-system bill
(one array pass per group sharing a fleet shape and window), the
reliable-rate gate (looked up once; below it the link counts as lossless
and no drop is evaluated), the drops (one ``channel.drop_probability``
call) and the uplinks (one ``channel.link_energy`` call).  A policy then
charges the dropped traffic: ``retransmit_savings`` resends it over the
link, ``reroute_savings`` recomputes it on the ground.  A scenario that
cannot be priced holds its error in place of its evaluation and reports;
``saving``, the one-scenario call, raises it.
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
    payload = thermal.fleet_compute_energy(
        cfg.server, scenario.hap_rates, cfg.workload.task_length_instr, window)
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
    per_server = (lambda_max(sc.latitude_deg, sc.day_of_year, sc.hap_servers,
                             cfg) if sc.hap_servers * sc.hap_count else 0.0)
    return _allocate(sc, total_rate, per_server, cfg)


def _allocate(sc: Scenario, total_rate: float, per_server: float,
              cfg: ModelConfig) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``allocate_rates`` of a non-negative ``total_rate`` on the fleet of
    ``sc``, whose airborne servers each admit ``per_server`` task/s."""
    airborne = sc.hap_servers * sc.hap_count
    hap_total = min(total_rate, per_server * airborne) if airborne else 0.0
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
    holds its OverloadError in place of the bill.  The stratosphere cools
    the platform for free, so payload energy is compute only."""
    window = scenarios[0].window
    ground = thermal.ground_energy([s.ground_rates for s in scenarios], cfg,
                                   window)
    payload = thermal.fleet_compute_energy(
        cfg.server, [s.hap_rates for s in scenarios],
        cfg.workload.task_length_instr, window)
    return list(zip(ground, payload))


def hybrid_total_energy(scenario: Scenario, cfg: ModelConfig) -> thermal.EnergyBreakdown:
    """Energy of the split system over the window, J, by destination.

    Ground servers pay compute plus CRAC cooling; each platform pays its
    payload compute, station-keeping propulsion, and uplink transmission at
    its aggregate offload rate.  With no airborne servers this reduces to
    the all-ground baseline (no platform deployed).
    """
    ground = thermal.ground_energy(scenario.ground_rates, cfg, scenario.window)
    payload = thermal.fleet_compute_energy(cfg.server, scenario.hap_rates,
                                           cfg.workload.task_length_instr,
                                           scenario.window)
    link = channel.transmission_energy(
        cfg.channel, cfg.workload, math.fsum(scenario.hap_rates),
        scenario.window_length, cfg.workload.task_length_instr
    ) if scenario.hap_servers else None
    return _hybrid(scenario, cfg, ground, payload, link)


def _hybrid(scenario: Scenario, cfg: ModelConfig, ground, payload,
            link) -> thermal.EnergyBreakdown:
    """``hybrid_total_energy`` on the scenario's ground bill and payload
    energy and one platform's uplink energy ``link``; an error held in
    place of any of them is raised, the bills' first."""
    for bill in (ground, payload):
        if isinstance(bill, OverloadError):
            raise bill
    if scenario.hap_servers == 0:
        return ground
    k = scenario.hap_count
    wind = cfg.wind.speed_at(scenario.latitude_deg, scenario.day_of_year)
    propulsion = k * aero.propulsion_energy(cfg.hap, wind, scenario.window)
    if isinstance(link, Exception):
        raise link
    transmission = k * link
    return thermal.EnergyBreakdown.from_parts(
        compute_j=ground.compute_j, cooling_j=ground.cooling_j,
        payload_j=k * payload, propulsion_j=propulsion,
        transmission_j=transmission,
    )


def _reroute_scenario(scenario: Scenario, drop_prob: float) -> Scenario:
    """Dropped offload traffic comes back to the ground servers."""
    kept = tuple(r * (1.0 - drop_prob) for r in scenario.hap_rates)
    rerouted = (math.fsum(scenario.hap_rates) - math.fsum(kept)) * scenario.hap_count
    if rerouted > 0 and scenario.ground_servers == 0:
        raise OverloadError("no ground servers to absorb dropped workload")
    extra = rerouted / scenario.ground_servers if scenario.ground_servers else 0.0
    ground = tuple(r + extra for r in scenario.ground_rates)
    return replace(scenario, ground_rates=ground, hap_rates=kept)


def _by_shape(scenarios: list[Scenario], price) -> list:
    """``price(batch)`` of each of ``scenarios``, in their order, with one
    call per group of them sharing a fleet shape and window."""
    groups = {}
    for k, sc in enumerate(scenarios):
        groups.setdefault((len(sc.ground_rates), len(sc.hap_rates),
                           sc.hap_count, sc.window), []).append(k)
    priced = [None] * len(scenarios)
    for members in groups.values():
        for k, bill in zip(members, price([scenarios[k] for k in members])):
            priced[k] = bill
    return priced


def _uplinks(scenarios: list[Scenario], rates: list[float],
             cfg: ModelConfig) -> tuple[list, list]:
    """One platform's uplink energy, J, and airtime share at each per-link
    rate over its scenario's window, in one ``channel.link_energy`` call."""
    if not scenarios:
        return [], []
    energy, duty = channel.link_energy(
        cfg.channel, cfg.workload, np.array(rates),
        np.array([sc.window_length for sc in scenarios]),
        cfg.workload.task_length_instr)
    return energy.tolist(), duty.tolist()


@dataclass(frozen=True)
class OffloadEvaluation:
    """What both delivery policies read of one offload scenario.

    ``pr_drop`` is the per-task drop probability the policies charge: 0
    below the reliable-rate gate, where the link is treated as lossless,
    and the drop of the per-link rate above it.  ``lossless`` is the
    split-system bill with nothing dropped, and ``airtime`` the share of
    the window its uplink is on air.
    """

    scenario: Scenario
    e_tdc_j: float
    per_link: float
    pr_drop: float
    lossless: thermal.EnergyBreakdown
    airtime: float

    @property
    def saturated(self) -> bool:
        """Whether the offered traffic is more than the link carries."""
        return self.airtime > channel.SATURATION


def evaluate_offload(scenarios: list[Scenario], cfg: ModelConfig,
                     drops: list[float] | None = None) -> list:
    """The ``OffloadEvaluation`` of each of ``scenarios``, or the
    OverloadError or LinkRateError pricing it raised, the bills' first.

    A caller that already holds ``1 - ccdf_lower`` at each scenario's
    per-link rate passes them, one per scenario, as ``drops``; they then
    stand in for ``channel.drop_probability``.
    """
    bills = _by_shape(scenarios, lambda batch: zip(
        thermal.tdc_total_energy(batch, cfg), split_bills(batch, cfg)))
    evals = [baseline if isinstance(baseline, OverloadError) else None
             for baseline, _ in bills]
    per_link = {k: math.fsum(sc.hap_rates) for k, sc in enumerate(scenarios)
                if evals[k] is None}
    pr_drop = dict.fromkeys(per_link, 0.0)
    # a link is charged a drop at or above the gate, which is looked up
    # only when some link offloads
    lossy = [k for k, rate in per_link.items() if rate > 0]
    if lossy:
        gate = drop_gate(cfg)
        lossy = [k for k in lossy if per_link[k] >= gate]
    if drops is None and lossy:
        drops = dict(zip(lossy, channel.drop_probability(
            cfg.channel, cfg.workload, np.array([per_link[k] for k in lossy]),
            cfg.workload.task_length_instr).tolist()))
    pr_drop.update((k, drops[k]) for k in lossy)

    linked = [k for k in per_link if scenarios[k].hap_servers]
    try:
        energy, duty = _uplinks([scenarios[k] for k in linked],
                                [per_link[k] for k in linked], cfg)
    except LinkRateError as exc:
        energy, duty = [exc] * len(linked), []
    link, airtime = dict(zip(linked, energy)), dict(zip(linked, duty))
    for k, rate in per_link.items():
        sc = scenarios[k]
        try:
            lossless = _hybrid(sc, cfg, *bills[k][1], link.get(k))
        except (OverloadError, LinkRateError) as exc:
            evals[k] = exc
        else:
            evals[k] = OffloadEvaluation(sc, bills[k][0].total_j, rate,
                                         pr_drop[k], lossless,
                                         airtime.get(k, 0.0))
    return evals


def _report(e_tdc: float, e_hybrid: float,
            retransmissions: int = 0) -> SavingReport:
    saved = e_tdc - e_hybrid
    rate = saved / e_tdc if e_tdc > 0 else 0.0
    return SavingReport(
        e_tdc_j=e_tdc, e_hybrid_j=e_hybrid, saved_j=saved,
        saved_rate=rate, retransmissions=retransmissions,
    )


def retransmit_savings(evals: list, cfg: ModelConfig) -> list:
    """The retransmit policy's report of each of ``evals``, or the error
    held in its place: dropped offload traffic is resent over the link, so
    one more round of uplink energy, at the per-link rate times the drop
    probability, is charged on every platform, and the report counts how
    many such rounds the gross saving could fund."""
    linked = [k for k, ev in enumerate(evals)
              if isinstance(ev, OffloadEvaluation) and ev.scenario.hap_servers]
    energy, _ = _uplinks([evals[k].scenario for k in linked],
                         [evals[k].per_link * evals[k].pr_drop
                          for k in linked], cfg)
    rounds = dict(zip(linked, energy))
    reports = []
    for k, ev in enumerate(evals):
        if not isinstance(ev, OffloadEvaluation):
            reports.append(ev)
        elif ev.pr_drop <= 0.0:
            reports.append(_report(ev.e_tdc_j, ev.lossless.total_j))
        else:
            e_round = ev.scenario.hap_count * rounds[k]
            e_hybrid = ev.lossless.total_j + e_round
            gross = ev.e_tdc_j - (e_hybrid - e_round)
            reports.append(_report(ev.e_tdc_j, e_hybrid, math.ceil(
                gross / e_round) if e_round > 0 and gross > 0 else 0))
    return reports


def reroute_savings(evals: list, cfg: ModelConfig) -> list:
    """The reroute policy's report of each of ``evals``, or the error held
    in its place or raised by a reroute the ground fleet cannot take:
    dropped offload traffic is recomputed on the ground, while the uplink
    energy of the full offered stream stays charged."""
    parts = [ev.lossless if isinstance(ev, OffloadEvaluation) else ev
             for ev in evals]
    moved = {}
    for k, ev in enumerate(evals):
        if isinstance(ev, OffloadEvaluation) and ev.pr_drop > 0.0:
            try:
                moved[k] = _reroute_scenario(ev.scenario, ev.pr_drop)
            except OverloadError as exc:
                parts[k] = exc
    rerouted = list(moved.values())
    energy, _ = _uplinks(rerouted, [math.fsum(sc.hap_rates) for sc in rerouted],
                         cfg)
    for k, sc, split, link in zip(moved, rerouted, _by_shape(
            rerouted, lambda batch: split_bills(batch, cfg)), energy):
        try:
            parts[k] = _hybrid(sc, cfg, *split, link)
        except OverloadError as exc:
            parts[k] = exc
    return [part if isinstance(part, Exception) else _report(
                ev.e_tdc_j, part.total_j - part.transmission_j
                + ev.lossless.transmission_j)
            for part, ev in zip(parts, evals)]


def saving(scenario: Scenario, cfg: ModelConfig,
           with_retransmission: bool = False) -> SavingReport:
    """Energy saved by the split system against the all-ground baseline.

    Both systems serve the identical rate vector on the same total server
    count.  This is the one-scenario call of ``evaluate_offload`` and a
    policy, ``retransmit_savings`` with retransmission and
    ``reroute_savings`` without it.  The error pricing held is raised, a
    ``LinkSaturationWarning`` is issued when the offered traffic is more
    than the link carries, and negative savings are reported, not raised.
    """
    evals = evaluate_offload([scenario], cfg)
    if isinstance(evals[0], OffloadEvaluation):
        channel.warn_if_saturated(evals[0].airtime)
    policy = retransmit_savings if with_retransmission else reroute_savings
    report, = policy(evals, cfg)
    if isinstance(report, Exception):
        raise report
    return report


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
