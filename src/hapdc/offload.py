"""Composition layer tying solar harvest, propulsion, thermal and link models
into the airborne-fleet decisions: can the platform fly and how much work it
may take (the flight check, elementwise in ``fly_points``), what the two-site
system consumes, and what offloading saves.

Station keeping is one routine, ``station_keeping``, which reads each
site's wind once; ``fly_points`` returns its power column, a ``Fleets``
group carries it, and the bills multiply it by the window.

A saving is priced as columns.  A ``Fleets`` group holds offload scenarios
of one fleet shape and window as rows x servers rate arrays, one row per
scenario.  ``evaluate_offload`` prices what every delivery policy shares
on one group, each step once: the all-ground baseline and the lossless
split-system bill (compute and cooling columns from the thermal bills,
propulsion from the power column, one ``math.fsum`` per row), the
reliable-rate gate (below it the link counts as lossless and no drop is
evaluated; its bisection steps only as far as the per-link rates need),
the drops (one ``channel.drop_probability`` call) and the uplinks
(one ``channel.link_energy`` call).  A caller with several fleet shapes
evaluates one group per shape.  A policy then charges the dropped traffic
as column arithmetic: ``retransmit_savings`` resends it over the link,
``reroute_savings`` recomputes it on the ground.  A row that cannot be
priced holds its error beside the columns, and its cells mean nothing.
The one-row calls ``saving(cfg, ground_rates, hap_rates)`` and
``hybrid_total_energy(cfg, ground_rates, hap_rates)`` price the config's
scenario at the per-server rates passed, and raise the row's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import aero, channel, queueing, solar, thermal
from .config import (ModelConfig, Scenario, ServerSpec, WorkloadSpec,
                     uniform_split)
from .errors import LinkRateError, OverloadError


class _Gate:
    """A link's ``channel.reliable_brackets``, stepped only while a rate
    asked about lies in its bracket [lo, hi), first [0, inf).  The gate
    lies in every bracket: a rate below ``lo`` is below it, one at or above
    ``hi`` is not.  It is inf where the bound never leaves the floor; a
    step that raised anything else raises again at every later use."""

    def __init__(self, brackets):
        self._brackets, self._error = brackets, None
        self.lo, self.hi = 0.0, math.inf

    def refine(self, rates: np.ndarray | None = None) -> float:
        """Step while some of ``rates`` lies in [lo, hi), or to the end
        without ``rates``; the current ``lo``."""
        if self._error is not None:
            raise self._error
        while self.lo < self.hi and (rates is None or (
                (rates >= self.lo) & (rates < self.hi)).any()):
            try:
                self.lo, self.hi = next(self._brackets)
            except StopIteration:
                self.hi = self.lo  # the last bracket's lo is the gate
            except LinkRateError:
                self.lo = self.hi = math.inf
            except BaseException as exc:
                self._error = exc
                raise
        return self.lo


@lru_cache(maxsize=32)
def _link_gate(ch, bits_per_instruction: float, task_len: float) -> _Gate:
    """One link's gate, kept for the process.  The inversion reads the
    workload only through its bits per task, ``task_len *
    bits_per_instruction``, so the cache key holds the channel and those
    two numbers, not the whole ``WorkloadSpec``.  In particular the offered
    load ``arrival_rate_total`` is left out: the threshold does not depend
    on it, and the sweep reference's per-point configs change it.
    """
    workload = WorkloadSpec(task_length_instr=task_len,
                            bits_per_instruction=bits_per_instruction)
    return _Gate(channel.reliable_brackets(ch, workload))


def _gate(cfg: ModelConfig) -> _Gate:
    """The config's cached gate: ``refine()`` gives the per-link rate,
    task/s, from which a drop is charged, or inf.  Below it the link counts
    as lossless and every delivery policy agrees; a link that offloads
    nothing drops nothing and never looks the gate up."""
    return _link_gate(cfg.channel, cfg.workload.bits_per_instruction,
                      cfg.workload.task_length_instr)


HARVEST_BOUND = "harvest"
HIGH_LOAD_BOUND = "high-load"
PAYLOAD_BOUND = "payload"


@dataclass(frozen=True)
class SavingReport:
    e_tdc_j: float
    e_hybrid_j: float
    saved_j: float
    saved_rate: float
    retransmissions: int | None


@dataclass(frozen=True)
class DelayReport:
    """End-to-end offloading delay split into queueing and transport parts."""

    arrival_rate: float
    service_rate: float
    """Aggregate service rate of the airborne fleet, task/s."""
    mean_wait_s: float
    rtt_s: float
    """``channel.round_trip_time``, a ratio that grows with the load, not
    one task's delay; ``transport_dominated`` is it >= the mean wait."""
    total_delay_s: float
    transport_dominated: bool


def high_load_threshold(server: ServerSpec, task_len: float) -> float:
    """Per-server arrival rate at the utilization ceiling, task/s."""
    return server.desired_utilization * server.service_rate_ips / task_len


def fly_point(latitude_deg: float, day: float, hap_servers: int,
              cfg: ModelConfig) -> tuple[float, float, str]:
    """(lambda_max, high-load threshold, binding constraint) for one
    site/date: the one-point call of ``fly_points``; raises its error."""
    (rate,), cap, (bound,), (error,), _ = fly_points(
        [latitude_deg], [day], [hap_servers], cfg)
    if error is not None:
        raise error
    return rate, cap, bound


def station_keeping(cfg: ModelConfig, latitudes, days) -> np.ndarray:
    """One platform's station-keeping power at each (latitude, day) site,
    W: each site's wind read once, the power priced once per distinct
    wind."""
    winds = list(map(cfg.wind.speed_at, latitudes, days))
    power = {wind: aero.propulsion_power_reduced(cfg.hap, wind)
             for wind in set(winds)}
    return np.array([power[wind] for wind in winds], dtype=float)


def fly_points(latitudes, days, hap_servers, cfg: ModelConfig):
    """``fly_point`` elementwise over equal-length sequences of latitudes,
    days and servers per platform: the lambda_max and binding columns, the
    threshold they share, each point's PolarError or None, and the
    ``station_keeping`` power column it used.  The rate is where harvest
    covers propulsion and compute, capped by the threshold, 0 where
    harvest cannot hold the fleet idle."""
    servers = np.asarray(hap_servers)
    if (servers < 1).any():
        raise ValueError("fly_point needs at least one airborne server")
    harvested, errors = solar.harvest(cfg.hap, latitudes, days)
    power = station_keeping(cfg, latitudes, days)
    srv, task_len = cfg.server, cfg.workload.task_length_instr
    budget = (harvested - power) / servers
    bind = ((budget - srv.p_idle) / (srv.p_peak - srv.p_idle)
            * srv.service_rate_ips / task_len)
    cap = high_load_threshold(srv, task_len)
    idle, low = bind <= 0.0, bind < cap
    return (np.where(idle, 0.0, np.where(low, bind, cap)).tolist(), cap,
            np.where(idle, PAYLOAD_BOUND, np.where(
                low, HARVEST_BOUND, HIGH_LOAD_BOUND)).tolist(), errors, power)


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
    per_server = (fly_point(sc.latitude_deg, sc.day_of_year, sc.hap_servers,
                            cfg)[0] if sc.hap_servers * sc.hap_count else 0.0)
    ground, hap, (error,) = _allocate(
        sc, sc.hap_servers, np.array([float(total_rate)]), per_server, cfg)
    if error is not None:
        raise error
    return tuple(ground[0].tolist()), tuple(hap[0].tolist())


def _allocate(sc: Scenario, hap_servers: int, totals: np.ndarray, per_server,
              cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray, list]:
    """``allocate_rates`` of a column of non-negative ``totals`` on the
    fleet of ``sc`` with ``hap_servers`` servers per platform, each
    admitting ``per_server`` task/s (one rate, or one per total): the rows
    of ground and of per-platform rates, and each row's OverloadError or
    None; a failed row holds zero ground rates."""
    airborne = hap_servers * sc.hap_count
    offered = np.asarray(per_server * airborne, dtype=float)
    hap_total = np.where(offered < totals, offered, totals)
    ground_total = totals - hap_total
    cap = high_load_threshold(cfg.server, cfg.workload.task_length_instr)
    failed = (ground_total / sc.ground_servers > cap * (1 + 1e-12)
              if sc.ground_servers else ground_total > 0)
    errors = [None] * len(totals)
    for row in np.flatnonzero(failed).tolist():
        errors[row] = OverloadError(
            f"residual workload {ground_total[row]:.6g} task/s exceeds ground "
            "capacity" if sc.ground_servers
            else "no ground servers to take the residual workload")
    ground = uniform_split(np.where(failed, 0.0, ground_total),
                           sc.ground_servers)
    return ground, uniform_split(hap_total / sc.hap_count, hap_servers), errors


@dataclass(frozen=True)
class Fleets:
    """Offload scenarios sharing one fleet shape and window, one per row.

    ``ground_rates`` and ``hap_rates`` are rows x servers arrays of the
    per-server rates of each row's ground fleet and of each of its
    ``hap_count`` platforms, task/s; ``power`` is one platform's
    ``station_keeping`` power at each row's site, W.
    """

    ground_rates: np.ndarray
    hap_rates: np.ndarray
    power: np.ndarray
    hap_count: int
    window: tuple[float, float]

    @classmethod
    def of(cls, cfg: ModelConfig, ground_rates, hap_rates) -> "Fleets":
        """The one-row group of the config's scenario at the per-server
        ``ground_rates`` and per-platform ``hap_rates``."""
        sc = cfg.scenario
        return cls(np.array([ground_rates], dtype=float),
                   np.array([hap_rates], dtype=float),
                   station_keeping(cfg, [sc.latitude_deg], [sc.day_of_year]),
                   sc.hap_count, sc.window)

    def __len__(self) -> int:
        return len(self.power)


def split_bills(fleets: Fleets, cfg: ModelConfig):
    """The split system's bills on each row of ``fleets``, J: the ground
    fleet's compute and cooling columns, one platform's payload energy
    column, and each row's OverloadError (the ground bill's first) or
    None.  The stratosphere cools the platform for free, so payload
    energy is compute only."""
    compute, cooling, errors = thermal.ground_energy(fleets.ground_rates, cfg,
                                                     fleets.window)
    payload, hap_errors = thermal.fleet_compute_energy(
        cfg.server, fleets.hap_rates, cfg.workload.task_length_instr,
        fleets.window)
    return compute, cooling, payload, [
        hap if ground is None else ground
        for ground, hap in zip(errors, hap_errors)]


def hybrid_total_energy(cfg: ModelConfig, ground_rates,
                        hap_rates) -> thermal.EnergyBreakdown:
    """Energy of the split system over the window, J, by destination: the
    config's scenario at the per-server ``ground_rates`` and per-platform
    ``hap_rates``.

    Ground servers pay compute plus CRAC cooling; each platform pays its
    payload compute, station-keeping propulsion, and uplink transmission at
    its aggregate offload rate.  With no airborne rates this reduces to
    the all-ground baseline (no platform deployed).  The row's
    OverloadError is raised.
    """
    fleets = Fleets.of(cfg, ground_rates, hap_rates)
    compute, cooling, payload, (error,) = split_bills(fleets, cfg)
    if error is not None:
        raise error
    ground = float(compute[0]), float(cooling[0])
    if not len(hap_rates):
        return thermal.EnergyBreakdown.from_parts(*ground)
    k, span = fleets.hap_count, cfg.scenario.window_length
    link = channel.transmission_energy(cfg.channel, cfg.workload,
                                       math.fsum(hap_rates), span)
    return thermal.EnergyBreakdown.from_parts(
        *ground, payload_j=k * float(payload[0]),
        propulsion_j=k * (float(fleets.power[0]) * span),
        transmission_j=k * link,
    )


def _hybrid(compute, cooling, payload, propulsion, transmission,
            hap_count: int) -> np.ndarray:
    """Split-system total of each row, J: one ``math.fsum`` of its ground
    compute and cooling and its platforms' payload, propulsion and
    transmission, each platform's payload charged ``hap_count`` times."""
    return thermal.fsum_rows(np.column_stack(
        [compute, cooling, hap_count * payload, propulsion, transmission]))


@dataclass(frozen=True)
class OffloadEvaluation:
    """What both delivery policies read of each row of ``fleets``, as
    columns.

    ``pr_drop`` is the per-task drop probability the policies charge: 0
    below the reliable-rate gate, where the link is treated as lossless,
    and the drop of the per-link rate above it.  ``lossless_j`` is the
    split-system total with nothing dropped, ``transmission_j`` and
    ``propulsion_j`` its parts paid by all platforms, and ``airtime`` the
    share of the window one uplink is on air.  A row whose pricing raised
    holds the error in ``errors``, a drop of 0 and figures that mean
    nothing.
    """

    fleets: Fleets
    e_tdc_j: np.ndarray
    per_link: np.ndarray
    pr_drop: np.ndarray
    lossless_j: np.ndarray
    transmission_j: np.ndarray
    propulsion_j: np.ndarray
    airtime: np.ndarray
    errors: list

    @property
    def saturated(self) -> np.ndarray:
        """Whether each row's offered traffic is more than the link
        carries."""
        return self.airtime > channel.SATURATION


def evaluate_offload(fleets: Fleets, cfg: ModelConfig,
                     drops: np.ndarray | None = None) -> OffloadEvaluation:
    """The ``OffloadEvaluation`` of the rows of ``fleets``.

    A row's error is the OverloadError of its baseline, else of its split
    bills, else the LinkRateError of its uplink.  The drops of the rows at
    or above the gate are one ``channel.drop_probability`` call, which
    leaves out every row whose baseline overloads.  A caller that already
    holds ``1 - ccdf_lower`` at each row's per-link rate passes that
    column as ``drops``; it then stands in for ``channel.drop_probability``.
    """
    compute, cooling, errors = thermal.tdc_total_energy(fleets, cfg)
    per_link = thermal.fsum_rows(fleets.hap_rates)
    # a link is charged a drop at or above the gate, which is looked up
    # only when some link offloads
    lossy = (per_link > 0) & np.array([error is None for error in errors],
                                      dtype=bool)
    if lossy.any():
        lossy[lossy] = per_link[lossy] >= _gate(cfg).refine(per_link[lossy])
    if drops is None:
        drops = np.zeros(len(per_link))
        if lossy.any():
            drops[lossy] = channel.drop_probability(
                cfg.channel, cfg.workload, per_link[lossy])
    ground, ground_cooling, payload, split_errors = split_bills(fleets, cfg)
    errors = [split if error is None else error
              for error, split in zip(errors, split_errors)]
    transmission, propulsion, airtime = np.zeros((3, len(fleets)))
    span = fleets.window[1] - fleets.window[0]
    if fleets.hap_rates.shape[1]:
        try:
            link, airtime = channel.link_energy(cfg.channel, cfg.workload,
                                                per_link, span)
        except LinkRateError as exc:
            errors = [exc if error is None else error for error in errors]
        else:
            transmission = fleets.hap_count * link
        propulsion = fleets.hap_count * (fleets.power * span)
        lossless = _hybrid(ground, ground_cooling, payload, propulsion,
                           transmission, fleets.hap_count)
    else:
        # no platform deployed: the split system is its ground fleet
        lossless = ground + ground_cooling
    priced = np.array([error is None for error in errors], dtype=bool)
    return OffloadEvaluation(fleets, compute + cooling, per_link,
                             np.where(lossy & priced, drops, 0.0), lossless,
                             transmission, propulsion, airtime, errors)


@dataclass(frozen=True)
class Savings:
    """A delivery policy's saving on each row of an evaluation, as the
    columns of a ``SavingReport``; a row's error, held in ``errors``,
    blanks its figures."""

    e_tdc_j: list[float]
    e_hybrid_j: list[float]
    saved_rate: list[float]
    retransmissions: list
    errors: list

    def report(self, row: int) -> SavingReport:
        """Row ``row`` as a ``SavingReport``; its error is raised."""
        if self.errors[row] is not None:
            raise self.errors[row]
        e_tdc, e_hybrid = self.e_tdc_j[row], self.e_hybrid_j[row]
        return SavingReport(
            e_tdc_j=e_tdc, e_hybrid_j=e_hybrid, saved_j=e_tdc - e_hybrid,
            saved_rate=self.saved_rate[row],
            retransmissions=self.retransmissions[row])


def _savings(e_tdc: np.ndarray, e_hybrid: np.ndarray, retransmissions: list,
             errors: list) -> Savings:
    """The savings of a split system billed ``e_hybrid`` against the
    baseline ``e_tdc``; a zero baseline saves a rate of 0."""
    saved = e_tdc - e_hybrid
    rate = np.divide(saved, e_tdc, out=np.zeros(len(saved)), where=e_tdc > 0)
    return Savings(e_tdc.tolist(), e_hybrid.tolist(), rate.tolist(),
                   retransmissions, errors)


def retransmit_savings(ev: OffloadEvaluation, cfg: ModelConfig) -> Savings:
    """The retransmit policy's savings on each row of ``ev``: dropped
    offload traffic is resent over the link, so one more round of uplink
    energy, at the per-link rate times the drop probability, is charged on
    every platform.  The count of such rounds the gross saving could fund
    is left empty (None) where that ratio is not a finite number, as when
    a round costs a subnormal energy."""
    e_hybrid = ev.lossless_j.copy()
    retransmissions = [0] * len(e_hybrid)
    charged = np.flatnonzero(ev.pr_drop > 0.0)
    if charged.size:
        energy, _ = channel.link_energy(
            cfg.channel, cfg.workload, ev.per_link[charged]
            * ev.pr_drop[charged], ev.fleets.window[1] - ev.fleets.window[0])
        e_round = ev.fleets.hap_count * energy
        e_hybrid[charged] = ev.lossless_j[charged] + e_round
        gross = ev.e_tdc_j[charged] - (e_hybrid[charged] - e_round)
        for k, spent, funded in zip(charged.tolist(), e_round.tolist(),
                                    gross.tolist()):
            if spent > 0 and funded > 0:
                rounds = funded / spent
                retransmissions[k] = (math.ceil(rounds)
                                      if math.isfinite(rounds) else None)
    return _savings(ev.e_tdc_j, e_hybrid, retransmissions, ev.errors)


def reroute_savings(ev: OffloadEvaluation, cfg: ModelConfig) -> Savings:
    """The reroute policy's savings on each row of ``ev``: dropped offload
    traffic is recomputed on the ground, while the uplink energy of the
    full offered stream stays charged.  A row whose reroute the ground
    fleet cannot take holds that OverloadError."""
    fleets, errors = ev.fleets, list(ev.errors)
    total, transmission = ev.lossless_j.copy(), ev.transmission_j.copy()
    moved = np.flatnonzero(ev.pr_drop > 0.0)
    if moved.size:
        k = fleets.hap_count
        kept = fleets.hap_rates[moved] * (1.0 - ev.pr_drop[moved])[:, None]
        per_link = thermal.fsum_rows(kept)
        back = (ev.per_link[moved] - per_link) * k
        servers = fleets.ground_rates.shape[1]
        extra = back / servers if servers else np.zeros(len(moved))
        rerouted = Fleets(fleets.ground_rates[moved] + extra[:, None], kept,
                          fleets.power[moved], k, fleets.window)
        ground, cooling, payload, split_errors = split_bills(rerouted, cfg)
        link, _ = channel.link_energy(cfg.channel, cfg.workload, per_link,
                                      fleets.window[1] - fleets.window[0])
        transmission[moved] = k * link
        total[moved] = _hybrid(ground, cooling, payload,
                               ev.propulsion_j[moved], transmission[moved], k)
        for row, spilled, error in zip(moved.tolist(), back.tolist(),
                                       split_errors):
            if spilled > 0 and not servers:
                error = OverloadError(
                    "no ground servers to absorb dropped workload")
            errors[row] = error
    return _savings(ev.e_tdc_j, total - transmission + ev.transmission_j,
                    [0] * len(total), errors)


def saving(cfg: ModelConfig, ground_rates, hap_rates,
           with_retransmission: bool = False) -> SavingReport:
    """Energy saved by the split system against the all-ground baseline,
    the config's scenario at the per-server ``ground_rates`` and
    per-platform ``hap_rates``.

    Both systems serve the identical rate vector on the same total server
    count.  This is the one-row call of ``evaluate_offload`` and a policy,
    ``retransmit_savings`` with retransmission and ``reroute_savings``
    without it.  The error pricing held is raised, a
    ``LinkSaturationWarning`` is issued when the offered traffic is more
    than the link carries, and negative savings are reported, not raised.
    """
    ev = evaluate_offload(Fleets.of(cfg, ground_rates, hap_rates), cfg)
    if ev.errors[0] is None:
        channel.warn_if_saturated(ev.airtime[0])
    policy = retransmit_savings if with_retransmission else reroute_savings
    return policy(ev, cfg).report(0)


def end_to_end_delay(cfg: ModelConfig, arrival_rate: float) -> DelayReport:
    """Queueing wait at the airborne fleet plus ``DelayReport.rtt_s``.

    The fleet is modeled as one fast server at the aggregate service rate,
    which the report carries; StabilityError beyond it.
    """
    task_len = cfg.workload.task_length_instr
    if cfg.scenario.hap_servers < 1:
        raise ValueError("end_to_end_delay needs at least one airborne server")
    service_rate = cfg.scenario.hap_servers * cfg.server.service_rate_ips / task_len
    wait = queueing.mean_wait(arrival_rate, service_rate,
                              cfg.workload.vacation_rate)
    rtt = channel.round_trip_time(cfg.channel, cfg.workload, arrival_rate)
    return DelayReport(
        arrival_rate=arrival_rate, service_rate=service_rate,
        mean_wait_s=wait, rtt_s=rtt,
        total_delay_s=wait + rtt, transport_dominated=rtt >= wait,
    )
