"""Axis sweeps over the model with deterministic seeding and file output.

A sweep walks one scenario knob over an inclusive range, evaluates one of
the four analyses at every grid point, and renders the rows as RFC-4180
CSV (with a ``#`` manifest header) or as a JSON mirror.  Reruns with the
same config and seed produce byte-identical files: an outage sweep's
Monte Carlo draws through ``channel.empirical_ccdf`` from the seed, a
delay sweep's simulation at each grid point from the seed and the
point's grid index.

Each of the four analyses (flying condition, energy saving, outage,
delay) is one ``_Analysis`` record: metric columns, one function that
answers the whole grid in one process, and its fleet and axis needs.
One engine runs them all.  Flying condition and delay answer the grid
point by point (``_each_point``).  Rows read the model
quantities from their owners: the link budget from the config's
``ChannelConfig``, the fleet service rate of the delay simulation from the
analytic ``DelayReport``.

A grid point is a site, a date, a platform fleet size and a total
offered rate (``_axis_point``), never a copy of the config or its
scenario: no axis moves the server, cooling, platform, wind, channel or
task model, so every row reads those from the sweep's own config.  The
energy and outage analyses price the grid at once, as columns: each point
allocates its load (an energy point on the per-server lambda_max, looked
up once per distinct site, date and fleet on the grid), the allocations of
each fleet shape become the rate rows of one ``offload.Fleets`` group,
``offload.evaluate_offload`` prices the groups and the delivery policies
price its evaluations (the outage bounds are one array call each, and
give the evaluation its drops).  Each cell keeps the bits
``offload.saving`` gives it at the point, and a point's link saturation is
read from its evaluation's airtime rather than from a warning.  An outage
sweep counts its whole Monte Carlo sample against every grid point's
demand.

Per-point failures (a polar night, an overloaded fleet) land in the
row's ``error`` column and the sweep carries on; a sweep where every
point failed is reported as infeasible by the caller.  A failure blanks
only the columns that depend on it: an outage row keeps its link columns
when the fleet overloads, and a delay row whose simulation saw too few
regeneration cycles for an error bar leaves only its two simulation
cells empty.

Grid points whose offered traffic saturates the link are counted, each
once, in the result's ``notes`` rather than in the data rows; a point
without energy figures is not counted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import channel, offload, queueing
from ._version import __version__
from .config import ModelConfig, config_hash, uniform_split
from .errors import (ConfigError, LinkRateError, NumericsError, OverloadError,
                     PolarError, StabilityError)

AXES = ("latitude", "day", "hap_servers", "arrival_rate")

_ROW_ERRORS = (PolarError, OverloadError, StabilityError, LinkRateError)

# Largest grid a sweep takes; the shipped grids have at most 401 points.
MAX_GRID_POINTS = 1_000_000
# Most Monte Carlo draws or simulated tasks a grid point takes; at the cap
# the delay simulation holds about 32 B per task, some 3.2 GB.
MAX_SAMPLES = 10**8


@dataclass(frozen=True)
class SweepSpec:
    """One axis, an inclusive start:stop:step range, and run controls.

    ``outputs`` optionally narrows the emitted metric columns (the axis
    and error columns always stay).  A range of more than
    ``MAX_GRID_POINTS`` points, or more than ``MAX_SAMPLES`` samples, is
    refused when the spec is built, before any grid list exists.
    """

    axis: str
    start: float
    stop: float
    step: float
    seed: int = 0
    samples: int = 100_000
    outputs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; "
                              f"expected one of {', '.join(AXES)}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)
                and math.isfinite(self.step)):
            raise ConfigError("sweep range must be finite")
        if self.step <= 0:
            raise ConfigError("sweep step must be positive")
        if self.stop < self.start:
            raise ConfigError("sweep range is empty (stop < start)")
        if self.samples < 1:
            raise ConfigError("samples must be at least 1")
        if self.samples > MAX_SAMPLES:
            raise ConfigError(f"sweep asks for {self.samples:,} samples; "
                              f"at most {MAX_SAMPLES:,} are allowed")
        count = self._count()
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"sweep grid has {count:,} points; at most "
                              f"{MAX_GRID_POINTS:,} are allowed")

    def _count(self) -> int | float:
        """Number of grid points; inf when the range overflows a float."""
        span = (self.stop - self.start) / self.step + 1e-9
        return math.floor(span) + 1 if math.isfinite(span) else span

    def values(self) -> list[float]:
        """Grid points, start-inclusive, stop-inclusive up to float slack."""
        vals = [self.start + k * self.step for k in range(self._count())]
        if self.axis == "latitude":
            if any(v < -90.0 or v > 90.0 for v in vals):
                raise ConfigError("latitude axis must stay within [-90, 90]")
        elif self.axis == "day":
            if any(v < 0.0 or v > 366.0 for v in vals):
                raise ConfigError("day axis must stay within [0, 366]")
        elif self.axis == "hap_servers":
            for v in vals:
                if abs(v - round(v)) > 1e-9 or round(v) < 1:
                    raise ConfigError("hap_servers axis needs whole numbers >= 1")
        else:
            if vals[0] < 0.0:
                raise ConfigError("arrival_rate axis must be non-negative")
        return vals


@dataclass
class SweepResult:
    header: list[str]
    rows: list[list]
    manifest: dict[str, str]
    notes: list[str] = field(default_factory=list)

    @property
    def all_failed(self) -> bool:
        """True when every grid point errored (nothing feasible anywhere)."""
        return bool(self.rows) and all(row[-1] is not None for row in self.rows)


def _select_columns(result: SweepResult, outputs) -> SweepResult:
    """Keep only the requested metric columns (axis and error always stay)."""
    if not outputs:
        return result
    wanted = set(outputs)
    unknown = wanted - set(result.header)
    if unknown:
        raise ConfigError(f"unknown output column(s): {', '.join(sorted(unknown))}")
    keep = [i for i, name in enumerate(result.header)
            if i == 0 or name == "error" or name in wanted]
    result.header = [result.header[i] for i in keep]
    result.rows = [[row[i] for i in keep] for row in result.rows]
    return result


def _axis_point(cfg: ModelConfig, axis: str,
                value: float) -> tuple[float, float, int, float]:
    """The (latitude, day, servers per platform, total offered rate) of one
    grid point, in ``AXES`` order: the config's own, with the axis knob set
    to the grid value."""
    sc = cfg.scenario
    point = [sc.latitude_deg, sc.day_of_year, sc.hap_servers,
             cfg.workload.arrival_rate_total]
    point[AXES.index(axis)] = (int(round(value)) if axis == "hap_servers"
                               else float(value))
    return tuple(point)


# --- the analyses -----------------------------------------------------------

@dataclass(frozen=True)
class _Analysis:
    """One sweep kind: its metric columns and how the grid is answered.

    ``rows(cfg, spec, points)`` answers the sweep's (grid index, grid
    value) points with one (row, saturated) pair each: the row is the
    grid value, the metric cells in column order and the error message or
    None.  ``offload_rate`` analyses read the grid value as the
    per-platform offload arrival rate instead of as the axis knob of
    ``_axis_point``, so they take only the ``arrival_rate`` axis, head
    their first column ``lambda`` and record ``samples`` in the manifest.
    """

    name: str
    columns: tuple[str, ...]
    rows: Callable
    needs_fleet: bool = False
    offload_rate: bool = False


def _each_point(row, width, cfg, spec, points):
    """The (row, saturated) pairs of grid points answered one by one:
    ``row(cfg, spec, index, value)`` gives the ``width`` metric cells, and
    a ``_ROW_ERRORS`` exception that escapes it blanks them all and names
    itself in the error cell.  No analysis answered so offers the link
    traffic, so no row is saturated."""
    answered = []
    for index, value in points:
        try:
            cells, error = row(cfg, spec, index, value), None
        except _ROW_ERRORS as exc:
            cells, error = [None] * width, str(exc)
        answered.append(([value, *cells, error], False))
    return answered


def _fly_row(cfg, spec, index, value):
    return offload.fly_point(*_axis_point(cfg, spec.axis, value)[:3], cfg)


def _energy_rows(cfg, spec, points):
    """Energy rows of the grid points, each cell as
    ``saving(allocated_scenario(point), point, with_retransmission=True)``
    gives it at the point's config, error text included, each with whether
    the point's offered traffic saturates the link.

    Each point allocates its total on the per-server lambda_max of its
    site, date and fleet, derived once per distinct triple on the grid (a
    triple that raises, a polar one, is derived again and raises at each
    of its points).  The allocations are gathered into one
    ``offload.Fleets`` group per fleet shape, and the grid is priced as
    their columns.  The sweep's own config prices the grid: the bills read
    the server, cooling and task length, the link the channel and the
    workload's bits per task and overhead, and no axis moves any of them.
    """
    sc = cfg.scenario
    answered, admitted, groups = [], {}, {}
    for _, value in points:
        row = [value, *[None] * len(_ENERGY.columns), None]
        answered.append((row, False))
        latitude, day, servers, total = _axis_point(cfg, spec.axis, value)
        site = (latitude, day, servers)
        try:
            if servers * sc.hap_count and site not in admitted:
                admitted[site] = offload.lambda_max(*site, cfg)
            ground, hap = offload._allocate(sc, servers, total,
                                            admitted.get(site, 0.0), cfg)
        except _ROW_ERRORS as exc:
            row[-1] = str(exc)
        else:
            groups.setdefault(servers, []).append(
                (len(answered) - 1, ground, hap, (latitude, day)))
    groups = [tuple(zip(*members)) for members in groups.values()]
    evals = offload.evaluate_offload(
        [offload.Fleets(np.array(ground, dtype=float),
                        np.array(hap, dtype=float), list(sites),
                        sc.hap_count, sc.window)
         for _, ground, hap, sites in groups], cfg)
    for (indices, *_), ev in zip(groups, evals):
        savings = offload.retransmit_savings(ev, cfg)
        _fill(answered, indices, ev, savings.errors, slice(1, 5),
              savings.e_tdc_j, savings.e_hybrid_j, savings.saved_rate,
              savings.retransmissions)
    return answered


def _fill(answered, indices, ev, errors, cells, *columns):
    """Answer the priced rows ``indices`` of ``answered``, the rows of
    ``ev``: a row's error text goes in its error cell, else its entries of
    ``columns`` go in its ``cells`` slice and it records whether its
    offered traffic saturates the link."""
    for k, error, saturated, *priced in zip(indices, errors,
                                            ev.saturated.tolist(), *columns):
        row = answered[k][0]
        if error is not None:
            row[-1] = str(error)
        else:
            row[cells] = priced
            answered[k] = row, saturated


def _offload_rates(cfg: ModelConfig, per_link_rate: float):
    """(ground rates, per-platform rates) of the config's fleet when its
    platforms each carry ``per_link_rate`` of offload.

    The ground fleet keeps whatever the configured total leaves over
    (never negative); OverloadError when it has no server to take that.
    """
    sc = cfg.scenario
    hap = uniform_split(per_link_rate, sc.hap_servers)
    ground_total = max(0.0, cfg.workload.arrival_rate_total
                       - per_link_rate * sc.hap_count)
    if ground_total > 0 and sc.ground_servers == 0:
        raise OverloadError("no ground servers to take the residual workload")
    return uniform_split(ground_total, sc.ground_servers), hap


def _outage_rows(cfg, spec, points):
    """Outage rows of the grid points, each with whether it prices a saving
    on offered traffic that saturates the link: the link columns, kept on
    every row, and both policies priced on the grid's evaluation, each
    saving cell as ``saving`` gives it.

    The Monte Carlo cells are ``channel.empirical_ccdf`` of the sweep's
    whole sample at every point's demand, drawn from ``default_rng(seed)``
    (its draw chunk ``c`` from ``SeedSequence(seed, spawn_key=(c,))``).
    Every point shares the config's fleet shape and site, so the offered
    points are one ``offload.Fleets`` group."""
    ch, sc = cfg.channel, cfg.scenario
    values = [value for _, value in points]
    demands = channel.spectral_demand(ch, cfg.workload, np.array(values))
    mcs, ses = channel.empirical_ccdf(ch, demands, spec.samples,
                                      np.random.default_rng(spec.seed))
    answered, offered = [], []
    for value, lb, ub, mc, se in zip(
            values, channel.ccdf_lower(ch, demands).tolist(),
            channel.ccdf_upper(ch, demands).tolist(), mcs.tolist(),
            ses.tolist()):
        row = [value, lb, ub, mc, se, 1.0 - lb, None, None, None]
        answered.append((row, False))
        try:
            ground, hap = _offload_rates(cfg, value)
        except OverloadError as exc:
            row[-1] = str(exc)
        else:
            offered.append((len(answered) - 1, ground, hap))
    if not offered:
        return answered
    indices, grounds, haps = zip(*offered)
    # each row's per-link rate sums the exact split of its value, so the
    # row's drop cell is the drop_probability the evaluation would take
    ev, = offload.evaluate_offload(
        [offload.Fleets(np.array(grounds, dtype=float),
                        np.array(haps, dtype=float),
                        [(sc.latitude_deg, sc.day_of_year)] * len(indices),
                        sc.hap_count, sc.window)], cfg,
        [np.array([answered[k][0][5] for k in indices])])
    without = offload.reroute_savings(ev, cfg)
    # both policies hold the evaluation's errors; only the reroute holds
    # the error of a reroute the ground fleet cannot take
    _fill(answered, indices, ev, without.errors, slice(6, 8),
          offload.retransmit_savings(ev, cfg).saved_rate, without.saved_rate)
    return answered


def _delay_row(cfg, spec, index, value):
    rep = offload.end_to_end_delay(cfg, value)
    regime = "transport" if rep.transport_dominated else "queueing"
    des_wait = des_se = None
    if value > 0.0:
        rng = np.random.default_rng(
            np.random.SeedSequence(spec.seed, spawn_key=(index,)))
        try:
            sim = queueing.simulate_mm1_vacations(
                value, rep.service_rate, cfg.workload.vacation_rate,
                spec.samples, rng)
        except NumericsError:
            sim = None  # over the vacation budget: nothing simulated
        # a run of fewer than two regeneration cycles has no error bar,
        # and a mean without one is not reported
        if sim is not None and sim.stderr is not None:
            des_wait, des_se = sim.mean_wait, sim.stderr
    return [rep.mean_wait_s, des_wait, des_se, rep.rtt_s,
            rep.total_delay_s, regime]


_FLY = _Analysis("flying", ("lambda_max", "threshold", "binding"),
                 partial(_each_point, _fly_row, 3), needs_fleet=True)
_ENERGY = _Analysis("energy", ("e_tdc", "e_hybrid", "saved_rate", "n_retx"),
                    _energy_rows)
_OUTAGE = _Analysis("outage", ("ccdf_lb", "ccdf_ub", "ccdf_mc", "ccdf_mc_se",
                               "drop_rate", "saved_with_retx",
                               "saved_without"),
                    _outage_rows, needs_fleet=True, offload_rate=True)
_DELAY = _Analysis("delay", ("analytic_wait", "des_wait", "des_se", "rtt",
                             "total", "regime"),
                   partial(_each_point, _delay_row, 6), needs_fleet=True,
                   offload_rate=True)


# --- the engine -------------------------------------------------------------

def _run(analysis: _Analysis, cfg: ModelConfig, spec: SweepSpec) -> SweepResult:
    if analysis.offload_rate and spec.axis != "arrival_rate":
        raise ConfigError(
            f"{analysis.name} sweeps run over the arrival_rate axis")
    if analysis.needs_fleet and cfg.scenario.hap_servers < 1:
        raise ConfigError(
            f"{analysis.name} sweep needs at least one airborne server")
    answered = analysis.rows(cfg, spec, list(enumerate(spec.values())))
    rows = [row for row, _ in answered]

    manifest = {
        "tool": f"hapdc {__version__}",
        "config": config_hash(cfg),
        "seed": str(spec.seed),
        "axis": spec.axis,
        "range": f"{spec.start!r}:{spec.stop!r}:{spec.step!r}",
    }
    if analysis.offload_rate:
        manifest["samples"] = str(spec.samples)
    first = "lambda" if analysis.offload_rate else spec.axis
    result = SweepResult([first, *analysis.columns, "error"], rows, manifest)
    saturated = sum(flag for _, flag in answered)
    if saturated:
        result.notes.append(
            f"{saturated} grid point(s) offered more traffic than the link "
            "carries; their energy figures assume the backlog still goes out")
    return _select_columns(result, spec.outputs)


def run_flying_sweep(cfg: ModelConfig, spec: SweepSpec) -> SweepResult:
    """Admissible offload rate and its binding limit along the axis."""
    return _run(_FLY, cfg, spec)


def run_energy_sweep(cfg: ModelConfig, spec: SweepSpec) -> SweepResult:
    """Baseline vs. split-system energy (retransmission variant) along the axis.

    ``n_retx`` counts the retry rounds the gross saving could fund, 0
    where nothing is dropped or nothing is saved.  It is left empty where
    that count is not a finite number: a transmit power so faint that one
    round costs a subnormal energy overflows the ratio, and the row keeps
    its other cells.
    """
    return _run(_ENERGY, cfg, spec)


def run_outage_sweep(cfg: ModelConfig, spec: SweepSpec) -> SweepResult:
    """Offload-link outage bounds, Monte Carlo check, and saving columns.

    The axis is the per-platform offload arrival rate; outage is a link
    property, so no other axis applies.  For the same reason the link
    columns (bounds, Monte Carlo estimate, drop rate) are filled on every
    row: a fleet that cannot carry the rest of the load (an overloaded
    ground residual) blanks only the two saving columns and names itself
    in ``error``.
    """
    return _run(_OUTAGE, cfg, spec)


def run_delay_sweep(cfg: ModelConfig, spec: SweepSpec) -> SweepResult:
    """Analytic and simulated offload delay over the arrival-rate axis.

    ``des_wait`` and ``des_se`` stay empty at zero load, where the
    simulation saw fewer than two regeneration cycles, and where it would
    draw more vacations than ``queueing.simulate_mm1_vacations`` allows (a
    load so small that the server takes vacations for ages between tasks).
    """
    return _run(_DELAY, cfg, spec)


# --- rendering --------------------------------------------------------------

def _native(value):
    """The plain Python value of a numpy scalar; anything else as it is."""
    return value.item() if isinstance(value, np.generic) else value


def _cell(value) -> str:
    value = _native(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# cell types that ``csv.writer`` renders as ``_cell`` does
_PLAIN = frozenset((float, int, str, type(None)))


def render_csv(result: SweepResult) -> str:
    """RFC-4180 text: ``#`` manifest lines, header row, data rows."""
    buf = io.StringIO()
    for key, val in result.manifest.items():
        buf.write(f"# {key}={val}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(result.header)
    writer.writerows(row if all(type(v) in _PLAIN for v in row)
                     else [_cell(v) for v in row] for row in result.rows)
    return buf.getvalue()


def render_json(result: SweepResult) -> str:
    """JSON mirror of the CSV: manifest, column names, row arrays."""
    payload = {
        "manifest": result.manifest,
        "columns": result.header,
        "rows": [[_native(v) for v in row] for row in result.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


RUNNERS = {
    "fly": run_flying_sweep,
    "energy": run_energy_sweep,
    "outage": run_outage_sweep,
    "delay": run_delay_sweep,
}
