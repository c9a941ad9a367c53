"""Axis sweeps over the model with deterministic seeding and file output.

A sweep walks one scenario knob over an inclusive range, evaluates one of
the four analyses at every grid point, and renders the rows as RFC-4180
CSV (with a ``#`` manifest header) or as a JSON mirror.  Reruns with the
same config and seed produce byte-identical files: an outage sweep's
Monte Carlo draws through ``channel.empirical_ccdf`` from the seed, a
delay sweep's simulation at each grid point from the seed and the
point's grid index.  These streams are drawn on one thread per usable CPU
(``_threads.ordered_map``), and no byte depends on how many.

Each analysis (flying condition, energy saving, outage, delay) is one
``_Analysis`` record: its metric columns, its fleet and axis needs, and
one function that answers the whole grid with a ``_Columns`` record: a
column of cells per metric name, each point's error and the count of
points whose offered traffic saturates the link (read from their
evaluation's airtime; the count goes to the result's ``notes``, not to
the rows).  One engine, ``_run``, refuses ``outputs`` that name an
unknown column or no metric column before the grid is priced, then zips
the grid values, the selected columns and the errors into rows.  Delay
prices its points in order, then simulates them (``_delay_columns``);
flying condition and energy read the grid's flight check, and energy its
station-keeping power, from one ``offload.fly_points`` call.  Energy and
outage price the grid one fleet shape at a time, each shape's points in
one ``offload.evaluate_offload`` call (an outage grid has one shape and
one site), and fill each priced point's cells by column name
(``_Columns.fill``); every cell keeps the bits ``offload.fly_point`` or
``offload.saving`` gives it at the point.

A grid point is a site, a date, a platform fleet size and a total
offered rate (``_axis_point``), never a copy of the config or its
scenario: no axis moves the server, cooling, platform, wind, channel or
task model, so every row reads those from the sweep's own config.

Per-point failures (a polar night, an overloaded fleet) land in the
row's ``error`` column and the sweep carries on; a sweep where every
point failed is reported as infeasible by the caller.  A failure blanks
only the columns that depend on it, as the outage and delay runners say.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import channel, offload, queueing
from ._threads import ordered_map
from ._version import __version__
from .config import ModelConfig, Scenario, config_hash, uniform_split
from .errors import (ConfigError, LinkRateError, NumericsError, OverloadError,
                     PolarError, StabilityError)

AXES = ("latitude", "day", "hap_servers", "arrival_rate")

_ROW_ERRORS = (PolarError, OverloadError, StabilityError, LinkRateError)

# Largest grid a sweep takes; the shipped grids have at most 401 points.
MAX_GRID_POINTS = 1_000_000
# Most Monte Carlo draws or simulated tasks a grid point takes; at the cap
# the delay simulation holds up to 40 B per task, some 4 GB.
MAX_SAMPLES = 10**8
DELAY_MEMORY = 2**28  # bytes the delay simulations may hold at once


@dataclass(frozen=True)
class SweepSpec:
    """One axis, an inclusive start:stop:step range, and run controls.

    ``outputs`` optionally narrows the metric columns to the named ones, in
    the analysis's order (the axis and error columns always stay); an
    unknown name, or a selection that names no metric column, is refused
    before the grid is priced.  It is a sequence of names, not one string,
    and no command-line flag sets it yet.  A range of more than
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
        if isinstance(self.outputs, str):
            raise ConfigError("SweepSpec.outputs takes a sequence of column "
                              f"names, not the string {self.outputs!r}")
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
        if self.axis in ("latitude", "day"):
            name = "latitude_deg" if self.axis == "latitude" else "day_of_year"
            bound = Scenario.__dataclass_fields__[name].metadata["bound"]
            if any(v not in bound for v in vals):
                raise ConfigError(f"{self.axis} axis must stay within {bound}")
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

    ``answer(cfg, spec, values)`` answers the grid with one ``_Columns``:
    ``len(values)`` cells in grid order for each name in ``columns``.
    ``offload_rate`` analyses read the grid value as the per-platform
    offload arrival rate instead of as the axis knob of ``_axis_point``,
    so they take only the ``arrival_rate`` axis, head their first column
    ``lambda`` and record ``samples`` in the manifest.  A spec with fewer
    than ``min_samples`` samples is refused before the grid is priced.
    """

    name: str
    columns: tuple[str, ...]
    answer: Callable
    needs_fleet: bool = False
    offload_rate: bool = False
    min_samples: int = 1


@dataclass
class _Columns:
    """An analysis's answer on a grid: one plain Python cell per grid
    point in each column of ``cells``, each point's error text or None,
    and the count of points whose offered traffic saturates the link."""

    cells: dict[str, list]
    errors: list
    saturated: int = 0

    def fill(self, indices, errors, saturated: np.ndarray, **columns):
        """Answer the grid points ``indices``, the rows of an evaluation:
        a row's error text, else its entry of each named column and
        whether its offered traffic saturates the link."""
        for row, (index, error, flag) in enumerate(
                zip(indices, errors, saturated.tolist())):
            if error is not None:
                self.errors[index] = str(error)
                continue
            self.saturated += flag
            for name, column in columns.items():
                self.cells[name][index] = column[row]


def _fly_columns(cfg, spec, values):
    """Flying columns of the grid values from one ``offload.fly_points``
    call, each cell and error as ``offload.fly_point`` gives it."""
    size = len(values)
    answer = _Columns({name: [None] * size for name in _FLY.columns},
                      [None] * size)
    rates, cap, bounds, errors, _ = offload.fly_points(*zip(*(
        _axis_point(cfg, spec.axis, value)[:3] for value in values)), cfg)
    answer.fill(range(size), errors, np.zeros(size, dtype=bool),
                lambda_max=rates, threshold=[cap] * size, binding=bounds)
    return answer


def _energy_columns(cfg, spec, values):
    """Energy columns of the grid values, each cell as
    ``saving(point, *allocate_rates(point), with_retransmission=True)``
    gives it at the point's config, error text included, and the count of
    points whose offered traffic saturates the link.

    Every distinct site, date and fleet on the grid with a platform
    server gets its per-server lambda_max and station-keeping power, or
    its error, from one ``offload.fly_points`` call.  The points are
    gathered by fleet shape, and each shape's totals are allocated in one
    ``offload._allocate`` call and its admitted points priced by one
    ``offload.evaluate_offload`` call.
    """
    sc, size = cfg.scenario, len(values)
    answer = _Columns({name: [None] * size for name in _ENERGY.columns},
                      [None] * size)
    points = [_axis_point(cfg, spec.axis, value) for value in values]
    sites = list(dict.fromkeys(point[:3] for point in points
                               if point[2] * sc.hap_count))
    rates, _, _, errors, power = (offload.fly_points(*zip(*sites), cfg)
                                  if sites else ((),) * 5)
    admitted, groups = dict(zip(sites, zip(rates, errors, power))), {}
    for index, point in enumerate(points):
        rate, error, watts = admitted.get(point[:3], (0.0, None, 0.0))
        if error is not None:
            answer.errors[index] = str(error)
        else:
            groups.setdefault(point[2], []).append(
                (index, point[3], rate, watts))
    for servers, members in groups.items():
        indices, totals, per_server, power = zip(*members)
        ground, hap, errors = offload._allocate(
            sc, servers, np.array(totals), np.array(per_server), cfg)
        answer.fill(indices, errors, np.zeros(len(indices), dtype=bool))
        rows = [row for row, error in enumerate(errors) if error is None]
        ev = offload.evaluate_offload(
            offload.Fleets(ground[rows], hap[rows], np.array(power)[rows],
                           sc.hap_count, sc.window), cfg)
        savings = offload.retransmit_savings(ev, cfg)
        answer.fill([indices[k] for k in rows], savings.errors, ev.saturated,
                    e_tdc=savings.e_tdc_j, e_hybrid=savings.e_hybrid_j,
                    saved_rate=savings.saved_rate,
                    n_retx=savings.retransmissions)
    return answer


def _offload_rates(cfg: ModelConfig, per_link_rates: np.ndarray):
    """Rows of ground and of per-platform rates of the config's fleet when
    its platforms each carry one of the column ``per_link_rates``, and each
    row's OverloadError or None.  The ground fleet keeps whatever the
    configured total leaves over (never negative); a row with no ground
    server to take that fails and holds zero ground rates."""
    sc = cfg.scenario
    left = cfg.workload.arrival_rate_total - per_link_rates * sc.hap_count
    ground_total = np.where(left > 0.0, left, 0.0)
    failed = (ground_total > 0) & (sc.ground_servers == 0)
    errors = [OverloadError("no ground servers to take the residual workload")
              if flag else None for flag in failed.tolist()]
    return (uniform_split(np.where(failed, 0.0, ground_total),
                          sc.ground_servers),
            uniform_split(per_link_rates, sc.hap_servers), errors)


def _outage_columns(cfg, spec, values):
    """Outage columns of the grid values, and the count of points that
    price a saving on offered traffic that saturates the link: the link
    columns, kept at every point, and both policies priced on the grid's
    evaluation, each saving cell as ``saving(cfg, ground_rates, hap_rates,
    with_retransmission)`` gives it at the point's split of
    ``_offload_rates``.

    The Monte Carlo cells are ``channel.empirical_ccdf`` of the sweep's
    whole sample at every point's demand, drawn from ``default_rng(seed)``
    (its draw chunk ``c`` from ``SeedSequence(seed, spawn_key=(c,))``).
    Every point shares the config's fleet shape and site, so the offered
    points are one ``offload.Fleets`` group."""
    ch, sc, size = cfg.channel, cfg.scenario, len(values)
    demands = channel.spectral_demand(ch, cfg.workload, np.array(values))
    mcs, ses = channel.empirical_ccdf(ch, demands, spec.samples,
                                      np.random.default_rng(spec.seed))
    lb = channel.ccdf_lower(ch, demands)
    drops = 1.0 - lb
    answer = _Columns({"ccdf_lb": lb.tolist(),
                       "ccdf_ub": channel.ccdf_upper(ch, demands).tolist(),
                       "ccdf_mc": mcs.tolist(), "ccdf_mc_se": ses.tolist(),
                       "drop_rate": drops.tolist(),
                       "saved_with_retx": [None] * size,
                       "saved_without": [None] * size}, [None] * size)
    grounds, haps, errors = _offload_rates(cfg, np.array(values))
    answer.fill(range(size), errors, np.zeros(size, dtype=bool))
    offered = [index for index, error in enumerate(errors) if error is None]
    # each point's per-link rate sums the exact split of its value, so its
    # drop cell is the drop_probability the evaluation would take
    power = offload.station_keeping(cfg, [sc.latitude_deg], [sc.day_of_year])
    ev = offload.evaluate_offload(offload.Fleets(
        grounds[offered], haps[offered], power.repeat(len(offered)),
        sc.hap_count, sc.window), cfg, drops[offered])
    without = offload.reroute_savings(ev, cfg)
    # both policies hold the evaluation's errors; only the reroute holds
    # the error of a reroute the ground fleet cannot take
    answer.fill(offered, without.errors, ev.saturated,
                saved_with_retx=offload.retransmit_savings(ev, cfg).saved_rate,
                saved_without=without.saved_rate)
    return answer


def _delay_columns(cfg, spec, values):
    """Delay columns of the grid values: each point's analytic report, or
    its ``_ROW_ERRORS`` error, in grid order, then the points of positive
    rate simulated through ``ordered_map``, point ``index`` drawing from
    ``SeedSequence(seed, spawn_key=(index,))``.  A simulation holds up to
    40 B per task, so at most ``DELAY_MEMORY // (40 * samples)`` of them
    (256 MiB in all) run at once: 6 at a million tasks, one above 3.4
    million."""
    rows, errors, drawn = [], [], []
    for index, value in enumerate(values):
        try:
            rep = offload.end_to_end_delay(cfg, value)
        except _ROW_ERRORS as exc:
            rows.append([None] * len(_DELAY.columns))
            errors.append(str(exc))
            continue
        regime = "transport" if rep.transport_dominated else "queueing"
        rows.append([rep.mean_wait_s, None, None, rep.rtt_s,
                     rep.total_delay_s, regime])
        errors.append(None)
        if value > 0.0:
            drawn.append((index, rep.service_rate))

    def simulate(job):
        index, service_rate = job
        rng = np.random.default_rng(
            np.random.SeedSequence(spec.seed, spawn_key=(index,)))
        try:
            sim = queueing.simulate_mm1_vacations(
                values[index], service_rate, cfg.workload.vacation_rate,
                spec.samples, rng)
        except NumericsError:
            return  # over the vacation budget: nothing simulated
        # a run of fewer than two regeneration cycles has no error bar,
        # and a mean without one is not reported
        if sim.stderr is not None:
            rows[index][1:3] = sim.mean_wait, sim.stderr

    ordered_map(simulate, drawn, max(1, DELAY_MEMORY // (40 * spec.samples)))
    return _Columns(dict(zip(_DELAY.columns, map(list, zip(*rows)))), errors)


_FLY = _Analysis("flying", ("lambda_max", "threshold", "binding"),
                 _fly_columns, needs_fleet=True)
_ENERGY = _Analysis("energy", ("e_tdc", "e_hybrid", "saved_rate", "n_retx"),
                    _energy_columns)
_OUTAGE = _Analysis("outage", ("ccdf_lb", "ccdf_ub", "ccdf_mc", "ccdf_mc_se",
                               "drop_rate", "saved_with_retx",
                               "saved_without"),
                    _outage_columns, needs_fleet=True, offload_rate=True)
_DELAY = _Analysis("delay", ("analytic_wait", "des_wait", "des_se", "rtt",
                             "total", "regime"),
                   _delay_columns,
                   needs_fleet=True, offload_rate=True, min_samples=2)


# --- the engine -------------------------------------------------------------

def _run(analysis: _Analysis, cfg: ModelConfig, spec: SweepSpec) -> SweepResult:
    if analysis.offload_rate and spec.axis != "arrival_rate":
        raise ConfigError(
            f"{analysis.name} sweeps run over the arrival_rate axis")
    if spec.samples < analysis.min_samples:
        raise ConfigError(f"{analysis.name} sweeps need samples of at least "
                          f"{analysis.min_samples}")
    if analysis.needs_fleet and cfg.scenario.hap_servers < 1:
        raise ConfigError(
            f"{analysis.name} sweep needs at least one airborne server")
    first = "lambda" if analysis.offload_rate else spec.axis
    unknown = set(spec.outputs) - {first, *analysis.columns, "error"}
    if unknown:
        raise ConfigError(
            f"unknown output column(s): {', '.join(sorted(unknown))}")
    names = [name for name in analysis.columns
             if not spec.outputs or name in spec.outputs]
    if not names:
        raise ConfigError(f"outputs name no {analysis.name} metric column; "
                          f"pick from {', '.join(analysis.columns)}")
    values = spec.values()
    answer = analysis.answer(cfg, spec, values)
    rows = list(map(list, zip(values, *(answer.cells[name] for name in names),
                              answer.errors)))

    manifest = {
        "tool": f"hapdc {__version__}",
        "config": config_hash(cfg),
        "seed": str(spec.seed),
        "axis": spec.axis,
        "range": f"{spec.start!r}:{spec.stop!r}:{spec.step!r}",
    }
    if analysis.offload_rate:
        manifest["samples"] = str(spec.samples)
    result = SweepResult([first, *names, "error"], rows, manifest)
    if answer.saturated:
        result.notes.append(
            f"{answer.saturated} grid point(s) offered more traffic than the "
            "link carries; their energy figures assume the backlog still "
            "goes out")
    return result


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

    ``rtt`` is ``channel.round_trip_time``, the two-way airtime of one
    second of offered traffic: it grows with the load and is not one
    task's delay.  ``regime`` reads ``transport`` where it is at least
    the analytic wait, ``queueing`` otherwise.

    ``des_wait`` and ``des_se`` stay empty at zero load, where the
    simulation saw fewer than two regeneration cycles, and where it would
    draw more vacations than ``queueing.simulate_mm1_vacations`` allows (a
    load so small that the server takes vacations for ages between tasks).
    The simulations run on one thread per usable CPU, as ``DELAY_MEMORY``
    allows, each on its point's own stream, so no row moves with them.
    """
    return _run(_DELAY, cfg, spec)


# --- rendering --------------------------------------------------------------

def render_csv(result: SweepResult) -> str:
    """RFC-4180 text: ``#`` manifest lines, header row, data rows; ``csv``
    writes each plain cell, a float as its repr and None as empty."""
    buf = io.StringIO()
    for key, val in result.manifest.items():
        buf.write(f"# {key}={val}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(result.header)
    writer.writerows(result.rows)
    return buf.getvalue()


def render_json(result: SweepResult) -> str:
    """JSON mirror of the CSV: manifest, column names, row arrays."""
    payload = {
        "manifest": result.manifest,
        "columns": result.header,
        "rows": result.rows,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


RUNNERS = {
    "fly": run_flying_sweep,
    "energy": run_energy_sweep,
    "outage": run_outage_sweep,
    "delay": run_delay_sweep,
}
