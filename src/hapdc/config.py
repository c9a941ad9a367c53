"""Typed configuration model and YAML loader.

Every model parameter lives in one of the frozen dataclasses below.  Their
defaults are the shipped study, ``configs/default.yaml`` (a test keeps the
two equal), so a config file may set any subset of the section fields and
an empty file is that study.  ``load_config`` / ``dump_config`` round-trip
exactly.  The scenario holds the site, date, window and fleet shape, not
per-server rates: the one-row API takes those as arguments
(``offload.saving(cfg, ground_rates, hap_rates)``).

YAML is parsed by libyaml (PyYAML's ``CSafeLoader``) when PyYAML has it, and
by the pure-Python ``SafeLoader`` otherwise, to the same values.

``config_hash``, every output's manifest hash, is the sha256 of the tag
``hapdc-config/2`` and ``dump_config``'s mapping of those fields in sorted
order, every number written as the ``repr`` of its float (an int no float
equals in hex).  It names those values, not the bytes printed from them:
``80`` and ``80.0`` hash alike, though a polar error cell prints each as
written, and ``-0.0`` and ``0.0`` hash apart, as their ``repr``s differ.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
import yaml

from .errors import ConfigError, ValidationError

MIPS = 1.0e6  # instructions per second per MIPS

_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# thermal noise floor, W/Hz (-174 dBm/Hz)
_NOISE_DENSITY_W_PER_HZ = 10.0 ** ((-174.0 - 30.0) / 10.0)


@dataclass(frozen=True)
class Interval:
    """The values a config field may take, ``lo`` to ``hi`` with each end
    open or closed, and the words its refusal uses (by default, ``be in``
    the interval).  A value is inside only where both comparisons hold, so
    NaN lies outside every interval."""

    lo: float
    hi: float = math.inf
    words: str = ""
    lo_open: bool = False
    hi_open: bool = False

    def __contains__(self, value) -> bool:
        return ((self.lo < value if self.lo_open else self.lo <= value)
                and (value < self.hi if self.hi_open else value <= self.hi))

    def __str__(self) -> str:
        return (f"{'(' if self.lo_open else '['}{self.lo:g}, "
                f"{self.hi:g}{')' if self.hi_open else ']'}")


_POSITIVE = Interval(0.0, words="be positive", lo_open=True)
_KELVIN = Interval(0.0, words="be positive (Kelvin)", lo_open=True)
_NON_NEGATIVE = Interval(0.0, words="be non-negative")
_AT_LEAST_1 = Interval(1, words="be at least 1")
_FRACTION = Interval(0.0, 1.0, lo_open=True)


def _param(default, unit: str, bound: Interval | None = None,
           group: str | None = None):
    """A section field: its default (``MISSING`` for none), its SI unit, the
    interval its value must lie in, and the group a refusal names in place
    of the field."""
    return field(default=default,
                 metadata={"unit": unit, "bound": bound, "group": group})


class _Section:
    """A config section, whose fields are ``_param``s, or a bundle of them."""

    def validate(self):
        """Refuse the first field outside its interval (a None, a link
        budget left underived, is skipped) or whose own section refuses it,
        then the section's rules."""
        for f in fields(self):
            value, bound = getattr(self, f.name), f.metadata.get("bound")
            if isinstance(value, _Section):
                value.validate()
            elif bound is not None and value is not None and value not in bound:
                raise ValidationError(
                    f"{type(self).__name__}: {f.metadata['group'] or f.name} "
                    f"must {bound.words or f'be in {bound}'}")
        self._rules()

    def _rules(self):
        """The checks that read more than one field; none by default."""


@dataclass(frozen=True)
class ServerSpec(_Section):
    """One compute server: capacity, power envelope and thermal bulk."""

    service_rate_mips: float = _param(580.0, "Minstr/s", _POSITIVE)
    p_idle: float = _param(10000.0, "W", _NON_NEGATIVE)
    """Idle power draw."""
    p_peak: float = _param(60000.0, "W")
    """Power draw at full utilization."""
    desired_utilization: float = _param(1.0, "1", _FRACTION)
    heat_capacity: float = _param(340.0, "J/K", _POSITIVE, "thermal parameters")
    """Lumped thermal capacitance of the server."""
    thermal_resistance: float = _param(0.34, "K/W", _POSITIVE, "thermal parameters")
    """CPU-to-air thermal resistance."""

    @property
    def service_rate_ips(self) -> float:
        """Service rate in instructions per second."""
        return self.service_rate_mips * MIPS

    def _rules(self):
        if not self.p_peak > self.p_idle:
            raise ValidationError(
                "ServerSpec: p_peak must exceed p_idle "
                f"(p_idle={self.p_idle}, p_peak={self.p_peak})"
            )


@dataclass(frozen=True)
class WorkloadSpec(_Section):
    """Task stream characteristics shared by both data centers."""

    arrival_rate_total: float = _param(20000.0, "task/s", _NON_NEGATIVE)
    """Aggregate task arrival rate for the whole system."""
    task_length_instr: float = _param(1.0e6, "instr", _POSITIVE)
    """Instructions per task: the one task length the energy and link
    models read."""
    bits_per_instruction: float = _param(0.02, "bit/instr", _POSITIVE)
    """Offloaded data bits carried per instruction of compute."""
    overhead_ratio: float = _param(1.1, "1", Interval(1.0, words="be >= 1"))
    """Transmission overhead multiplier applied to offered bits."""
    vacation_rate: float = _param(10.0, "1/s", _POSITIVE)
    """Rate of the exponential server vacations."""

    def bits_per_task(self) -> float:
        return self.task_length_instr * self.bits_per_instruction


@dataclass(frozen=True)
class FanSpec(_Section):
    """CRAC fan sized from airflow and pressure loss instead of a fixed power."""

    air_flow_rate: float = _param(MISSING, "m^3/s", _POSITIVE, "air_flow_rate and pressure_loss")
    pressure_loss: float = _param(MISSING, "Pa", _POSITIVE, "air_flow_rate and pressure_loss")
    fan_efficiency: float = _param(MISSING, "1", _FRACTION)
    motor_efficiency: float = _param(MISSING, "1", _FRACTION)

    def power(self) -> float:
        return self.air_flow_rate * self.pressure_loss / (
            self.fan_efficiency * self.motor_efficiency
        )


@dataclass(frozen=True)
class CoolingSpec(_Section):
    """CRAC room model: supply air, fan power and recirculation dynamics."""

    crac_count: int = _param(4, "1", _AT_LEAST_1)
    supply_temp: float = _param(299.15, "K", _KELVIN)
    """CRAC supply air temperature."""
    fan_power: float = _param(500.0, "W")
    """Fan power per CRAC (ignored when ``fan`` is given)."""
    fan: FanSpec | None = _param(None, "W")
    """The fan that sets the power per CRAC in place of ``fan_power``."""
    recirculation_raise: float = _param(2.0, "K", _NON_NEGATIVE)
    """Steady inlet temperature rise above supply air."""
    crac_influence_rate: float = _param(0.05, "1/s", _POSITIVE)
    """Rate at which inlet air relaxes toward the CRAC supply."""
    t_in_initial: float = _param(310.0, "K", _KELVIN, "initial temperatures")
    t_cpu_initial: float = _param(318.0, "K", _KELVIN, "initial temperatures")

    def fan_power_w(self) -> float:
        return self.fan.power() if self.fan is not None else self.fan_power

    def _rules(self):
        if self.fan is None and self.fan_power not in _NON_NEGATIVE:
            raise ValidationError("CoolingSpec: fan_power must be non-negative")


@dataclass(frozen=True)
class HapPlatform(_Section):
    """Airship geometry and solar harvest chain."""

    pv_area: float = _param(8000.0, "m^2", _POSITIVE)
    pv_efficiency: float = _param(0.4, "1", _FRACTION)
    propeller_efficiency: float = _param(0.8, "1", _FRACTION)
    air_density: float = _param(0.08891, "kg/m^3", _POSITIVE)
    """Stratospheric air density."""
    air_viscosity: float = _param(1.422e-5, "N*s/m^2", _POSITIVE)
    """Dynamic viscosity."""
    body_length: float = _param(115.0, "m", _POSITIVE)
    body_diameter: float = _param(34.0, "m", _POSITIVE)
    hap_velocity: float = _param(8.0, "m^3", _POSITIVE)
    """A volume, despite the name: the drag law reads its 2/3 power as the
    drag reference area, so 8.0 gives 4 m^2."""
    drag_constant: float = _param(1.8, "1", _POSITIVE)
    """Hull-to-envelope drag multiplier."""

    @property
    def fineness_ratio(self) -> float:
        return self.body_length / self.body_diameter


@dataclass(frozen=True)
class WindSpec(_Section):
    """Wind forcing: constant speed or a per-(latitude, day) lookup table."""

    speed: float = _param(20.0, "m/s", _NON_NEGATIVE)
    table: tuple[tuple[float, float, float], ...] | None = _param(
        None, "(deg, d, m/s)")
    """Rows of (latitude_deg, day_of_year, wind_speed); nearest-neighbor lookup."""

    def speed_at(self, latitude_deg: float, day: float) -> float:
        if not self.table:
            return self.speed
        # the nearest row, its day gap taken the shorter way around the year
        def gap(row):
            days = abs(row[1] - day) % 365.0
            return (row[0] - latitude_deg) ** 2 + min(days, 365.0 - days) ** 2

        return min(self.table, key=gap)[2]

    def _rules(self):
        if any(row[2] not in _NON_NEGATIVE for row in self.table or ()):
            raise ValidationError("WindSpec: table wind speeds must be non-negative")


@dataclass(frozen=True)
class ChannelConfig(_Section):
    """Offloading link: antenna geometry, Rician fading and power budget.

    The link budget is derived once, at construction: a ``noise_power`` or
    ``avg_rx_snr`` left as None is filled in from the other fields (the SNR
    only when the noise and ``link_distance`` are nonzero; a budget that
    cannot be derived stays None and ``validate()`` names the bad field).
    Construction also fails, with a ValidationError, where the reference
    draw's budget leaves the float range: a ``link_distance`` whose square
    overflows, or a ``power_over_noise`` that is not finite; for the
    latter the field walk runs first, so an input out of its bounds (a
    NaN ``bandwidth_hz``, ``tx_power`` or ``noise_power``) is the one named.
    ``dataclasses.replace(ch, tx_power=...)`` keeps the derived SNR; pass
    ``avg_rx_snr=None`` (and ``noise_power=None``) to derive them again.
    """

    tx_antennas: int = _param(2, "1", _AT_LEAST_1, "antenna counts")
    rx_antennas: int = _param(16, "1", _AT_LEAST_1, "antenna counts")
    bandwidth_hz: float = _param(100.0e6, "Hz", _POSITIVE)
    rician_factor: float = _param(10.0, "1", _NON_NEGATIVE)
    ref_gain: float = _param(1.0e-6, "1", _POSITIVE, "ref_gain and link_distance")
    """Path gain at 1 m reference distance (linear, -60 dB default)."""
    link_distance: float = _param(20.0e3, "m", _POSITIVE, "ref_gain and link_distance")
    tx_power: float = _param(10.0, "W", _POSITIVE)
    noise_power: float | None = _param(None, "W", _POSITIVE)
    """Receiver noise power; thermal over the bandwidth when omitted."""
    avg_rx_snr: float | None = _param(None, "1", _POSITIVE)
    """Mean per-antenna receive SNR; derived from the link budget when omitted."""

    def __post_init__(self):
        if self.noise_power is None:
            object.__setattr__(self, "noise_power",
                               _NOISE_DENSITY_W_PER_HZ * self.bandwidth_hz)
        if not self.link_distance:
            return
        path_loss = self._path_loss()
        if self.avg_rx_snr is None and self.noise_power:
            object.__setattr__(
                self, "avg_rx_snr", self.tx_power * self.ref_gain
                / (path_loss * self.noise_power))
        if self.avg_rx_snr is not None and self.ref_gain:
            ratio = self.power_over_noise()
            if not math.isfinite(ratio):
                self.validate()
                raise ValidationError(
                    f"channel.avg_rx_snr {self.avg_rx_snr!r} with "
                    f"link_distance {self.link_distance!r} and ref_gain "
                    f"{self.ref_gain!r} gives a transmit power over noise "
                    f"of {ratio!r}; it must be finite")

    def _path_loss(self) -> float:
        """``link_distance`` squared; a ValidationError where the square
        leaves the float range."""
        try:
            return float(self.link_distance)**2
        except OverflowError:
            raise ValidationError(
                f"channel.link_distance {self.link_distance!r} is too "
                "large: its square overflows the link budget") from None

    def power_over_noise(self) -> float:
        """Transmit power over noise power, P/noise, that the mean receive
        SNR implies on a channel drawn by ``channel.sample_channel``:
        avg_rx_snr * link_distance^2 / ref_gain.  With a derived SNR this
        is tx_power / noise_power to within a few ulps."""
        return self.avg_rx_snr * self._path_loss() / self.ref_gain


@dataclass(frozen=True)
class Scenario(_Section):
    """A concrete deployment: site, date, window and fleet shape."""

    latitude_deg: float = _param(40.0, "deg", Interval(-90.0, 90.0))
    day_of_year: float = _param(150.0, "d", Interval(0.0, 366.0))
    window: tuple[float, float] = _param((0.0, 86400.0), "s")
    ground_servers: int = _param(40, "1", _NON_NEGATIVE, "server counts")
    hap_servers: int = _param(40, "1", _NON_NEGATIVE, "server counts")
    hap_count: int = _param(1, "1", _AT_LEAST_1)

    @property
    def window_length(self) -> float:
        return self.window[1] - self.window[0]

    def _rules(self):
        t1, t2 = self.window
        if not 0 <= t1 < t2:
            raise ValidationError("Scenario: window must satisfy 0 <= t1 < t2")


@dataclass(frozen=True)
class ModelConfig(_Section):
    """Top-level bundle of all model sections."""

    server: ServerSpec = field(default_factory=ServerSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    cooling: CoolingSpec = field(default_factory=CoolingSpec)
    hap: HapPlatform = field(default_factory=HapPlatform)
    wind: WindSpec = field(default_factory=WindSpec)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    scenario: Scenario = field(default_factory=Scenario)


def uniform_split(total: float | np.ndarray,
                  n: int) -> tuple[float, ...] | np.ndarray:
    """Split ``total`` into ``n`` equal shares that sum to ``total`` exactly.

    The last share takes the residual that the rounded sum of the equal
    shares leaves, or where that still misses, the exact residual; both
    sums are ``fsum_runs``.  A column of totals gives one row of shares
    per total, each as the one-row call, a tuple, gives it.
    """
    if n < 0:
        raise ValidationError("uniform_split: n must be non-negative")
    totals = np.array(total, dtype=float, ndmin=1)
    if n == 0 and totals.any():
        raise ValidationError(
            "uniform_split: cannot split a non-zero total over 0 servers")
    if n and (totals < 0).any():
        raise ValidationError("uniform_split: total must be non-negative")
    share = totals / max(n, 1)
    shares = np.repeat(share[:, None], n, axis=1)
    if n:
        with np.errstate(invalid="ignore"):  # inf - inf, as a float gives
            last = share + (totals - fsum_runs(share[:, None], [n]))
        miss = fsum_runs(np.column_stack([share, last]), [n - 1, 1]) != totals
        last[miss] = share[miss] + fsum_runs(
            np.column_stack([totals, -share])[miss], [1, n])
        shares[:, -1] = last
    return shares if np.ndim(total) else tuple(shares[0].tolist())


def fsum_runs(values: np.ndarray, counts) -> np.ndarray:
    """``math.fsum`` of each row of ``values`` with column j repeated
    ``counts[j]`` times, bit for bit, from the exact terms count x hi and
    count x lo of Dekker's split v = hi + lo (Numer. Math. 18, 1971): exact
    where the counts sum to at most 2**26 and the row's values are finite
    and zero or of magnitude in [2**-969, 2**969]; any other row is summed
    entry by entry."""
    counts = np.asarray(counts, dtype=float)
    size = np.abs(values)
    exact = (((size >= 2.0**-969) & (size <= 2.0**969)) | (size == 0.0)
             ).all(axis=1) & (counts.sum() <= 2**26)
    split = values[exact] * (2.0**27 + 1.0)
    hi = split - (split - values[exact])
    sums = np.empty(len(values))
    sums[exact] = list(map(math.fsum, np.hstack(
        [counts * hi, counts * (values[exact] - hi)]).tolist()))
    for row in np.flatnonzero(~exact).tolist():
        sums[row] = math.fsum(
            np.repeat(values[row], counts.astype(int)).tolist())
    return sums


_SECTION_TYPES = {f.name: f.default_factory for f in fields(ModelConfig)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value, count: int) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) == count
            and all(map(_is_number, value)))


# What a YAML value may be for each field annotation; values are kept as
# written, so an integer stays an integer in a number field.
_ACCEPTS = {
    "float": _is_number,
    "float | None": lambda v: v is None or _is_number(v),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "tuple[float, float]": lambda v: _is_numbers(v, 2),
    "FanSpec | None": lambda v: v is None or isinstance(v, dict),
    "tuple[tuple[float, float, float], ...] | None": lambda v: v is None or (
        isinstance(v, (list, tuple)) and all(_is_numbers(r, 3) for r in v)),
}


def _finite(value) -> bool:
    """False where a number in ``value``, or in a list of them at any depth,
    is a NaN, an infinity or an int too large for a float."""
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    try:
        return not _is_number(value) or math.isfinite(value)
    except OverflowError:
        return False


def _coerce(name: str, value, section: str, annotation: str):
    if not _ACCEPTS[annotation](value):
        raise ConfigError(
            f"{section}.{name} must be {annotation}, got {value!r}")
    if not _finite(value):
        raise ConfigError(f"{section}.{name} must be finite, got {value!r}")
    if value is None:
        return None
    if name == "window":
        return (float(value[0]), float(value[1]))
    if name == "fan":
        return _build_section("cooling.fan", FanSpec, value)
    if name == "table":
        return tuple(tuple(float(x) for x in row) for row in value)
    return value


def _build_section(section: str, cls, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{section}' must be a mapping")
    annotations = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in annotations:
            raise ConfigError(f"unknown key '{key}' in config section '{section}'")
        kwargs[key] = _coerce(key, value, section, annotations[key])
    missing = [f.name for f in fields(cls) if f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing key(s) {', '.join(map(repr, missing))} "
                          f"in config section '{section}'")
    return cls(**kwargs)


def _load_wind_table(path: str, base_dir: str):
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    rows = []
    try:
        with open(full, newline="") as fh:
            for rec in csv.DictReader(fh):
                rows.append((
                    float(rec["latitude_deg"]),
                    float(rec["day_of_year"]),
                    float(rec["wind_speed"]),
                ))
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot read wind table '{full}': {exc}") from exc
    if not rows:
        raise ConfigError(f"wind table '{full}' has no rows")
    if not _finite(rows):
        raise ConfigError(f"wind.table_path '{full}' must hold finite "
                          "numbers only")
    return tuple(rows)


def load_config(path: str) -> ModelConfig:
    """Parse a YAML config file into a validated ModelConfig.

    Missing sections and fields take the library defaults, which are the
    shipped study, so an empty file yields it.  Unknown keys, and NaN or
    infinite numbers or ints too large for a float, are rejected with a
    ConfigError that names the key.
    """
    loader = None
    try:
        with open(path) as fh:
            loader = _YAML_LOADER(fh)
            raw = loader.get_single_data()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file '{path}': {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in '{path}': {exc}") from exc
    except ValueError as exc:
        if loader is None:  # open refused the path, as for an embedded NUL
            raise ConfigError(f"cannot read config file '{path}': {exc}") from exc
        # an int past Python's digit limit or a date with no such day: name
        # the scalar PyYAML was building by its keys up the mappings
        if len(getattr(loader, "recursive_objects", ())) != 1:
            raise
        [node], keys = loader.recursive_objects, []
        where = f"line {node.start_mark.line + 1} of config file '{path}'"
        owners = {value: (parent, key) for parent in loader.constructed_objects
                  if isinstance(parent, yaml.MappingNode)
                  for key, value in parent.value}
        while node in owners:
            node, key = owners[node]
            keys.insert(0, str(loader.constructed_objects[key]))
        raise ConfigError(f"cannot read {'.'.join(keys) or 'the value'} on "
                          f"{where}: {exc}") from exc
    return build_config(raw or {}, base_dir=os.path.dirname(os.path.abspath(path)))


def build_config(raw: dict, base_dir: str = ".") -> ModelConfig:
    """Build and validate a ModelConfig from an already-parsed mapping."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping of sections")
    sections = {}
    for name, data in raw.items():
        if name not in _SECTION_TYPES:
            raise ConfigError(f"unknown config section '{name}'")
        if name == "wind" and isinstance(data, dict) and "table_path" in data:
            data = dict(data)
            table_path = data.pop("table_path")
            if table_path is not None:
                data["table"] = _load_wind_table(str(table_path), base_dir)
        sections[name] = _build_section(name, _SECTION_TYPES[name], data or {})
    cfg = ModelConfig(**sections)
    cfg.validate()
    return cfg


def dump_config(cfg: ModelConfig) -> dict:
    """Plain-type mapping that ``build_config`` parses back to an equal
    config: each section, ``fan`` included, a mapping of its fields, and
    each tuple a list."""
    def plain(value):
        if isinstance(value, _Section):
            return {f.name: plain(getattr(value, f.name))
                    for f in fields(value)}
        return list(map(plain, value)) if isinstance(value, tuple) else value

    return plain(cfg)


def _canonical(value) -> str:
    """The hashed text of one value of ``dump_config``'s mapping."""
    if isinstance(value, float) or (
            _is_number(value) and _finite(value) and float(value) == value):
        return repr(float(value))
    if isinstance(value, dict):
        return "{%s}" % ", ".join(
            [f"{key}: {_canonical(value[key])}" for key in sorted(value)])
    if isinstance(value, list):
        return "[%s]" % ", ".join(map(_canonical, value))
    # an int no float equals, a bool, None or a string
    return hex(value) if type(value) is int else repr(value)


def config_hash(cfg: ModelConfig) -> str:
    """sha256 of the validated values, derived link budget included, under
    the scheme the module docstring states."""
    text = "hapdc-config/2\n" + _canonical(dump_config(cfg))
    return hashlib.sha256(text.encode()).hexdigest()
