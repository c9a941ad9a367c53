"""Typed configuration model and YAML loader.

Every model parameter lives in one of the frozen dataclasses below.  Their
defaults are the shipped study, ``configs/default.yaml`` (a test keeps the
two equal), so a config file may set any subset of fields and an empty file
is that study.  ``load_config`` / ``dump_config`` round-trip exactly.

YAML is parsed by libyaml (PyYAML's ``CSafeLoader``) when PyYAML has it, and
by the pure-Python ``SafeLoader`` otherwise, to the same values.

``config_hash``, every output's manifest hash, is the sha256 of the tag
``hapdc-config/2`` and ``dump_config``'s mapping in sorted order, every
number written as the ``repr`` of its float (an int no float equals in
hex).  It names the values, not the bytes printed from them: ``80`` and
``80.0`` hash alike, though a polar error cell prints each as written, and
``-0.0`` and ``0.0`` hash apart, as their ``repr``s differ.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .errors import ConfigError, ValidationError

MIPS = 1.0e6  # instructions per second per MIPS

_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# thermal noise floor, W/Hz (-174 dBm/Hz)
_NOISE_DENSITY_W_PER_HZ = 10.0 ** ((-174.0 - 30.0) / 10.0)


@dataclass(frozen=True)
class ServerSpec:
    """One compute server: capacity, power envelope and thermal bulk."""

    service_rate_mips: float = 580.0
    p_idle: float = 10000.0
    """Idle power draw, W."""
    p_peak: float = 60000.0
    """Power draw at full utilization, W."""
    desired_utilization: float = 1.0
    heat_capacity: float = 340.0
    """Lumped thermal capacitance of the server, J/K."""
    thermal_resistance: float = 0.34
    """CPU-to-air thermal resistance, K/W."""

    @property
    def service_rate_ips(self) -> float:
        """Service rate in instructions per second."""
        return self.service_rate_mips * MIPS

    def validate(self):
        if self.service_rate_mips <= 0:
            raise ValidationError("ServerSpec: service_rate_mips must be positive")
        if self.p_idle < 0:
            raise ValidationError("ServerSpec: p_idle must be non-negative")
        if self.p_peak <= self.p_idle:
            raise ValidationError(
                "ServerSpec: p_peak must exceed p_idle "
                f"(p_idle={self.p_idle}, p_peak={self.p_peak})"
            )
        if not 0.0 < self.desired_utilization <= 1.0:
            raise ValidationError("ServerSpec: desired_utilization must be in (0, 1]")
        if self.heat_capacity <= 0 or self.thermal_resistance <= 0:
            raise ValidationError("ServerSpec: thermal parameters must be positive")


@dataclass(frozen=True)
class WorkloadSpec:
    """Task stream characteristics shared by both data centers."""

    arrival_rate_total: float = 20000.0
    """Aggregate task arrival rate for the whole system, task/s."""
    task_length_instr: float = 1.0e6
    """Instructions per task: the one task length the energy and link
    models read."""
    bits_per_instruction: float = 0.02
    """Offloaded data bits carried per instruction of compute."""
    overhead_ratio: float = 1.1
    """Transmission overhead multiplier applied to offered bits."""
    vacation_rate: float = 10.0
    """Rate of the exponential server vacations, 1/s."""

    def bits_per_task(self) -> float:
        return self.task_length_instr * self.bits_per_instruction

    def validate(self):
        if self.arrival_rate_total < 0:
            raise ValidationError("WorkloadSpec: arrival_rate_total must be non-negative")
        if self.task_length_instr <= 0:
            raise ValidationError("WorkloadSpec: task_length_instr must be positive")
        if self.bits_per_instruction <= 0:
            raise ValidationError("WorkloadSpec: bits_per_instruction must be positive")
        if self.overhead_ratio < 1.0:
            raise ValidationError("WorkloadSpec: overhead_ratio must be >= 1")
        if self.vacation_rate <= 0:
            raise ValidationError("WorkloadSpec: vacation_rate must be positive")


@dataclass(frozen=True)
class FanSpec:
    """CRAC fan sized from airflow and pressure loss instead of a fixed power."""

    air_flow_rate: float
    pressure_loss: float
    fan_efficiency: float
    motor_efficiency: float

    def power(self) -> float:
        return self.air_flow_rate * self.pressure_loss / (
            self.fan_efficiency * self.motor_efficiency
        )

    def validate(self):
        if self.air_flow_rate <= 0 or self.pressure_loss <= 0:
            raise ValidationError("FanSpec: air_flow_rate and pressure_loss must be positive")
        for name in ("fan_efficiency", "motor_efficiency"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValidationError(f"FanSpec: {name} must be in (0, 1]")


@dataclass(frozen=True)
class CoolingSpec:
    """CRAC room model: supply air, fan power and recirculation dynamics."""

    crac_count: int = 4
    supply_temp: float = 299.15
    """CRAC supply air temperature, K."""
    fan_power: float = 500.0
    """Fan power per CRAC, W (ignored when ``fan`` is given)."""
    fan: FanSpec | None = None
    recirculation_raise: float = 2.0
    """Steady inlet temperature rise above supply air, K."""
    crac_influence_rate: float = 0.05
    """Rate at which inlet air relaxes toward the CRAC supply, 1/s."""
    t_in_initial: float = 310.0
    t_cpu_initial: float = 318.0
    cop_in_celsius: bool = True
    """Evaluate the COP polynomial on deg-C (Kelvin input converted)."""

    def fan_power_w(self) -> float:
        return self.fan.power() if self.fan is not None else self.fan_power

    def validate(self):
        if self.crac_count < 1:
            raise ValidationError("CoolingSpec: crac_count must be at least 1")
        if self.supply_temp <= 0:
            raise ValidationError("CoolingSpec: supply_temp must be positive (Kelvin)")
        if self.fan is None and self.fan_power < 0:
            raise ValidationError("CoolingSpec: fan_power must be non-negative")
        if self.fan is not None:
            self.fan.validate()
        if self.recirculation_raise < 0:
            raise ValidationError("CoolingSpec: recirculation_raise must be non-negative")
        if self.crac_influence_rate <= 0:
            raise ValidationError("CoolingSpec: crac_influence_rate must be positive")
        if self.t_in_initial <= 0 or self.t_cpu_initial <= 0:
            raise ValidationError("CoolingSpec: initial temperatures must be positive (Kelvin)")


@dataclass(frozen=True)
class HapPlatform:
    """Airship geometry and solar harvest chain."""

    pv_area: float = 8000.0
    pv_efficiency: float = 0.4
    propeller_efficiency: float = 0.8
    air_density: float = 0.08891
    """Stratospheric air density, kg/m^3."""
    air_viscosity: float = 1.422e-5
    """Dynamic viscosity, N*s/m^2."""
    body_length: float = 115.0
    body_diameter: float = 34.0
    hap_velocity: float = 8.0
    drag_constant: float = 1.8
    """Hull-to-envelope drag multiplier."""

    @property
    def fineness_ratio(self) -> float:
        return self.body_length / self.body_diameter

    def validate(self):
        if not 0.0 < self.pv_efficiency <= 1.0:
            raise ValidationError("HapPlatform: pv_efficiency must be in (0, 1]")
        if not 0.0 < self.propeller_efficiency <= 1.0:
            raise ValidationError("HapPlatform: propeller_efficiency must be in (0, 1]")
        for name in ("pv_area", "air_density", "air_viscosity", "body_length",
                     "body_diameter", "hap_velocity", "drag_constant"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"HapPlatform: {name} must be positive")


@dataclass(frozen=True)
class WindSpec:
    """Wind forcing: constant speed or a per-(latitude, day) lookup table."""

    speed: float = 20.0
    table: tuple[tuple[float, float, float], ...] | None = None
    """Rows of (latitude_deg, day_of_year, wind_speed); nearest-neighbor lookup."""

    def speed_at(self, latitude_deg: float, day: float) -> float:
        if not self.table:
            return self.speed
        # the nearest row, its day gap taken the shorter way around the year
        def gap(row):
            days = abs(row[1] - day) % 365.0
            return (row[0] - latitude_deg) ** 2 + min(days, 365.0 - days) ** 2

        return min(self.table, key=gap)[2]

    def validate(self):
        if self.speed < 0:
            raise ValidationError("WindSpec: speed must be non-negative")
        if self.table:
            for row in self.table:
                if row[2] < 0:
                    raise ValidationError("WindSpec: table wind speeds must be non-negative")


@dataclass(frozen=True)
class ChannelConfig:
    """Offloading link: antenna geometry, Rician fading and power budget.

    The link budget is derived once, at construction: a ``noise_power`` or
    ``avg_rx_snr`` left as None is filled in from the other fields (the SNR
    only when the noise and ``link_distance`` are nonzero; a budget that
    cannot be derived stays None and ``validate()`` names the bad field).
    Construction also fails, with a ValidationError, where the reference
    draw's budget leaves the float range: a ``link_distance`` whose square
    overflows, or a ``power_over_noise`` that is not finite.
    ``dataclasses.replace(ch, tx_power=...)`` keeps the derived SNR; pass
    ``avg_rx_snr=None`` (and ``noise_power=None``) to derive them again.
    """

    tx_antennas: int = 2
    rx_antennas: int = 16
    bandwidth_hz: float = 100.0e6
    rician_factor: float = 10.0
    ref_gain: float = 1.0e-6
    """Path gain at 1 m reference distance (linear, -60 dB default)."""
    link_distance: float = 20.0e3
    tx_power: float = 10.0
    noise_power: float | None = None
    """Receiver noise power, W; thermal over the bandwidth when omitted."""
    avg_rx_snr: float | None = None
    """Mean per-antenna receive SNR; derived from the link budget when omitted."""
    demand_mapping: str = "bits_per_hz"
    """How workload maps to the outage-bound rate argument:
    'bits_per_hz' divides offered bits/s by the bandwidth, 'identity' uses
    the arrival rate unchanged."""

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

    def resolved(self) -> "ChannelConfig":
        """The config itself: its link budget is derived at construction."""
        return self

    def validate(self):
        if self.tx_antennas < 1 or self.rx_antennas < 1:
            raise ValidationError("ChannelConfig: antenna counts must be at least 1")
        if self.bandwidth_hz <= 0:
            raise ValidationError("ChannelConfig: bandwidth_hz must be positive")
        if self.rician_factor < 0:
            raise ValidationError("ChannelConfig: rician_factor must be non-negative")
        if self.ref_gain <= 0 or self.link_distance <= 0:
            raise ValidationError("ChannelConfig: ref_gain and link_distance must be positive")
        if self.tx_power <= 0:
            raise ValidationError("ChannelConfig: tx_power must be positive")
        if self.noise_power is not None and self.noise_power <= 0:
            raise ValidationError("ChannelConfig: noise_power must be positive")
        if self.avg_rx_snr is not None and self.avg_rx_snr <= 0:
            raise ValidationError("ChannelConfig: avg_rx_snr must be positive")
        if self.demand_mapping not in ("bits_per_hz", "identity"):
            raise ValidationError(
                "ChannelConfig: demand_mapping must be 'bits_per_hz' or 'identity'"
            )


@dataclass(frozen=True)
class Scenario:
    """A concrete deployment: site, date, fleet split and per-server rates."""

    latitude_deg: float = 40.0
    day_of_year: float = 150.0
    window: tuple[float, float] = (0.0, 86400.0)
    ground_servers: int = 40
    hap_servers: int = 40
    hap_count: int = 1
    ground_rates: tuple[float, ...] = ()
    hap_rates: tuple[float, ...] = ()

    def __post_init__(self):
        # scalars in either rate slot mean a uniform total to split
        if not isinstance(self.ground_rates, tuple):
            object.__setattr__(
                self, "ground_rates",
                uniform_split(float(self.ground_rates), self.ground_servers),
            )
        if not isinstance(self.hap_rates, tuple):
            object.__setattr__(
                self, "hap_rates",
                uniform_split(float(self.hap_rates), self.hap_servers),
            )
        if self.ground_rates == () and self.ground_servers:
            object.__setattr__(self, "ground_rates", (0.0,) * self.ground_servers)
        if self.hap_rates == () and self.hap_servers:
            object.__setattr__(self, "hap_rates", (0.0,) * self.hap_servers)

    @property
    def window_length(self) -> float:
        return self.window[1] - self.window[0]

    def validate(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValidationError("Scenario: latitude_deg must be in [-90, 90]")
        if not 0.0 <= self.day_of_year <= 366.0:
            raise ValidationError("Scenario: day_of_year must be in [0, 366]")
        t1, t2 = self.window
        if t1 < 0 or t2 <= t1:
            raise ValidationError("Scenario: window must satisfy 0 <= t1 < t2")
        if self.ground_servers < 0 or self.hap_servers < 0:
            raise ValidationError("Scenario: server counts must be non-negative")
        if self.hap_count < 1:
            raise ValidationError("Scenario: hap_count must be at least 1")
        if len(self.ground_rates) != self.ground_servers:
            raise ValidationError(
                "Scenario: ground_rates length must equal ground_servers "
                f"({len(self.ground_rates)} != {self.ground_servers})"
            )
        if len(self.hap_rates) != self.hap_servers:
            raise ValidationError(
                "Scenario: hap_rates length must equal hap_servers "
                f"({len(self.hap_rates)} != {self.hap_servers})"
            )
        if any(r < 0 for r in self.ground_rates + self.hap_rates):
            raise ValidationError("Scenario: arrival rates must be non-negative")


@dataclass(frozen=True)
class ModelConfig:
    """Top-level bundle of all model sections."""

    server: ServerSpec = field(default_factory=ServerSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    cooling: CoolingSpec = field(default_factory=CoolingSpec)
    hap: HapPlatform = field(default_factory=HapPlatform)
    wind: WindSpec = field(default_factory=WindSpec)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    scenario: Scenario = field(default_factory=Scenario)

    def validate(self):
        for section in fields(self):
            getattr(self, section.name).validate()
        # cross-section: configured rates must respect the utilization ceiling
        cap = self.server.desired_utilization * self.server.service_rate_ips
        for kind, rates in (("ground", self.scenario.ground_rates),
                            ("hap", self.scenario.hap_rates)):
            for r in rates:
                if r * self.workload.task_length_instr > cap * (1 + 1e-12):
                    raise ValidationError(
                        f"Scenario: {kind} rate {r} task/s exceeds the utilization "
                        "ceiling desired_utilization*service_rate/task_length"
                    )


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


def _is_numbers(value, count: int | None = None) -> bool:
    return (isinstance(value, (list, tuple)) and all(map(_is_number, value))
            and count in (None, len(value)))


# What a YAML value may be for each field annotation; values are kept as
# written, so an integer stays an integer in a number field.
_ACCEPTS = {
    "float": _is_number,
    "float | None": lambda v: v is None or _is_number(v),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "tuple[float, float]": lambda v: _is_numbers(v, 2),
    "tuple[float, ...]": lambda v: _is_number(v) or _is_numbers(v),
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
    if name == "window":
        return (float(value[0]), float(value[1]))
    if name in ("ground_rates", "hap_rates"):
        if _is_number(value):
            return float(value)  # scalar total, split in Scenario.__post_init__
        return tuple(float(v) for v in value)
    if name == "fan":
        if value is None:
            return None
        return _build_section("cooling.fan", FanSpec, value)
    if name == "table":
        if value is None:
            return None
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
    """Plain-type mapping that ``build_config`` parses back to an equal config."""
    out: dict = {}
    for section in fields(cfg):
        obj = getattr(cfg, section.name)
        sec = {}
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, FanSpec):
                value = {sf.name: getattr(value, sf.name) for sf in fields(value)}
            elif isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            sec[f.name] = value
        out[section.name] = sec
    return out


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
