"""Configuration model, YAML loading and hashing."""

import math
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, reject, settings, strategies as st

from hapdc import channel, cli, config

from hapdc.config import (
    ChannelConfig,
    CoolingSpec,
    FanSpec,
    HapPlatform,
    ModelConfig,
    Scenario,
    ServerSpec,
    WindSpec,
    WorkloadSpec,
    build_config,
    config_hash,
    dump_config,
    load_config,
    uniform_split,
)
from hapdc.errors import ConfigError, PolarError, ValidationError
from hapdc.solar import day_fraction

from conftest import SHIPPED_CONFIG


def _empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    return str(path)


def test_empty_file_is_default(tmp_path):
    assert load_config(_empty_file(tmp_path)) == ModelConfig() == build_config(
        {})


def test_default_model_hashes_as_the_empty_file(tmp_path):
    assert config_hash(ModelConfig()) == config_hash(
        load_config(_empty_file(tmp_path))) == config_hash(build_config({}))


def test_defaults_are_the_shipped_study(shipped_cfg):
    # one model: the shipped study loads to the library defaults, with the
    # manifest hash of the defaults
    assert shipped_cfg == ModelConfig() == build_config({})
    assert config_hash(shipped_cfg) == config_hash(ModelConfig())
    ModelConfig().validate()


def test_shipped_config_loads(shipped_cfg):
    shipped_cfg.validate()
    assert shipped_cfg.scenario.ground_servers == 40
    assert shipped_cfg.scenario.hap_servers == 40
    assert shipped_cfg.server.p_idle == 10000.0
    assert shipped_cfg.workload.bits_per_instruction == 0.02
    assert shipped_cfg.channel.noise_power is not None


def test_dump_round_trip(shipped_cfg):
    # the shipped study is the default model, so this round-trips both
    rebuilt = build_config(dump_config(shipped_cfg))
    assert config_hash(rebuilt) == config_hash(shipped_cfg) == config_hash(
        build_config({}))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        build_config({"reactor": {}})


@pytest.mark.parametrize("section, key", [
    ("server", "warp"),
    # keys no part of the model reads, refused like any other unknown key
    ("server", "mass"), ("hap", "payload_capacity"), ("hap", "rack_mass"),
    ("cooling", "air_heat_capacity_flow"), ("workload", "small_task_instr"),
    ("workload", "large_task_instr")])
def test_unknown_key_rejected(tmp_path, capsys, section, key):
    from hapdc import cli

    message = f"unknown key '{key}' in config section '{section}'"
    with pytest.raises(ConfigError, match=message):
        build_config({section: {key: 9.0}})
    path = tmp_path / "old.yaml"
    path.write_text(f"{section}:\n  {key}: 9.0\n")
    rc = cli.main(["fly", "--config", str(path), "--axis", "day",
                   "--range", "1:2:1"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert any(message in line for line in err.splitlines()), err


def test_non_mapping_section_rejected():
    with pytest.raises(ConfigError):
        build_config({"server": [1, 2, 3]})
    with pytest.raises(ConfigError):
        build_config([1, 2])


def test_malformed_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("server: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(str(p))


@pytest.mark.parametrize("text, where", [
    ("server:\n  p_peak: 1%s\n" % ("0" * 5000), "server.p_peak on line 2"),
    ("scenario:\n  window: [0, 1%s]\n" % ("0" * 5000), "the value on line 2"),
    ("scenario:\n  day_of_year: 2023-02-30\n",
     "scenario.day_of_year on line 2"),
])
def test_unreadable_scalar_names_file_and_key(tmp_path, capsys, text, where):
    # an int past Python's 4,300-digit limit, or a date with no such day,
    # fails while PyYAML builds it, before any key is validated
    path = tmp_path / "long.yaml"
    path.write_text(text)

    def outcome():
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        return str(info.value)

    default, pure = _on_both_yaml_paths(outcome)
    assert default == pure
    assert default.startswith(f"cannot read {where} of config file "
                              f"'{path}': ")
    assert cli.main(["fly", "--config", str(path), "--axis", "day",
                     "--range", "1:2:1"]) == 2
    assert capsys.readouterr().err == f"error: {default}\n"


def test_undecodable_file_names_the_file(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"server:\n  p_peak: \xff\n")

    def outcome():
        with pytest.raises(ConfigError, match=re.escape(
                f"cannot read config file '{path}': ")):
            load_config(str(path))

    _on_both_yaml_paths(outcome)


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.yaml")


def test_scalar_rate_split():
    s = Scenario(ground_servers=7, ground_rates=100.0, hap_servers=0,
                 hap_rates=())
    assert len(s.ground_rates) == 7
    assert math.fsum(s.ground_rates) == 100.0


def test_default_rates_are_zero_vectors():
    s = Scenario(ground_servers=3, hap_servers=2)
    assert s.ground_rates == (0.0, 0.0, 0.0)
    assert s.hap_rates == (0.0, 0.0)


def test_scenario_length_mismatch():
    with pytest.raises(ValidationError):
        Scenario(ground_servers=3, ground_rates=(1.0, 2.0)).validate()


def test_uniform_split_exact_sum():
    shares = uniform_split(10.0, 3)
    assert len(shares) == 3
    assert math.fsum(shares) == 10.0
    assert uniform_split(0.0, 0) == ()
    with pytest.raises(ValidationError):
        uniform_split(1.0, 0)
    with pytest.raises(ValidationError):
        uniform_split(-1.0, 3)


def test_rate_ceiling_cross_check():
    # fits exactly at the ceiling, fails just above
    cap = ServerSpec().service_rate_ips / 1.0e6
    ok = ModelConfig(scenario=Scenario(ground_servers=1, hap_servers=0,
                                       ground_rates=(cap,)))
    ok.validate()
    bad = ModelConfig(scenario=Scenario(ground_servers=1, hap_servers=0,
                                        ground_rates=(cap * 1.001,)))
    with pytest.raises(ValidationError):
        bad.validate()


def test_wind_nearest_neighbor():
    w = WindSpec(table=((0.0, 100.0, 5.0), (40.0, 100.0, 25.0),
                        (40.0, 300.0, 12.0)))
    assert w.speed_at(39.0, 110.0) == 25.0
    assert w.speed_at(41.0, 280.0) == 12.0
    assert w.speed_at(2.0, 90.0) == 5.0
    assert WindSpec(speed=7.0).speed_at(10.0, 10.0) == 7.0
    # the day gap wraps at the year end: day 365 is one day from day 1
    seasons = WindSpec(table=((40.0, 1.0, 35.0), (40.0, 91.0, 18.0),
                              (40.0, 182.0, 9.5), (40.0, 274.0, 27.0)))
    assert seasons.speed_at(40.0, 365.0) == 35.0


def test_wind_table_from_csv(tmp_path):
    csv_path = tmp_path / "wind.csv"
    csv_path.write_text(
        "latitude_deg,day_of_year,wind_speed\n0,100,5\n40,100,25\n")
    yml = tmp_path / "cfg.yaml"
    yml.write_text("wind:\n  table_path: wind.csv\n")
    cfg = load_config(str(yml))
    assert cfg.wind.speed_at(38.0, 100.0) == 25.0


def test_wind_table_csv_rejects_non_finite_speeds(tmp_path, capsys):
    from hapdc import cli

    (tmp_path / "wind.csv").write_text(
        "latitude_deg,day_of_year,wind_speed\n0,100,5\n40,100,nan\n")
    yml = tmp_path / "cfg.yaml"
    yml.write_text("wind:\n  table_path: wind.csv\n")
    with pytest.raises(ConfigError, match=r"wind\.table_path"):
        load_config(str(yml))
    rc = cli.main(["fly", "--config", str(yml), "--axis", "day",
                   "--range", "1:2:1"])
    assert rc == 2 and "wind.table_path" in capsys.readouterr().err


def test_wind_table_missing_csv(tmp_path):
    yml = tmp_path / "cfg.yaml"
    yml.write_text("wind:\n  table_path: nope.csv\n")
    with pytest.raises(ConfigError):
        load_config(str(yml))


def test_fan_spec_power():
    fan = FanSpec(air_flow_rate=4.0, pressure_loss=100.0,
                  fan_efficiency=0.8, motor_efficiency=0.5)
    assert fan.power() == 1000.0
    assert CoolingSpec(fan=fan).fan_power_w() == 1000.0
    assert CoolingSpec().fan_power_w() == 500.0


def test_channel_resolved_idempotent():
    ch = ChannelConfig().resolved()
    again = ch.resolved()
    assert again.noise_power == ch.noise_power
    assert again.avg_rx_snr == ch.avg_rx_snr


def test_channel_budget_derived_at_construction():
    ch = ChannelConfig()
    assert ch.noise_power == 10.0 ** ((-174.0 - 30.0) / 10.0) * ch.bandwidth_hz
    assert ch.avg_rx_snr == (ch.tx_power * ch.ref_gain
                             / (ch.link_distance**2 * ch.noise_power))
    assert ch.resolved() is ch
    # replace keeps the derived SNR unless it is cleared
    assert replace(ch, tx_power=20.0).avg_rx_snr == ch.avg_rx_snr
    louder = replace(ch, tx_power=20.0, avg_rx_snr=None)
    assert louder.avg_rx_snr == 20.0 * ch.ref_gain / (
        ch.link_distance**2 * ch.noise_power)
    assert louder == ChannelConfig(tx_power=20.0)


def test_channel_underivable_budget_left_open():
    far = ChannelConfig(link_distance=0.0)
    assert far.noise_power == ChannelConfig().noise_power
    assert far.avg_rx_snr is None
    with pytest.raises(ValidationError, match="link_distance"):
        far.validate()
    deaf = ChannelConfig(bandwidth_hz=0.0)
    assert deaf.noise_power == 0.0 and deaf.avg_rx_snr is None
    with pytest.raises(ValidationError, match="bandwidth_hz"):
        deaf.validate()


def test_channel_checks_the_reference_draw_budget_at_construction():
    # the reference draw squares link_distance and scales by
    # avg_rx_snr * link_distance**2 / ref_gain whether the SNR is derived
    # or given, so a budget past the float range fails construction
    with pytest.raises(ValidationError,
                       match=r"channel\.link_distance 1e\+200 is too large: "
                             "its square overflows the link budget"):
        ChannelConfig(avg_rx_snr=0.2, link_distance=1e200)
    with pytest.raises(ValidationError, match=r"channel\.link_distance"):
        ChannelConfig(link_distance=1e200)
    with pytest.raises(ValidationError,
                       match=r"channel\.avg_rx_snr 0\.2 with link_distance "
                             r"1e\+153 .* of inf; it must be finite"):
        ChannelConfig(avg_rx_snr=0.2, link_distance=1e153)

    # the largest distance whose P/noise stays finite builds and validates,
    # and the reference draw's rates there are finite
    snr, gain = 0.2, ChannelConfig().ref_gain
    edge = math.sqrt(sys.float_info.max * gain / snr)
    while not math.isfinite(snr * edge**2 / gain):
        edge = math.nextafter(edge, 0.0)
    while math.isfinite(snr * math.nextafter(edge, math.inf)**2 / gain):
        edge = math.nextafter(edge, math.inf)
    near = ChannelConfig(avg_rx_snr=snr, link_distance=edge)
    near.validate()
    assert math.isfinite(near.power_over_noise())
    h = channel.sample_channel(near, 8, np.random.default_rng(1))
    assert np.isfinite(channel.channel_rate(near, h)).all()
    with pytest.raises(ValidationError, match="it must be finite"):
        ChannelConfig(avg_rx_snr=snr,
                      link_distance=math.nextafter(edge, math.inf))


def test_channel_explicit_noise_kept():
    ch = ChannelConfig(noise_power=1e-12).resolved()
    assert ch.noise_power == 1e-12


def test_validation_messages():
    with pytest.raises(ValidationError):
        ServerSpec(p_peak=100.0, p_idle=150.0).validate()
    with pytest.raises(ValidationError):
        CoolingSpec(crac_count=0).validate()
    with pytest.raises(ValidationError):
        Scenario(latitude_deg=91.0).validate()
    with pytest.raises(ValidationError):
        ChannelConfig(demand_mapping="nonsense").validate()


def test_config_hash_stable_and_sensitive(shipped_cfg):
    h1 = config_hash(shipped_cfg)
    assert h1 == config_hash(shipped_cfg)
    assert h1 != config_hash(replace(shipped_cfg, wind=WindSpec(speed=21.0)))


def test_equal_values_hash_alike():
    # an int and its float are one value, so one manifest hash
    def hashed(section, key, value):
        return config_hash(build_config({section: {key: value}}))

    assert hashed("server", "service_rate_mips", 580) == hashed(
        "server", "service_rate_mips", 580.0) == config_hash(ModelConfig())
    assert hashed("channel", "tx_power", 4) == hashed("channel", "tx_power", 4.0)
    assert hashed("channel", "tx_power", 4) != hashed("channel", "tx_power", 5)
    # in a list too
    assert config_hash(ModelConfig(scenario=Scenario(window=(0, 86400)))) == (
        config_hash(ModelConfig()))
    # zeros of either sign compare equal but their reprs differ
    assert Scenario(latitude_deg=-0.0) == Scenario(latitude_deg=0.0)
    assert hashed("scenario", "latitude_deg", -0.0) != hashed(
        "scenario", "latitude_deg", 0.0)


def test_hash_names_the_values_not_the_printed_bytes():
    # values are kept as written: 80 and 80.0 hash alike, yet a polar error
    # cell prints each as written
    cfgs = [build_config({"scenario": {"latitude_deg": v}}) for v in (80, 80.0)]
    assert config_hash(cfgs[0]) == config_hash(cfgs[1])
    for cfg, shown in zip(cfgs, ("80", "80.0")):
        with pytest.raises(PolarError, match=re.escape(f"latitude {shown} deg,")):
            day_fraction(cfg.scenario.latitude_deg, 172)


def test_any_value_hashes():
    # a NaN, an infinity or an int of any length hashes without raising,
    # and an int no float equals hashes apart from that float
    cfg = ModelConfig()
    for section, changes in [
            ("server", {"p_peak": math.nan}), ("server", {"p_peak": math.inf}),
            ("server", {"p_peak": 10**400}), ("cooling", {"crac_count": 10**5000}),
            ("scenario", {"window": (0, 10**400)})]:
        moved = replace(cfg, **{section: replace(getattr(cfg, section),
                                                 **changes)})
        assert len(config_hash(moved)) == 64
    near = [replace(cfg, server=ServerSpec(p_peak=p))
            for p in (2**53 + 1, float(2**53 + 1))]
    assert near[0] != near[1] and config_hash(near[0]) != config_hash(near[1])


# --- YAML backends -------------------------------------------------------------

def _on_both_yaml_paths(fn):
    """``fn()`` on the default YAML loader (libyaml when PyYAML has it) and
    again with the pure-Python ``SafeLoader`` forced."""
    default = fn()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "_YAML_LOADER", yaml.SafeLoader)
        pure = fn()
    return default, pure


def test_yaml_backend_is_libyaml_when_available():
    if yaml.__with_libyaml__:
        assert config._YAML_LOADER is yaml.CSafeLoader


def _config_files(tmp_path):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    (tmp_path / "wind.csv").write_text(
        "latitude_deg,day_of_year,wind_speed\n0,100,5\n40,100,25.5\n")
    windy = tmp_path / "windy.yaml"
    windy.write_text("wind:\n  table_path: wind.csv\n"
                     "cooling:\n  fan: {air_flow_rate: 4.0, pressure_loss: 100.0,"
                     " fan_efficiency: 0.8, motor_efficiency: 0.5}\n")
    return [SHIPPED_CONFIG, str(empty), str(windy)]


def test_yaml_backends_load_and_hash_alike(tmp_path):
    for path in _config_files(tmp_path):
        default, pure = _on_both_yaml_paths(
            lambda: (load_config(path), config_hash(load_config(path))))
        assert default == pure, path


@pytest.mark.parametrize("text", [
    "server: [unclosed\n",
    "server: {p_idle: 1\n",
    "server:\n  p_idle: 1\n p_peak: 2\n",
    "server: a: b\n",
    "\tserver: {}\n",
    "server: 'open\n",
    "server: \x07\n",
])
def test_yaml_backends_reject_malformed_alike(tmp_path, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text)

    def outcome():
        with pytest.raises(ConfigError, match="malformed YAML"):
            load_config(str(path))

    _on_both_yaml_paths(outcome)


_FLOATS = st.floats(width=64)


@st.composite
def _any_config(draw):
    """A ModelConfig with every numeric field drawn, non-finite values
    included; the validated strings and an optional fan and wind table."""
    def section(cls, **fixed):
        values = {}
        for f in fields(cls):
            if f.name in fixed:
                values[f.name] = draw(fixed[f.name])
            elif isinstance(f.default, bool):
                values[f.name] = draw(st.booleans())
            elif isinstance(f.default, int):
                # counts; large ones would size the default rate vectors
                values[f.name] = draw(st.integers(-2, 60))
            else:
                values[f.name] = draw(_FLOATS)
        return cls(**values)

    fan = st.none() | st.builds(FanSpec, _FLOATS, _FLOATS, _FLOATS, _FLOATS)
    table = st.none() | st.lists(st.tuples(_FLOATS, _FLOATS, _FLOATS),
                                 min_size=1, max_size=4).map(tuple)
    rates = st.lists(_FLOATS, max_size=5).map(tuple)
    try:
        # both link-budget fields given, so nothing is derived
        link = section(ChannelConfig, demand_mapping=st.sampled_from(
            ["bits_per_hz", "identity"]))
    except ValidationError:
        # a reference-draw budget past the float range fails construction
        reject()
    return ModelConfig(
        server=section(ServerSpec),
        workload=section(WorkloadSpec),
        cooling=section(CoolingSpec, fan=fan),
        hap=section(HapPlatform),
        wind=section(WindSpec, table=table),
        channel=link,
        scenario=section(Scenario, window=st.tuples(_FLOATS, _FLOATS),
                         ground_rates=rates, hap_rates=rates),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=_any_config())
def test_yaml_backends_dump_alike(cfg):
    # a dumped config, non-finite numbers included, reads back alike on
    # both loaders
    text = yaml.safe_dump(dump_config(cfg), sort_keys=True)
    default, pure = _on_both_yaml_paths(
        lambda: repr(yaml.load(text, Loader=config._YAML_LOADER)))
    assert default == pure


_FIELDS = [(section.name, f.name) for section in fields(ModelConfig)
           for f in fields(section.default_factory)]


@settings(max_examples=60, deadline=None)
@given(cfg=_any_config(), other=_any_config(),
       path=st.sampled_from(_FIELDS))
def test_changing_one_field_moves_the_hash(cfg, other, path):
    section, name = path
    new = getattr(getattr(other, section), name)
    # the drawn configs hold no int where an equal float could stand
    assume(repr(new) != repr(getattr(getattr(cfg, section), name)))
    try:
        moved = replace(cfg, **{section: replace(getattr(cfg, section),
                                                 **{name: new})})
    except ValidationError:
        reject()  # a reference-draw budget past the float range
    assert config_hash(moved) != config_hash(cfg)


# --- value types -------------------------------------------------------------

@pytest.mark.parametrize("text, key", [
    ("server: {p_idle: 1.0e3}", "server.p_idle"),   # YAML 1.1: a string
    ('workload: {vacation_rate: "ten"}', "workload.vacation_rate"),
    ("scenario: {hap_servers: 2.5}", "scenario.hap_servers"),
    ("channel: {link_distance: 1.0e+200}", "channel.link_distance"),
    # a given SNR does not spare the reference draw's square
    ("channel: {avg_rx_snr: 0.2, link_distance: 1.0e+200}",
     "channel.link_distance"),
    # nor its transmit power over noise
    ("channel: {avg_rx_snr: 0.2, link_distance: 1.0e+153}",
     "channel.avg_rx_snr"),
    # integers too long for a float, or whose float squares past the range
    pytest.param("channel: {link_distance: 1%s}" % ("0" * 199),
                 "channel.link_distance", id="link_distance-200-digits"),
    pytest.param("channel: {link_distance: 1%s}" % ("0" * 399),
                 "channel.link_distance", id="link_distance-400-digits"),
    ("server: {p_idle: true}", "server.p_idle"),
    ("cooling: {crac_count: 4.0}", "cooling.crac_count"),
    ("cooling: {cop_in_celsius: 1}", "cooling.cop_in_celsius"),
    ("channel: {demand_mapping: 3}", "channel.demand_mapping"),
    ("scenario: {window: [0, later]}", "scenario.window"),
    ("scenario: {ground_rates: [1.0, x]}", "scenario.ground_rates"),
    ("wind: {table: [[40, 150]]}", "wind.table"),
    ("cooling: {fan: {air_flow_rate: a, pressure_loss: 1.0,"
     " fan_efficiency: 0.5, motor_efficiency: 0.5}}",
     "cooling.fan.air_flow_rate"),
    # numbers that are not finite
    ("server: {p_idle: .nan}", "server.p_idle"),
    ("hap: {pv_area: .inf}", "hap.pv_area"),
    ("workload: {arrival_rate_total: .inf}", "workload.arrival_rate_total"),
    ("scenario: {window: [0, .inf]}", "scenario.window"),
    ("scenario: {ground_rates: .nan}", "scenario.ground_rates"),
    ("wind: {table: [[40, 150, .nan]]}", "wind.table"),
    ("cooling: {fan: {air_flow_rate: .inf, pressure_loss: 1.0,"
     " fan_efficiency: 0.5, motor_efficiency: 0.5}}",
     "cooling.fan.air_flow_rate"),
    # integers whose float overflows
    pytest.param("server: {p_peak: 1%s}" % ("0" * 400), "server.p_peak",
                 id="p_peak-400-digits"),
    pytest.param("hap: {pv_area: 1%s}" % ("0" * 400), "hap.pv_area",
                 id="pv_area-400-digits"),
    pytest.param("scenario: {window: [0, 1%s]}" % ("0" * 400),
                 "scenario.window", id="window-400-digits"),
    pytest.param("cooling: {crac_count: 1%s}" % ("0" * 400),
                 "cooling.crac_count", id="crac_count-400-digits"),
])
def test_wrongly_typed_value_exits_usage_naming_the_key(tmp_path, capsys,
                                                        text, key):
    from hapdc import cli

    path = tmp_path / "bad.yaml"
    path.write_text(text + "\n")
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        load_config(str(path))
    rc = cli.main(["fly", "--config", str(path), "--axis", "day",
                   "--range", "1:2:1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and key in err


def test_every_field_type_is_checked():
    for cls in [*config._SECTION_TYPES.values(), FanSpec]:
        for f in fields(cls):
            assert f.type in config._ACCEPTS, (cls.__name__, f.name, f.type)


def test_values_kept_as_written(shipped_cfg):
    # YAML integers in number fields stay integers; the pinned manifest
    # hash of the shipped config catches any unintended move of it
    assert shipped_cfg.server.service_rate_mips == 580
    assert type(shipped_cfg.server.service_rate_mips) is int
    assert config_hash(shipped_cfg) == (
        "e6069d39152e8e38f5858e3af10dc1cc57f53a6926b7657b5da412338326e09e")
    cfg = build_config({"channel": {"noise_power": None, "tx_power": 4},
                        "scenario": {"hap_rates": 10, "hap_servers": 4,
                                     "window": [0, 3600]}})
    assert cfg.channel.tx_power == 4 and type(cfg.channel.tx_power) is int
    assert cfg.scenario.hap_rates == (2.5, 2.5, 2.5, 2.5)
    assert cfg.scenario.window == (0.0, 3600.0)
