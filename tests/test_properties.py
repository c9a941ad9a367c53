"""Hypothesis property tests across the model's modules."""

import csv
import io
import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from hapdc import channel, offload, sweeps, thermal
from hapdc.config import ChannelConfig, Scenario, uniform_split


@given(total=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
       n=st.integers(min_value=1, max_value=200))
def test_uniform_split_sums_exactly(total, n):
    shares = uniform_split(total, n)
    assert len(shares) == n
    assert math.fsum(shares) == total


@settings(deadline=None, max_examples=40)
@given(data=st.data(),
       ground=st.integers(min_value=0, max_value=12),
       hap_count=st.integers(min_value=1, max_value=3),
       latitude=st.floats(min_value=-60.0, max_value=60.0),
       day=st.floats(min_value=0.0, max_value=366.0))
def test_hybrid_without_airborne_fleet_is_baseline(shipped_cfg, data, ground,
                                                   hap_count, latitude, day):
    capacity = (shipped_cfg.server.service_rate_ips
                / shipped_cfg.workload.task_length_instr)
    rates = data.draw(st.lists(
        st.floats(min_value=0.0, max_value=0.95 * capacity),
        min_size=ground, max_size=ground))
    sc = Scenario(latitude_deg=latitude, day_of_year=day,
                  ground_servers=ground, hap_servers=0, hap_count=hap_count,
                  ground_rates=tuple(rates), hap_rates=())
    assert (offload.hybrid_total_energy(sc, shipped_cfg)
            == thermal.tdc_total_energy(sc, shipped_cfg))


_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**63, max_value=2**63 - 1),
    st.floats(),
    st.floats(allow_nan=False).map(np.float64),
    st.text(),
)


@settings(max_examples=50)
@given(rows=st.lists(st.lists(_CELLS, min_size=3, max_size=3), max_size=8))
def test_csv_and_json_round_trip_to_the_same_cells(rows):
    header = ["lambda", "metric", "error"]
    manifest = {"tool": "hapdc", "seed": "7"}
    result = sweeps.SweepResult(header, rows, manifest)
    # the manifest lines come first, one per key
    body = sweeps.render_csv(result).split("\r\n", len(manifest))[-1]
    table = list(csv.reader(io.StringIO(body, newline="")))
    payload = json.loads(sweeps.render_json(result))
    assert payload["manifest"] == manifest
    assert table[0] == payload["columns"] == header
    assert len(table) - 1 == len(payload["rows"]) == len(rows)
    for csv_row, json_row in zip(table[1:], payload["rows"]):
        assert csv_row == [sweeps._cell(v) for v in json_row]


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       tx=st.integers(min_value=1, max_value=4),
       rx=st.integers(min_value=1, max_value=8),
       demands=st.lists(st.floats(min_value=0.0, max_value=20.0),
                        min_size=1, max_size=12))
def test_mc_ccdf_does_not_increase_with_demand(seed, tx, rx, demands):
    ch = ChannelConfig(tx_antennas=tx, rx_antennas=rx)
    demands = np.sort(demands)
    prob, _ = channel.empirical_ccdf(ch, demands, samples=500,
                                     rng=np.random.default_rng(seed))
    assert np.all(np.diff(prob) <= 0.0)
