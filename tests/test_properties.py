"""Hypothesis property tests across the model's modules."""

import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from hapdc import channel, offload, sweeps, thermal
from hapdc.config import ChannelConfig, Scenario, fsum_runs, uniform_split

_TOTALS = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


# the first correction leaves these two splits open, so their last share
# takes the exact residual
@example(total=4716.748146842442, n=18, others=[1017.834439738432, 1.0])
@example(total=1017.834439738432, n=3, others=[4716.748146842442, 0.0])
@example(total=0.0, n=0, others=[])
@example(total=7.0, n=1, others=[0.1, 0.0])
@given(total=_TOTALS, n=st.integers(min_value=0, max_value=200),
       others=st.lists(_TOTALS, max_size=6))
def test_uniform_split_sums_exactly(total, n, others):
    # over no server only zero totals split
    totals = [total, *others] if n else [0.0] * (1 + len(others))
    rows = uniform_split(np.array(totals), n)
    assert rows.shape == (len(totals), n)
    for total, row in zip(totals, rows):
        shares = uniform_split(total, n)
        assert len(shares) == n
        assert math.fsum(shares) == total
        assert np.array(shares, dtype=float).tobytes() == row.tobytes()


def test_uniform_split_examples_take_the_second_correction():
    for total, n in ((4716.748146842442, 18), (1017.834439738432, 3)):
        share = total / n
        first = share + (total - math.fsum([share] * n))
        assert math.fsum([share] * (n - 1) + [first]) != total
        shares = uniform_split(total, n)
        assert shares[-1] == share + math.fsum([total] + [-share] * n)
        assert math.fsum(shares) == total


def _fsum_outcome(fsum, *args):
    """What ``fsum(*args)`` gives: its value's bits, or its exception
    class."""
    try:
        return np.asarray(fsum(*args), dtype=float).tobytes()
    except (ValueError, OverflowError) as exc:
        return type(exc)


# finite values of either sign from 1e-300 to 1e300, zeros of either sign
_RUN_VALUES = st.one_of(
    st.builds(lambda sign, mantissa, power: sign * mantissa * 10.0**power,
              st.sampled_from([1.0, -1.0]),
              st.floats(min_value=1.0, max_value=10.0),
              st.integers(min_value=-300, max_value=299)),
    st.sampled_from([0.0, -0.0]))
_SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308])


@settings(max_examples=300)
@given(data=st.data(),
       counts=st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                       max_size=6),
       rows=st.integers(min_value=1, max_value=4), special=st.booleans())
def test_fsum_rows_equals_fsum_row_by_row(data, counts, rows, special):
    values = st.one_of(_RUN_VALUES, _SPECIAL) if special else _RUN_VALUES
    table = np.array([data.draw(st.lists(values, min_size=len(counts),
                                         max_size=len(counts)))
                      for _ in range(rows)])
    parts = np.repeat(table, counts, axis=1)
    # a batch raises what its first raising row raises
    want = [_fsum_outcome(math.fsum, row) for row in parts.tolist()]
    raised = [w for w in want if isinstance(w, type)]
    want = raised[0] if raised else b"".join(want)
    assert _fsum_outcome(thermal.fsum_rows, parts) == want
    assert _fsum_outcome(fsum_runs, table, counts) == want


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
    cfg = replace(shipped_cfg, scenario=Scenario(
        latitude_deg=latitude, day_of_year=day, ground_servers=ground,
        hap_servers=0, hap_count=hap_count))
    compute, cooling, errors = thermal.tdc_total_energy(
        offload.Fleets.of(cfg, rates, ()), cfg)
    assert errors == [None]
    assert offload.hybrid_total_energy(cfg, rates, ()) == (
        thermal.EnergyBreakdown.from_parts(compute_j=float(compute[0]),
                                           cooling_j=float(cooling[0])))


# the plain Python cells the sweeps build (``test_sweeps_cli.py`` checks
# every shipped sweep's rows hold only these types)
_CELLS = st.one_of(
    st.none(),
    st.integers(min_value=-2**63, max_value=2**63 - 1),
    st.floats(),
    st.text(),
)


def _csv_cell(value) -> str:
    """A cell as CSV writes it: a float's repr, an int's digits, the text,
    and an empty field for None."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


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
        assert csv_row == [_csv_cell(v) for v in json_row]


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
