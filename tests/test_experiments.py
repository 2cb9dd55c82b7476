import argparse
import contextlib
import io
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from wpaoi import (
    NoSuccessError,
    SimConfig,
    SweepRow,
    ValidationReport,
    average_aoi,
    build_params,
    dbm_to_watts,
    derive,
    optimize_capacitor,
    sample_events,
    simulate,
    sweep_aoi_vs_B,
    sweep_minaoi_vs_P,
    validation_report,
)
from wpaoi.cli import _SWEEP_COLUMNS, _csv, _format_validation_report, _json, _write

_B_GRID = (1e-4, 3.36e-4, 1e-3)
_DELTAS = (622.36583866962915, 271.39091688037567, 386.681949809714)
_CSV_HEADER = ",".join(_SWEEP_COLUMNS)


def _sweep_output(rows, fmt: str) -> str:
    """What a sweep command writes for ``rows`` in the format ``fmt``."""
    records = [vars(row) for row in rows]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write(argparse.Namespace(format=fmt, out=None), records, records, _SWEEP_COLUMNS)
    return out.getvalue()


def test_sweep_spec_validation(ref_point):
    # Both sweeps check their values alike: non-empty, positive and
    # finite, ascending.
    for sweep in (sweep_aoi_vs_B, lambda base, values: sweep_minaoi_vs_P(base, values, [0.05])):
        with pytest.raises(ValueError, match="values must be non-empty"):
            sweep(ref_point(), ())
        with pytest.raises(ValueError, match="values must be ascending"):
            sweep(ref_point(), (1e-3, 1e-4))
        with pytest.raises(ValueError, match="values must be positive and finite"):
            sweep(ref_point(), (-1e-4,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_values_must_be_finite(ref_point, bad):
    with pytest.raises(ValueError):
        sweep_aoi_vs_B(ref_point(), (1e-4, bad))
    with pytest.raises(ValueError):
        sweep_minaoi_vs_P(ref_point(), (1.0, bad), r_values=[0.05])
    with pytest.raises(ValueError):
        sweep_minaoi_vs_P(ref_point(), (1.0, 3.0), r_values=[0.05, bad])


def test_capacitor_sweep_analytic_rows(ref_point):
    rows = sweep_aoi_vs_B(ref_point(), _B_GRID)
    assert [r.swept_value for r in rows] == list(_B_GRID)
    np.testing.assert_allclose([r.delta_analytic for r in rows], _DELTAS, rtol=1e-12)
    # interior minimum at the middle probe
    assert rows[1].delta_analytic < rows[0].delta_analytic
    assert rows[1].delta_analytic < rows[2].delta_analytic
    assert all(r.delta_sim is None and r.b_star is None for r in rows)


def test_capacitor_sweep_equals_point_by_point_closed_forms(ref_point):
    # the 100 sizes of the benchmark's design session
    sizes = tuple(float(b) for b in np.geomspace(1e-6, 1e-1, 100))
    base = ref_point()
    rows = sweep_aoi_vs_B(base, sizes)
    assert [r.swept_value for r in rows] == list(sizes)
    for row, b in zip(rows, sizes):
        d = derive(replace(base, capacitor_j=b))
        assert (row.beta, row.pi, row.delta_analytic) == (d.beta, d.pi, average_aoi(d.beta, d.pi))
        assert all(type(v) is float for v in (row.beta, row.pi, row.delta_analytic))


def test_capacitor_sweep_underflow_raises_derive_error(ref_point):
    base = ref_point()
    with pytest.raises(ValueError) as expected:
        derive(replace(base, capacitor_j=1e-13))
    with pytest.raises(ValueError) as raised:
        sweep_aoi_vs_B(base, (1e-13, 1e-12, 3e-4))
    assert str(raised.value) == str(expected.value)
    assert "capacitor_j 1e-13" in str(raised.value)


def test_capacitor_sweep_monotone_when_threshold_vanishes(ref_point):
    rows = sweep_aoi_vs_B(ref_point(rate_bpcu=0.0), (1e-4, 3e-4, 1e-3, 3e-3, 1e-2))
    deltas = [r.delta_analytic for r in rows]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
    assert all(r.pi == 1.0 for r in rows)


def test_capacitor_sweep_with_simulation(ref_point):
    rows = sweep_aoi_vs_B(ref_point(), _B_GRID, horizon=1_000_000, seed=9)
    for row in rows:
        assert row.sim_error is None
        assert row.delta_sim is not None and row.delta_sim_ci is not None
        assert abs(row.delta_sim - row.delta_analytic) / row.delta_analytic < 0.10
        assert abs(row.delta_sim - row.delta_analytic) < 3.0 * row.delta_sim_ci


def test_capacitor_sweep_flags_failed_points(ref_point):
    rows = sweep_aoi_vs_B(ref_point(), (3e-4, 0.5), horizon=200_000, seed=9)
    assert rows[0].sim_error is None and rows[0].delta_sim is not None
    assert rows[1].sim_error is not None and rows[1].delta_sim is None


def test_minimum_age_sweep_orderings(ref_point):
    rows = sweep_minaoi_vs_P(ref_point(capacitor_j=1.0), (1.0, 3.0), r_values=[0.05, 0.1])
    assert len(rows) == 4
    assert [r.rate_bpcu for r in rows] == [0.05, 0.05, 0.1, 0.1]
    assert [r.swept_value for r in rows] == [1.0, 3.0, 1.0, 3.0]
    # more power helps at fixed spectral efficiency
    assert rows[0].delta_star > rows[1].delta_star
    assert rows[2].delta_star > rows[3].delta_star
    # higher spectral efficiency hurts at fixed power
    assert rows[2].delta_star > rows[0].delta_star
    assert rows[3].delta_star > rows[1].delta_star
    assert all(not r.boundary for r in rows)
    assert all(r.delta_analytic == r.delta_star for r in rows)
    assert rows[0].delta_star == pytest.approx(808.884337329, rel=5e-3)
    assert rows[1].delta_star == pytest.approx(271.3899473, rel=5e-3)


def test_minimum_age_sweep_equals_lane_by_lane_closed_forms(ref_point):
    # the 25 powers x 2 spectral efficiencies of the benchmark's design session
    powers = tuple(float(p) for p in np.geomspace(0.1, 100.0, 25))
    base = ref_point(capacitor_j=1.0)
    rows = sweep_minaoi_vs_P(base, powers, r_values=[0.05, 0.1])
    assert len(rows) == 50
    for row in rows:
        lane = replace(base, power_w=row.swept_value, rate_bpcu=row.rate_bpcu)
        d = derive(replace(lane, capacitor_j=row.b_star))
        assert (row.beta, row.pi) == (d.beta, d.pi)
        assert type(row.beta) is float and type(row.pi) is float


def test_minimum_age_sweep_underflow_raises_derive_error(ref_point):
    # at r = 30 pi underflows over the whole bracket, from its lower edge
    # on, so no grid age is finite and the search of the first such lane
    # refuses the sweep
    base = ref_point(capacitor_j=1.0)
    with pytest.raises(ValueError, match="underflows"):
        derive(replace(base, rate_bpcu=30.0, capacitor_j=1e-9))
    with pytest.raises(ValueError) as expected:
        optimize_capacitor(replace(base, rate_bpcu=30.0, power_w=1.0))
    with pytest.raises(ValueError) as raised:
        sweep_minaoi_vs_P(base, (1.0, 3.0), r_values=[0.05, 30.0])
    assert str(raised.value) == str(expected.value)
    assert "finite age at power_w 1.0, rate_bpcu 30.0" in str(raised.value)


def test_minimum_age_sweep_refuses_what_derive_refuses_at_b_star(ref_point):
    # At r = 16.55 the search ends on the bracket's upper edge, where pi is
    # so small that its square underflows and E[X^2] overflows; the lane at
    # r = 0.05 before it is fine.
    base = ref_point(capacitor_j=1.0)
    lane = replace(base, power_w=1e6, rate_bpcu=16.55262478611857)
    b_star = optimize_capacitor(lane).b_star_j
    assert b_star == 1.0
    with pytest.raises(ValueError) as expected:
        derive(replace(lane, capacitor_j=b_star))
    with pytest.raises(ValueError) as raised:
        sweep_minaoi_vs_P(base, (1e6,), r_values=[0.05, 16.55262478611857])
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).startswith("E[X^2] overflows a float at pi ")


def test_minimum_age_sweep_validates_inputs(ref_point):
    with pytest.raises(ValueError):
        sweep_minaoi_vs_P(ref_point(), (1.0, 3.0), r_values=[])
    with pytest.raises(ValueError):
        sweep_minaoi_vs_P(ref_point(), (1.0, 3.0), r_values=[-0.05])


def test_csv_schema_and_exact_round_trip(ref_point):
    rows = sweep_aoi_vs_B(ref_point(), _B_GRID)
    text = _sweep_output(rows, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == _CSV_HEADER
    assert lines[0] == "swept_value,beta,pi,delta_analytic,delta_sim,delta_sim_ci,b_star,delta_star"
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert float(cells[0]) == row.swept_value
        assert float(cells[1]) == row.beta
        assert float(cells[2]) == row.pi
        assert float(cells[3]) == row.delta_analytic
        assert cells[4] == cells[5] == cells[6] == cells[7] == ""


def test_csv_output_is_reproducible(ref_point):
    first = _sweep_output(sweep_aoi_vs_B(ref_point(), _B_GRID, horizon=100_000, seed=4), "csv")
    second = _sweep_output(sweep_aoi_vs_B(ref_point(), _B_GRID, horizon=100_000, seed=4), "csv")
    assert first == second


def test_json_rows_carry_all_fields(ref_point):
    rows = sweep_minaoi_vs_P(ref_point(capacitor_j=1.0), (3.0,), r_values=[0.05])
    payload = json.loads(_sweep_output(rows, "json"))
    assert payload[0]["rate_bpcu"] == 0.05
    assert payload[0]["b_star"] == pytest.approx(3.37026978103e-4, rel=5e-3)
    assert payload[0]["boundary"] is False
    assert payload[0]["sim_error"] is None


def test_json_rows_equal_dataclass_asdict():
    rows = [
        SweepRow(swept_value=1e-4, beta=48.5, pi=0.1, delta_analytic=622.36583866962915),
        SweepRow(
            swept_value=3.0,
            beta=0.1 + 0.2,
            pi=1.0,
            delta_analytic=2.5,
            b_star=3.37e-4,
            delta_star=271.3899473,
            rate_bpcu=0.05,
            boundary=True,
        ),
        SweepRow(
            swept_value=1e-3,
            beta=1e300,
            pi=5e-324,
            delta_analytic=math.inf,
            delta_sim=386.5,
            delta_sim_ci=1.25,
            sim_error="fewer than two decoded updates",
        ),
    ]
    assert _sweep_output(rows, "json") == json.dumps([asdict(r) for r in rows], indent=2) + "\n"
    assert _sweep_output([], "json") == "[]\n"


# Strings of the kind a sim_error or a key may hold: non-ASCII, control,
# quote and backslash characters, and the format characters of a template.
_STRINGS = [
    "",
    "fewer than two decoded updates (recharges=1, successes=0)",
    "caf\u00e9 \u2615 \U0001d518",
    "tab\tnewline\ncr\rnul\x00unit\x1fdel\x7f",
    'quote " backslash \\ slash /',
    "%s %d %% %(key)s {}",
]
_SCALARS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
    0.1 + 0.2, 1e16, 123456789.0, None, True, False, 0, -7, 2**64, -(2**70) + 1, *_STRINGS,
]


@pytest.mark.parametrize("value", _SCALARS, ids=repr)
def test_json_writer_matches_json_dumps_on_scalars(value):
    for obj in (value, [value], {"k": value}, {"a": value, "b": [value, {"c": value}]}):
        assert _json(obj) == json.dumps(obj, indent=2)


def test_json_writer_matches_json_dumps_on_shapes():
    shapes = [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[1]], ()],
        {key: key for key in _STRINGS},
        [{"x": 1.5, "y": None}, {"x": 2, "y": True}, {"y": False, "x": math.nan}, {}],
        {"bracket": (1e-4, 1e-3), "rows": [{"n": 1}], "flag": False},
    ]
    for obj in shapes:
        assert _json(obj) == json.dumps(obj, indent=2)
    # numpy scalars are not written (the program writes Python floats only)
    for value in (np.int64(1), np.float64(0.5), {1, 2}):
        with pytest.raises(TypeError):
            _json({"a": value})


def test_json_writer_matches_json_dumps_on_validation_payloads(toy_point):
    empty = ValidationReport(
        rows=(), all_passed=False, n_recharges=1, n_attempts=1, n_successes=0,
        horizon_slots=100, seed=0, sim_error="fewer than two decoded updates",
    )
    full = validation_report(toy_point, horizon=20_000, seed=1)
    for report in (empty, full):
        assert _json(asdict(report)) == json.dumps(asdict(report), indent=2)


@pytest.mark.parametrize("sim_error", _STRINGS)
def test_json_rows_with_odd_sim_errors_equal_json_dumps(sim_error):
    rows = [
        SweepRow(1e-4, math.nan, 0.0, math.inf, sim_error=sim_error),
        SweepRow(2e-4, 1.0, 5e-324, -math.inf, -0.0, None, boundary=True, sim_error=sim_error),
    ]
    assert _sweep_output(rows, "json") == json.dumps([asdict(r) for r in rows], indent=2) + "\n"


def test_csv_writer_of_rows_keeps_its_format():
    assert _sweep_output([], "csv") == _CSV_HEADER + "\n"
    rows = [
        SweepRow(1e-4, 48.5, 0.1, 622.36583866962915),
        SweepRow(3.0, 0.1 + 0.2, 5e-324, math.inf, math.nan, -0.0, 3.37e-4, -math.inf, 0.05, True),
    ]
    lines = _sweep_output(rows, "csv").split("\n")
    assert lines == [
        _CSV_HEADER,
        "0.0001,48.5,0.1,622.3658386696292,,,,",
        "3.0,0.30000000000000004,5e-324,inf,nan,-0.0,0.000337,-inf",
        "",
    ]


def test_csv_writer_formats_each_kind_of_value():
    rows = [
        [1.5, None, True, False, 7, "e_t2", 2**70, math.nan],
        (x for x in [0.1, 3, None, "None", False, "True", -0.0, math.inf]),
    ]
    assert _csv(["a", "b", "c", "d", "e", "f", "g", "h"], rows) == (
        "a,b,c,d,e,f,g,h\n"
        f"1.5,,1,0,7,e_t2,{2**70},nan\n"
        "0.1,3,,None,0,True,-0.0,inf\n"
    )
    assert _csv(["only"], []) == "only\n"


def test_validation_report_toy_point_passes(toy_point):
    report = validation_report(toy_point, horizon=300_000, seed=6)
    assert report.sim_error is None
    assert report.all_passed
    names = [r.statistic for r in report.rows]
    assert names == ["e_t", "e_t2", "e_x", "e_x2", "delta"]
    targets = {r.statistic: r.analytic for r in report.rows}
    assert targets == {"e_t": 2.0, "e_t2": 5.0, "e_x": 2.0, "e_x2": 5.0, "delta": 1.75}
    by_name = {r.statistic: r for r in report.rows}
    # with a vanishing threshold the interarrival rows coincide with the
    # recharge rows sample for sample
    assert by_name["e_x"].empirical == by_name["e_t"].empirical
    assert by_name["e_x2"].empirical == by_name["e_t2"].empirical
    text = _format_validation_report(report)
    assert "PASS" in text and "FAIL" not in text


def test_validation_report_reference_point(ref_point):
    report = validation_report(ref_point(), horizon=10_000_000, seed=9)
    assert report.sim_error is None
    assert report.all_passed


# The benchmark's mc_high_power op: P = 300 W, B = 3e-4 J, 20 m, -50 dBm,
# r = 0.05, 1e6 slots, op seeds seed*1_000_000 + index. Per seed: the
# counters, then (empirical, ci_half) of e_t, e_t2, e_x, e_x2 and delta.
_HIGH_POWER_PINS = {
    7_000_000: ((407070, 407069, 173070), (
        (2.4565833142946985, 0.003709845307354263), (7.493213647876148, 0.02282875940351754),
        (5.77800761545973, 0.02236039945570256), (55.91114526576106, 0.5126598646320506),
        (5.3382720296321775, 0.028373070705736702),
    )),
    7_000_001: ((407365, 407364, 172919), (
        (2.4548016496465044, 0.0036916405038735093), (7.471224469756481, 0.022659739679425306),
        (5.783018540579928, 0.022576658648213187), (56.38686545067604, 0.5261028819412611),
        (5.375210502526031, 0.02928417520207549),
    )),
    7_000_002: ((407401, 407401, 173480), (
        (2.454579819144027, 0.0036986392163579594), (7.475748411864623, 0.022716866847980334),
        (5.7643057661157835, 0.022340612924506238), (55.7664155315629, 0.5128033892563547),
        (5.3372187210620945, 0.028492240347653987),
    )),
}


def test_high_power_reports_are_pinned():
    # The reduction behind the benchmark's validate op, bit for bit; the
    # analytic column and the verdicts follow from these.
    params, _ = build_params(
        power_w=300.0, capacitor_j=3e-4, noise_w=dbm_to_watts(-50.0), distance_m=20.0
    )
    for seed, (counts, rows) in _HIGH_POWER_PINS.items():
        report = validation_report(params, 1_000_000, seed)
        assert (report.n_recharges, report.n_attempts, report.n_successes) == counts
        assert tuple((row.empirical, row.ci_half) for row in report.rows) == rows
        assert report.all_passed and report.sim_error is None


def test_validation_report_without_successes(ref_point):
    report = validation_report(ref_point(capacitor_j=0.5), horizon=200, seed=0)
    assert report.sim_error is not None
    assert not report.all_passed
    assert report.rows == ()
    assert "FAILED" in _format_validation_report(report)
    # A run with no decoded update, and one with exactly one: the report
    # carries the counters and the message of the error that simulate
    # raises on the same run. The second run is cut at its second decoded
    # update, which falls on the last slot and so is never attempted.
    params = ref_point()
    full = sample_events(SimConfig(params, 100_000, seed=55))
    second_success_fill = int(full.fill_slots[np.flatnonzero(full.success)[1]])
    runs = [SimConfig(params, 300, seed=1), SimConfig(params, second_success_fill, seed=55)]
    for n_successes, config in enumerate(runs):
        with pytest.raises(NoSuccessError) as err:
            simulate(config)
        assert err.value.n_successes == n_successes
        report = validation_report(params, config.horizon_slots, config.seed)
        assert (report.n_recharges, report.n_attempts, report.n_successes, report.sim_error) == (
            err.value.n_recharges, err.value.n_attempts, err.value.n_successes, str(err.value)
        )
        assert report.rows == () and not report.all_passed
