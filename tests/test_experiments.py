import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from wpaoi import (
    CSV_HEADER,
    SweepRow,
    SweepSpec,
    average_aoi,
    derive,
    format_validation_report,
    rows_to_csv,
    rows_to_json,
    sweep_aoi_vs_B,
    sweep_minaoi_vs_P,
    validation_report,
)

_B_GRID = (1e-4, 3.36e-4, 1e-3)
_DELTAS = (622.36583866962915, 271.39091688037567, 386.681949809714)


def _b_spec(ref_point, **kwargs):
    return SweepSpec(
        base=ref_point(), swept_field="capacitor_j", values=_B_GRID, **kwargs
    )


def test_sweep_spec_validation(ref_point):
    with pytest.raises(ValueError):
        SweepSpec(base=ref_point(), swept_field="noise_w", values=(1e-4,))
    with pytest.raises(ValueError):
        SweepSpec(base=ref_point(), swept_field="capacitor_j", values=())
    with pytest.raises(ValueError):
        SweepSpec(base=ref_point(), swept_field="capacitor_j", values=(1e-3, 1e-4))
    with pytest.raises(ValueError):
        SweepSpec(base=ref_point(), swept_field="capacitor_j", values=(-1e-4,))
    # only capacitor and power sweeps exist
    for field in ("distance", "rate_bpcu"):
        with pytest.raises(ValueError):
            SweepSpec(base=ref_point(), swept_field=field, values=(1.0,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_values_must_be_finite(ref_point, bad):
    with pytest.raises(ValueError):
        SweepSpec(base=ref_point(), swept_field="capacitor_j", values=(1e-4, bad))
    spec = SweepSpec(base=ref_point(), swept_field="power_w", values=(1.0, 3.0))
    with pytest.raises(ValueError):
        sweep_minaoi_vs_P(spec, r_values=[0.05, bad])


def test_capacitor_sweep_analytic_rows(ref_point):
    rows = sweep_aoi_vs_B(_b_spec(ref_point))
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
    rows = sweep_aoi_vs_B(SweepSpec(base=base, swept_field="capacitor_j", values=sizes))
    assert [r.swept_value for r in rows] == list(sizes)
    for row, b in zip(rows, sizes):
        d = derive(replace(base, capacitor_j=b))
        assert (row.beta, row.pi, row.delta_analytic) == (d.beta, d.pi, average_aoi(d.beta, d.pi))
        assert all(type(v) is float for v in (row.beta, row.pi, row.delta_analytic))


def test_capacitor_sweep_underflow_raises_derive_error(ref_point):
    base = ref_point()
    with pytest.raises(ValueError) as expected:
        derive(replace(base, capacitor_j=1e-13))
    spec = SweepSpec(base=base, swept_field="capacitor_j", values=(1e-13, 1e-12, 3e-4))
    with pytest.raises(ValueError) as raised:
        sweep_aoi_vs_B(spec)
    assert str(raised.value) == str(expected.value)
    assert "capacitor_j 1e-13" in str(raised.value)


def test_capacitor_sweep_monotone_when_threshold_vanishes(ref_point):
    spec = SweepSpec(
        base=ref_point(rate_bpcu=0.0),
        swept_field="capacitor_j",
        values=(1e-4, 3e-4, 1e-3, 3e-3, 1e-2),
    )
    deltas = [r.delta_analytic for r in sweep_aoi_vs_B(spec)]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
    assert all(r.pi == 1.0 for r in sweep_aoi_vs_B(spec))


def test_capacitor_sweep_with_simulation(ref_point):
    spec = _b_spec(ref_point, with_simulation=True, horizon_slots=1_000_000, seed=9)
    rows = sweep_aoi_vs_B(spec)
    for row in rows:
        assert row.sim_error is None
        assert row.delta_sim is not None and row.delta_sim_ci is not None
        assert abs(row.delta_sim - row.delta_analytic) / row.delta_analytic < 0.10
        assert abs(row.delta_sim - row.delta_analytic) < 3.0 * row.delta_sim_ci


def test_capacitor_sweep_flags_failed_points(ref_point):
    spec = SweepSpec(
        base=ref_point(),
        swept_field="capacitor_j",
        values=(3e-4, 0.5),
        with_simulation=True,
        horizon_slots=200_000,
        seed=9,
    )
    rows = sweep_aoi_vs_B(spec)
    assert rows[0].sim_error is None and rows[0].delta_sim is not None
    assert rows[1].sim_error is not None and rows[1].delta_sim is None


def test_minimum_age_sweep_orderings(ref_point):
    spec = SweepSpec(
        base=ref_point(capacitor_j=1.0),
        swept_field="power_w",
        values=(1.0, 3.0),
    )
    rows = sweep_minaoi_vs_P(spec, r_values=[0.05, 0.1])
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
    spec = SweepSpec(base=base, swept_field="power_w", values=powers)
    rows = sweep_minaoi_vs_P(spec, r_values=[0.05, 0.1])
    assert len(rows) == 50
    for row in rows:
        lane = replace(base, power_w=row.swept_value, rate_bpcu=row.rate_bpcu)
        d = derive(replace(lane, capacitor_j=row.b_star))
        assert (row.beta, row.pi) == (d.beta, d.pi)
        assert type(row.beta) is float and type(row.pi) is float


def test_minimum_age_sweep_underflow_raises_derive_error(ref_point):
    # at r = 30 pi underflows over the whole bracket, so the search ends on
    # its lower edge with an infinite age
    base = ref_point(capacitor_j=1.0)
    with pytest.raises(ValueError) as expected:
        derive(replace(base, rate_bpcu=30.0, capacitor_j=1e-9))
    spec = SweepSpec(base=base, swept_field="power_w", values=(1.0, 3.0))
    with pytest.raises(ValueError) as raised:
        sweep_minaoi_vs_P(spec, r_values=[0.05, 30.0])
    assert str(raised.value) == str(expected.value)


def test_minimum_age_sweep_validates_inputs(ref_point):
    spec = SweepSpec(base=ref_point(), swept_field="power_w", values=(1.0, 3.0))
    with pytest.raises(ValueError):
        sweep_minaoi_vs_P(spec, r_values=[])
    with pytest.raises(ValueError):
        sweep_minaoi_vs_P(spec, r_values=[-0.05])
    with pytest.raises(ValueError):
        sweep_minaoi_vs_P(_b_spec(ref_point), r_values=[0.05])
    with pytest.raises(ValueError):
        sweep_aoi_vs_B(spec)


def test_csv_schema_and_exact_round_trip(ref_point):
    rows = sweep_aoi_vs_B(_b_spec(ref_point))
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
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
    spec = _b_spec(ref_point, with_simulation=True, horizon_slots=100_000, seed=4)
    first = rows_to_csv(sweep_aoi_vs_B(spec))
    second = rows_to_csv(sweep_aoi_vs_B(spec))
    assert first == second


def test_json_rows_carry_all_fields(ref_point):
    spec = SweepSpec(base=ref_point(capacitor_j=1.0), swept_field="power_w", values=(3.0,))
    rows = sweep_minaoi_vs_P(spec, r_values=[0.05])
    payload = json.loads(rows_to_json(rows))
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
    assert rows_to_json(rows) == json.dumps([asdict(r) for r in rows], indent=2) + "\n"
    assert rows_to_json([]) == "[]\n"


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
    text = format_validation_report(report)
    assert "PASS" in text and "FAIL" not in text


def test_validation_report_reference_point(ref_point):
    report = validation_report(ref_point(), horizon=10_000_000, seed=9)
    assert report.sim_error is None
    assert report.all_passed


def test_validation_report_without_successes(ref_point):
    report = validation_report(ref_point(capacitor_j=0.5), horizon=200, seed=0)
    assert report.sim_error is not None
    assert not report.all_passed
    assert report.rows == ()
    assert "FAILED" in format_validation_report(report)
