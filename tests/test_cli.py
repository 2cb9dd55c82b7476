import csv
import json

import numpy as np
import pytest

from wpaoi import SimConfig, build_params, dbm_to_watts, sample_events
from wpaoi.cli import run_cli

_TOY = [
    "--power-w", "1", "--efficiency", "1", "--rate-bpcu", "0",
    "--capacitor-j", "1", "--lambda", "1",
]


def test_analytic_json_output(capsys):
    code = run_cli(["analytic", "--power-w", "3", "--capacitor-j", "3e-4"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["beta"] == pytest.approx(145.64513624208642, rel=1e-12)
    assert payload["pi"] == pytest.approx(0.42484646269601529, rel=1e-12)
    assert payload["delta"] == pytest.approx(272.84610001060959, rel=1e-12)


def test_analytic_csv_output(capsys):
    code = run_cli(["analytic", "--power-w", "3", "--capacitor-j", "3e-4", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    values = lines[1].split(",")
    row = dict(zip(header, values))
    assert float(row["delta"]) == pytest.approx(272.84610001060959, rel=1e-12)


def test_missing_required_flag_is_usage_error(capsys):
    assert run_cli(["analytic", "--power-w", "3"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert run_cli(["frobnicate"]) == 2


def test_help_exits_cleanly():
    assert run_cli(["--help"]) == 0


def test_domain_error_exit_code(capsys):
    code = run_cli(["analytic", "--power-w", "-3", "--capacitor-j", "3e-4"])
    assert code == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--power-w", "nan", "--capacitor-j", "3e-4"],
        ["analytic", "--power-w", "3", "--capacitor-j", "inf"],
        ["optimize", "--power-w", "inf"],
        ["optimize", "--power-w", "3", "--b-hi", "inf"],
        ["optimize", "--power-w", "3", "--tol-rel", "nan"],
        ["sweep-b", "--power-w", "3", "--b-values", "1e-4,inf"],
        ["sweep-p", "--power-w", "3", "--p-values", "1,-inf"],
        ["sweep-p", "--power-w", "3", "--p-values", "1,3", "--r-values", "0.05,nan"],
        ["simulate", "--power-w", "3", "--capacitor-j", "nan"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_non_finite_input_is_domain_error(capsys, argv):
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert "error" in captured.err and captured.out == ""


def test_long_horizon_age_does_not_wrap(capsys):
    code = run_cli(
        ["simulate", "--power-w", "3e-5", "--capacitor-j", "3e-4",
         "--horizon", "3000000000000", "--seed", "1"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # the closed form is 2.70e7; a wrapped sum gave 2.08e6
    assert abs(payload["delta_hat"] - 26999574.662277177) < 3.0 * payload["delta_ci_half"]


def test_no_success_exit_code(capsys):
    code = run_cli(
        ["simulate", "--power-w", "3", "--capacitor-j", "3e-4", "--horizon", "5"]
    )
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_simulate_json_fields(capsys):
    code = run_cli(["simulate", *_TOY, "--horizon", "50000", "--seed", "11"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_mean"] == 1.0
    assert payload["beta"] == 1.0
    assert payload["pi"] == 1.0
    assert payload["n_successes"] <= payload["n_recharges"]
    assert payload["delta_hat"] == pytest.approx(1.75, rel=0.05)
    assert payload["warmup"] == "first_success_to_last_success"


def test_simulate_full_horizon_flag(capsys):
    code = run_cli(["simulate", *_TOY, "--horizon", "50000", "--seed", "11", "--warmup", "full"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_slots_measured"] == 50000
    assert payload["warmup"] == "full_horizon"


def test_simulate_writes_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = run_cli(
        ["simulate", *_TOY, "--horizon", "300", "--seed", "2", "--trace", str(trace)]
    )
    assert code == 0
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "slot,harvest_j,energy_j,transmitted,success,age"
    assert len(lines) == 301


def test_simulate_trace_statistics_describe_the_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = run_cli(
        ["simulate", "--power-w", "3", "--capacitor-j", "3e-4", "--horizon", "20000",
         "--seed", "4", "--trace", str(trace)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    success_slots = [int(r["slot"]) for r in rows if r["success"] == "1"]
    first, last = success_slots[0], success_slots[-1]
    ages = [int(r["age"]) for r in rows if first <= int(r["slot"]) < last]
    assert payload["n_slots_measured"] == len(ages)
    assert payload["delta_hat"] == sum(ages) / len(ages)


def test_lambda_overrides_distance_with_warning(capsys):
    code = run_cli(
        ["analytic", "--power-w", "3", "--capacitor-j", "3e-4",
         "--lambda", "728225.68121043211", "--distance-m", "20"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    payload = json.loads(captured.out)
    assert payload["beta"] == pytest.approx(145.64513624208642, rel=1e-12)


def test_optimize_finds_reference_minimizer(capsys):
    code = run_cli(
        ["optimize", "--power-w", "3", "--b-lo", "1e-6", "--b-hi", "1e-2"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["b_star_j"] == pytest.approx(3.37026978103e-4, rel=5e-3)
    assert payload["delta_star"] == pytest.approx(271.3899473, rel=5e-3)


def test_sweep_b_writes_schema_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep-b", "--power-w", "3", "--b-values", "1e-4,3.36e-4,1e-3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "swept_value,beta,pi,delta_analytic,delta_sim,delta_sim_ci,b_star,delta_star"
    assert len(lines) == 4
    middle = lines[2].split(",")
    assert float(middle[3]) == pytest.approx(271.39091688037567, rel=1e-12)


def test_sweep_p_table(capsys):
    code = run_cli(["sweep-p", "--power-w", "3", "--p-values", "1,3", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 2
    assert payload[0]["delta_star"] > payload[1]["delta_star"]
    assert payload[0]["rate_bpcu"] == 0.05


def test_validate_toy_point(capsys):
    code = run_cli(["validate", *_TOY, "--horizon", "200000", "--seed", "3"])
    assert code == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.err
    payload = json.loads(captured.out)
    assert payload["all_passed"] is True
    assert len(payload["rows"]) == 5


def test_validate_no_success_exit_code(capsys):
    code = run_cli(
        ["validate", "--power-w", "3", "--capacitor-j", "0.5", "--horizon", "100"]
    )
    assert code == 4


def test_validate_single_success_reports_attempts(capsys):
    # Cut the horizon at the fill of the second decoded update, so its
    # attempt falls outside and exactly one update is decoded.
    params, _ = build_params(
        power_w=3.0, capacitor_j=3e-4, noise_w=dbm_to_watts(-50.0), distance_m=20.0
    )
    log = sample_events(SimConfig(params, 1_000_000, seed=6))
    horizon = int(log.fill_slots[np.flatnonzero(log.success)[1]])
    attempts = int(np.flatnonzero(log.success)[1])
    assert attempts >= 1
    code = run_cli(
        ["validate", "--power-w", "3", "--capacitor-j", "3e-4", "--horizon", str(horizon),
         "--seed", "6"]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert f"attempts={attempts}," in err
    assert "successes=1," in err
