import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wpaoi
import wpaoi.simulator as simulator
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


@pytest.mark.parametrize(
    "command, default",
    [("analytic", "json"), ("simulate", "json"), ("optimize", "json"), ("validate", "json"),
     ("sweep-b", "csv"), ("sweep-p", "csv")],
)
def test_help_states_the_default_format(command, default, capsys):
    assert run_cli([command, "--help"]) == 0
    assert f"output format (default {default})" in " ".join(capsys.readouterr().out.split())


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
        ["analytic", "--power-w", "3", "--capacitor-j", "3e-4", "--noise-dbm", "nan"],
        ["analytic", "--power-w", "3", "--capacitor-j", "3e-4", "--distance-m", "1e-300"],
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


def test_optimize_over_a_bracket_where_beta_overflows(capsys):
    # Above ~1e298 J beta overflows and the age is NaN, which an unordered
    # argmin took for the minimum: exit 0 with a NaN optimum on the edge.
    assert run_cli(["optimize", "--power-w", "1e-4"]) == 0
    inner = json.loads(capsys.readouterr().out)
    assert run_cli(["optimize", "--power-w", "1e-4", "--b-lo", "1e-300", "--b-hi", "1e300"]) == 0
    wide = json.loads(capsys.readouterr().out)
    assert wide["converged"] and not wide["on_boundary"]
    assert math.isfinite(wide["delta_star"])
    assert wide["delta_star"] == pytest.approx(inner["delta_star"], rel=1e-9)
    # where no size gives a finite age, the search says so
    argv = ["optimize", "--power-w", "1e-300", "--rate-bpcu", "100", "--b-hi", "1e30"]
    assert run_cli(argv) == 3
    assert "finite age" in capsys.readouterr().err


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
    # every attempt is decoded; a last fill on the horizon has no attempt
    assert payload["n_attempts"] == payload["n_successes"]
    assert payload["n_recharges"] - payload["n_attempts"] in (0, 1)
    assert payload["delta_hat"] == pytest.approx(1.75, rel=0.05)
    assert payload["warmup"] == "first_success_to_last_success"


def test_simulate_csv_counts_attempts(capsys):
    code = run_cli(["simulate", *_TOY, "--horizon", "50000", "--seed", "11", "--format", "csv"])
    assert code == 0
    header, values = capsys.readouterr().out.strip().split("\n")
    row = dict(zip(header.split(","), values.split(",")))
    assert header.split(",").index("n_attempts") == header.split(",").index("n_recharges") + 1
    assert int(row["n_attempts"]) == int(row["n_successes"])


def test_simulate_full_horizon_flag(capsys):
    # One measurement window: the full-horizon average is the mean of the
    # age column that --trace writes, and --warmup is a usage error.
    code = run_cli(["simulate", *_TOY, "--horizon", "50000", "--seed", "11", "--warmup", "full"])
    assert code == 2
    assert "unrecognized arguments: --warmup full" in capsys.readouterr().err


def test_sweep_b_simulates_exactly_when_given_a_horizon(capsys):
    argv = ["sweep-b", "--power-w", "300", "--b-values", "1e-4,3e-4", "--format", "json"]
    assert run_cli(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["delta_sim"] for row in rows] == [None, None]
    assert run_cli([*argv, "--horizon", "20000"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(row["delta_sim"] > 0.0 and row["delta_sim_ci"] > 0.0 for row in rows)
    # the horizon alone asks for the simulation
    assert run_cli([*argv, "--horizon", "20000", "--with-sim"]) == 2
    assert "unrecognized arguments: --with-sim" in capsys.readouterr().err


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


@pytest.mark.parametrize("out", ["trace.csv", "./sub/../trace.csv"])
def test_trace_and_out_naming_one_file_is_usage_error(tmp_path, capsys, monkeypatch, out):
    # refused before any run seeds its substreams, and nothing is written
    calls = []
    monkeypatch.setattr(simulator, "_spawn_streams", calls.append)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", *_TOY, "--horizon", "300", "--trace", "trace.csv", "--out", out]
    assert run_cli(argv) == 2
    assert calls == [] and not (tmp_path / "trace.csv").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trace and --out name one file: trace.csv\n"


def test_sweep_b_warns_of_each_failed_size(capsys):
    # 300 slots at 3 W decode fewer than two updates at both sizes
    argv = ["sweep-b", "--power-w", "3", "--b-values", "1e-4,3e-4", "--horizon", "300"]
    assert run_cli([*argv, "--format", "json"]) == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert all(row["sim_error"] for row in rows)
    warnings = [f"warning: capacitor_j {row['swept_value']!r}: {row['sim_error']}" for row in rows]
    assert captured.err.splitlines() == warnings
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == warnings
    assert [line.split(",")[4:6] for line in captured.out.splitlines()[1:]] == [["", ""]] * 2


def test_simulate_trace_runs_the_slot_dynamics_once(tmp_path, capsys, monkeypatch):
    # A traced run is one run of the engine: it seeds the engine's substreams once.
    calls = []
    spawn = simulator._spawn_streams

    def spy(seed):
        calls.append(seed)
        return spawn(seed)

    monkeypatch.setattr(simulator, "_spawn_streams", spy)
    argv = ["simulate", "--power-w", "300", "--capacitor-j", "3e-4", "--horizon", "5000",
            "--seed", "6", "--trace", str(tmp_path / "trace.csv")]
    assert run_cli(argv) == 0
    assert calls == [6]
    assert json.loads(capsys.readouterr().out)["n_successes"] > 100


# pi 2.3e-317, beta 123.6: E[X^2] ~ 2*E[T]^2/pi^2 overflows a float
_SUBNORMAL_PI = ["--power-w", "0.3530899919196604", "--rate-bpcu", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", *_SUBNORMAL_PI, "--capacitor-j", "2.9964251964083542e-05"],
        ["validate", *_SUBNORMAL_PI, "--capacitor-j", "2.9964251964083542e-05"],
        ["sweep-b", *_SUBNORMAL_PI, "--b-values", "2.9964251964083542e-05,1e-4"],
        ["simulate", *_SUBNORMAL_PI, "--capacitor-j", "2.9964251964083542e-05",
         "--horizon", "1000000"],
    ],
    ids=lambda argv: argv[0],
)
def test_subnormal_pi_is_domain_error(capsys, monkeypatch, argv):
    # the lane is refused before any run seeds its substreams
    calls = []
    monkeypatch.setattr(simulator, "_spawn_streams", calls.append)
    assert run_cli(argv) == 3
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: E[X^2] overflows") and captured.err.count("\n") == 1


def test_analytic_at_pi_one_where_two_e_t_squared_overflows(capsys):
    # beta 9.98e153, pi 1: 2*E[T]^2 overflows, E[X^2] = E[T^2] does not
    assert run_cli(["analytic", "--power-w", "1.46e6", "--capacitor-j", "1e154"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["pi"] == 1.0
    assert payload["e_x2"] == payload["e_t2"] and math.isfinite(payload["e_q"])
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--power-w", "3", "--capacitor-j", "3e-4", "--out"],
        ["simulate", "--power-w", "3", "--capacitor-j", "3e-4", "--horizon", "100", "--trace"],
    ],
    ids=lambda argv: argv[-1],
)
def test_unwritable_output_path_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.txt"
    assert run_cli([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err and not path.parent.exists()


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


def _csv_cell(value) -> str:
    """A JSON value as the CSV writer prints it: booleans as 0/1, floats by repr."""
    if isinstance(value, bool):
        return str(int(value))
    return value if isinstance(value, str) else repr(float(value))


def test_validate_csv_equals_json_with_one_cycle_in_the_window(capsys):
    # 5 slots at the toy point: fills at slots 2 and 4 decode, and the fill
    # at slot 5 has no attempt. One cycle lies between the two updates, so
    # every half-width is nan, yet the report exits 0.
    argv = ["validate", *_TOY, "--horizon", "5", "--seed", "1"]
    assert run_cli([*argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["n_recharges"], payload["n_successes"]) == (3, 2)
    assert run_cli([*argv, "--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == [f.name for f in dataclasses.fields(wpaoi.ValidationRow)]
    assert len(rows) == 5
    for row, expected in zip(rows, payload["rows"]):
        assert row == [_csv_cell(expected[name]) for name in header]
        assert row[header.index("ci_half")] == "nan"


def test_validate_no_success_exit_code(capsys):
    code = run_cli(
        ["validate", "--power-w", "3", "--capacitor-j", "0.5", "--horizon", "100"]
    )
    assert code == 4


def test_validate_without_updates_prints_counters_once(capsys):
    # One fill, one failed attempt: validate refuses the run with the very
    # line simulate prints for it.
    argv = ["--power-w", "3", "--capacitor-j", "3e-4", "--horizon", "300", "--seed", "1"]
    assert run_cli(["simulate", *argv]) == 4
    expected = capsys.readouterr().err
    assert expected == (
        "error: no decoded update in horizon (recharges=1, attempts=1, successes=0, slots=300)\n"
    )
    assert run_cli(["validate", *argv]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines(keepends=True)[-1] == expected


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


def _design_session(fmt: str) -> list:
    """The closed-form commands of the benchmark's design session, plus a
    power sweep at the default spectral efficiency."""
    b_values = ",".join(repr(float(b)) for b in np.geomspace(1e-6, 1e-1, 100))
    p_values = ",".join(repr(float(p)) for p in np.geomspace(0.1, 100.0, 25))
    return [
        ["analytic", "--power-w", "3", "--capacitor-j", "3e-4", "--format", fmt],
        ["optimize", "--power-w", "3", "--format", fmt],
        ["sweep-b", "--power-w", "3", "--b-values", b_values, "--format", fmt],
        ["sweep-p", "--power-w", "3", "--p-values", p_values, "--r-values", "0.05,0.1",
         "--format", fmt],
        ["sweep-p", "--power-w", "3", "--p-values", "1,3", "--format", fmt],
    ]


def test_repeated_calls_match_a_fresh_process(tmp_path, capsys):
    """run_cli shares one parser between calls; no call may leak into the next."""
    commands = _design_session("json") + _design_session("csv")
    # One new process, with the parser rebuilt before every command.
    script = (
        "import json, sys\n"
        "from wpaoi import cli\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    cli.build_parser.cache_clear()\n"
        "    assert cli.run_cli([*argv, '--out', f'{sys.argv[2]}/fresh{i}']) == 0\n"
    )
    src = os.path.dirname(os.path.dirname(wpaoi.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    fresh = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands), str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stderr == ""
    for round_ in range(2):
        for i, argv in enumerate(commands):
            out = tmp_path / f"round{round_}-{i}"
            assert run_cli([*argv, "--out", str(out)]) == 0
            assert out.read_bytes() == (tmp_path / f"fresh{i}").read_bytes(), argv
            assert capsys.readouterr() == ("", "")
        assert run_cli(["sweep-p", "--power-w", "3", "--p-values", "1,3", "--r-values", "0.1",
                        "--out", str(tmp_path / "between")]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--power-w", "3", "--capacitor-j", "3e-4"],
        ["simulate", "--power-w", "300", "--capacitor-j", "3e-4", "--horizon", "100000"],
        # one cycle in the window, so a nan half-width
        ["simulate", *_TOY, "--horizon", "5"],
        ["optimize", "--power-w", "3"],
        ["optimize", "--power-w", "3", "--b-lo", "3e-3", "--b-hi", "3.0003e-3"],
        ["sweep-b", "--power-w", "3", "--b-values", "1e-5,3e-4", "--horizon", "300"],
        ["sweep-p", "--power-w", "3", "--p-values", "1e-3,3,1e5", "--r-values", "0,0.05"],
        ["validate", *_TOY, "--horizon", "20000", "--seed", "1"],
    ],
    ids=["analytic", "simulate", "simulate-one-cycle", "optimize", "optimize-boundary",
         "sweep-b-failed-sim", "sweep-p", "validate"],
)
def test_json_output_equals_json_dumps(capsys, argv):
    assert run_cli([*argv, "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


_EXTREMES = st.one_of(
    st.sampled_from([
        math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300,
        1.7976931348623157e308, -1.7976931348623157e308, 1024.0, 1023.9999999999999, 1e4,
    ]),
    st.floats(),
)
_SEARCH_FLAGS = [
    "--b-lo", "--b-hi", "--tol-rel", "--rate-bpcu", "--noise-dbm", "--power-w", "--p-values", "--r-values",
]


@settings(max_examples=300, deadline=None, derandomize=True)
@example("optimize", {"--rate-bpcu": 1e4})  # 2**r overflows
@example("sweep-p", {"--r-values": 1024.0})
@example("sweep-p", {"--noise-dbm": 1e4})  # the dBm conversion overflows
@example("optimize", {"--power-w": 5e-324})  # eta * P underflows to zero
@example("optimize", {"--power-w": 1e-300})  # beta**2 overflows
# The golden section steps meet a pi that underflows and a beta that overflows.
@example("optimize", {"--power-w": 1e-300, "--rate-bpcu": 100.0, "--b-hi": 1e30})
@example("sweep-p", {"--p-values": 1e-300})
@example("optimize", {"--b-lo": 5e-324})  # the pi exponent overflows
@example("optimize", {"--b-hi": 1.7976931348623157e308})  # geomspace overflows inside
@given(
    command=st.sampled_from(["optimize", "sweep-p"]),
    values=st.dictionaries(st.sampled_from(_SEARCH_FLAGS), _EXTREMES, min_size=1, max_size=3),
)
def test_search_commands_exit_with_documented_codes(command, values):
    argv = [command, "--power-w", "3", "--format", "json"]
    if command == "sweep-p":
        argv += ["--p-values", "1,3"]
    _assert_documented_exit(argv, values, (0, 2, 3))


def _run_json(argv):
    """Exit code, parsed JSON output (None unless the exit code is 0) and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli([*argv, "--format", "json"])
    assert code in (0, 3), (argv, code, err.getvalue())
    return code, json.loads(out.getvalue()) if code == 0 else None, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
# The search ends on the bracket edge, where pi is so small that E[X^2]
# overflows: optimize refuses the lane, and so must sweep-p.
@example(P=1e6, r=16.55262478611857, B=1.0)
@example(P=3.0, r=0.05, B=3e-4)
@example(P=1e-300, r=0.05, B=3e-4)  # beta**2 overflows
@example(P=3.0, r=0.05, B=5e-324)  # pi underflows
@given(P=_EXTREMES, r=_EXTREMES, B=_EXTREMES)
def test_sweeps_refuse_exactly_what_one_point_commands_refuse(P, r, B):
    # One lane (P, r) at a time, each sweep against the command that
    # evaluates its point alone: the same refusals, the same values. Where
    # the swept values are in their domain, the refusal is also worded the
    # same; a swept value out of it is refused in the sweep's own words.
    code, rows, err = _run_json(["sweep-p", "--power-w", "3", f"--p-values={P!r}", f"--r-values={r!r}"])
    opt_code, opt, opt_err = _run_json(["optimize", f"--power-w={P!r}", f"--rate-bpcu={r!r}"])
    assert code == opt_code
    if 0.0 < P < math.inf and 0.0 <= r < math.inf:
        assert err == opt_err
    if code == 0:
        (row,) = rows
        assert (row["b_star"], row["delta_star"], row["beta"], row["pi"]) == (
            opt["b_star_j"], opt["delta_star"], opt["beta"], opt["pi"]
        )
    lane = [f"--power-w={P!r}", f"--rate-bpcu={r!r}"]
    code, rows, err = _run_json(["sweep-b", *lane, f"--b-values={B!r}"])
    one_code, one, one_err = _run_json(["analytic", *lane, f"--capacitor-j={B!r}"])
    assert code == one_code
    if 0.0 < B < math.inf:
        assert err == one_err
    if code == 0:
        (row,) = rows
        assert (row["beta"], row["pi"], row["delta_analytic"]) == (one["beta"], one["pi"], one["delta"])


def _assert_documented_exit(argv, values, codes):
    # --flag=value, so that argparse reads a negative value as a value
    argv = [*argv, *(f"{flag}={value!r}" for flag, value in values.items())]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in codes, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())


_BASE_ARGV = {
    "analytic": ["analytic", "--power-w", "3", "--capacitor-j", "3e-4"],
    "simulate": ["simulate", "--power-w", "3", "--capacitor-j", "3e-4", "--horizon", "20000"],
    "sweep-b": ["sweep-b", "--power-w", "3", "--b-values", "1e-4,3e-4", "--horizon", "20000"],
    "validate": ["validate", "--power-w", "300", "--capacitor-j", "3e-4", "--horizon", "20000"],
}
_PHYSICAL_FLAGS = ["--power-w", "--efficiency", "--noise-dbm", "--rate-bpcu", "--distance-m",
                   "--alpha", "--lambda"]
# Horizons that are refused, or short: a long one at a dense point would run
# for hours, so the extremes are only those that allocate nothing.
_HORIZONS = st.one_of(
    st.sampled_from([-(2**63), -1, 0, 1, 2, 3, 2**62, 2**64, 10**30]),
    st.integers(-10, 3000),
)
_SEEDS = st.one_of(st.sampled_from([-1, 0, 2**64 - 1, 2**64, 10**30]), st.integers(0, 10))
_RUN_FLAGS = {"--horizon": _HORIZONS, "--seed": _SEEDS}
_COMMAND_FLAGS = {
    "analytic": {"--capacitor-j": _EXTREMES},
    "simulate": {"--capacitor-j": _EXTREMES, **_RUN_FLAGS},
    "sweep-b": {"--b-values": _EXTREMES, **_RUN_FLAGS},
    "validate": {"--capacitor-j": _EXTREMES, **_RUN_FLAGS},
}


@st.composite
def _command_values(draw):
    command = draw(st.sampled_from(sorted(_BASE_ARGV)))
    flags = {flag: _EXTREMES for flag in _PHYSICAL_FLAGS} | _COMMAND_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=3, unique=True))
    return command, {flag: draw(flags[flag]) for flag in chosen}


@settings(max_examples=300, deadline=None, derandomize=True)
@example(("simulate", {"--horizon": 2**62}))
@example(("validate", {"--seed": -1}))
@example(("simulate", {"--capacitor-j": 1e300}))  # no fill within the horizon
@example(("validate", {"--power-w": 1e300, "--horizon": 1}))
@example(("sweep-b", {"--b-values": 5e-324}))
@example(("analytic", {"--lambda": 1.7976931348623157e308}))
@example(("analytic", {"--alpha": 1e300}))  # d**alpha overflows
@example(("simulate", {"--rate-bpcu": 1024.0}))  # 2**r overflows in the decode cut
@given(_command_values())
def test_other_commands_exit_with_documented_codes(case):
    command, values = case
    _assert_documented_exit([*_BASE_ARGV[command], "--format", "json"], values, (0, 2, 3, 4))
