"""The benchmark's workloads: the inputs of one op, the op itself, and the
checks that judge its output.

Each workload object has three steps, so the op can be timed alone:

* ``call(index)`` runs the program once (the timed part);
* ``collect(index, raw)`` reduces that output to a few numbers or to a list
  of problems found in it (untimed, right after the op);
* ``judge(outputs)`` returns, for every collected op of a run, ``None`` or
  the reason it failed (untimed, after the run).

The program is reached only through the public ``wpaoi`` API and
``wpaoi.cli.run_cli``, always by attribute lookup at call time, so a tracer
that patches those bindings sees every call.

The reference values are written here from the paper's formulas, not taken
from the program: beta = lambda*B/(eta*P), pi = exp(-lambda*(2^r-1)*sigma2/B),
E[T] = 1+beta, E[X] = (1+beta)/pi and the closed-form average age.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

import wpaoi
import wpaoi.cli

# Reference scenario: the package defaults (efficiency 0.5, noise -50 dBm,
# 0.05 bits per channel use) at a distance of 20 m under lambda = c0*d^alpha.
EFFICIENCY = 0.5
NOISE_W = 10.0 ** ((-50.0 - 30.0) / 10.0)
RATE_BPCU = 0.05
CHANNEL_RATE = 1e3 * 20.0**2.2
CAPACITOR_J = 3e-4
# Age-minimizing capacitor at P = 3 W, checked to within 0.5%.
B_STAR_REF_J = 3.37026978103e-4
B_STAR_REL_TOL = 5e-3
# Outputs recomputed from their own beta and pi must agree to this share.
EXACT_REL_TOL = 1e-12
# A Monte Carlo estimate fails when it lies further from the closed form
# than a Student-t bound at this two-sided false-alarm rate allows. The
# standard error is the spread of the run's own estimates across seeds,
# never the interval the program reports, so the bound is as many standard
# errors wide as the number of seeds in the run requires.
MC_FALSE_ALARM = 1e-6
# A spread needs at least two other seeds besides the op judged.
MIN_OPS = 3

SWEEP_CSV_HEADER = "swept_value,beta,pi,delta_analytic,delta_sim,delta_sim_ci,b_star,delta_star"


def beta_of(power_w: float, capacitor_j: float) -> float:
    return CHANNEL_RATE * capacitor_j / (EFFICIENCY * power_w)


def pi_of(capacitor_j: float, rate_bpcu: float = RATE_BPCU) -> float:
    return math.exp(-CHANNEL_RATE * (2.0**rate_bpcu - 1.0) * NOISE_W / capacitor_j)


def paper_aoi(beta: float, pi: float) -> float:
    """Closed-form average age of the paper."""
    return (1.0 + 3.0 * beta + beta * beta) / (2.0 * (1.0 + beta)) + (1.0 + beta) * (
        1.0 - pi
    ) / pi + 0.5


@dataclass(frozen=True)
class Sizes:
    """Problem sizes. ``FULL`` is the benchmark; ``TINY`` is for the smoke test.

    ``reference_slots`` is the horizon of ``mc_reference`` and
    ``high_power_slots`` that of ``mc_high_power``.
    """

    reference_slots: int
    high_power_slots: int
    n_b: int
    n_p: int


# mc_reference runs 1e7 > 2^23 slots, so the simulator's block carry runs.
# mc_high_power runs 1e6 slots: its dense fills make a 1e7-slot op take about
# 3 s, and a run needs many ops for its latency percentiles.
FULL = Sizes(reference_slots=10_000_000, high_power_slots=1_000_000, n_b=100, n_p=25)
TINY = Sizes(reference_slots=200_000, high_power_slots=100_000, n_b=10, n_p=5)


class MonteCarlo:
    """One Monte Carlo run at 3e-4 J per op, with a fresh seed per op.

    ``validate`` selects ``validation_report`` (the reduction used by
    ``wpaoi validate``) instead of ``simulate``.
    """

    def __init__(self, name: str, power_w: float, validate: bool, seed: int, horizon_slots: int):
        self.name = name
        self.validate = validate
        self.seed = seed
        self.horizon_slots = horizon_slots
        self.params, _ = wpaoi.build_params(
            power_w, CAPACITOR_J, EFFICIENCY, NOISE_W, RATE_BPCU, distance_m=20.0
        )
        beta = beta_of(power_w, CAPACITOR_J)
        pi = pi_of(CAPACITOR_J)
        self.truth = {"delta": paper_aoi(beta, pi), "e_t": 1.0 + beta, "e_x": (1.0 + beta) / pi}

    def op_seed(self, index: int) -> int:
        return self.seed * 1_000_000 + index

    def call(self, index: int):
        if self.validate:
            return wpaoi.validation_report(self.params, self.horizon_slots, self.op_seed(index))
        return wpaoi.simulate(wpaoi.SimConfig(self.params, self.horizon_slots, self.op_seed(index)))

    def collect(self, index: int, raw) -> dict:
        if not self.validate:
            return {
                "delta": raw.delta_hat,
                "e_t": raw.t_samples_mean,
                "e_x": raw.x_samples_mean,
                "problems": [],
            }
        if raw.sim_error is not None:
            return {"problems": [f"validation_report: {raw.sim_error}"]}
        rows = {row.statistic: row for row in raw.rows}
        out = {key: rows[key].empirical for key in self.truth}
        out["verdicts_failed"] = sum(not row.passed for row in raw.rows)
        out["problems"] = []
        return out

    def judge(self, outputs: list) -> list:
        """Judge each op's estimates against the closed form in standard errors.

        For op i the standard error is the sample standard deviation of the
        other ops' estimates, so one wrong output cannot widen its own bound,
        and (estimate - truth) / SE follows a Student t law with n - 2 degrees
        of freedom. The run's mean is judged too, against the standard error
        of a mean, which catches a bias that every op shares.
        """
        verdicts = [("; ".join(o["problems"]) or None) for o in outputs]
        good = [i for i, v in enumerate(verdicts) if v is None]
        if len(good) < MIN_OPS:
            return [v or f"fewer than {MIN_OPS} completed ops to take a spread from" for v in verdicts]
        n = len(good)
        op_bound = float(stdtrit(n - 2, 1.0 - MC_FALSE_ALARM / 2))
        mean_bound = float(stdtrit(n - 1, 1.0 - MC_FALSE_ALARM / 2))
        for key, truth in self.truth.items():
            est = np.array([outputs[i][key] for i in good], dtype=float)
            if not np.all(np.isfinite(est)):
                return [v or f"non-finite {key} estimate in run" for v in verdicts]
            for j, i in enumerate(good):
                se = float(np.std(np.delete(est, j), ddof=1))
                z = abs(est[j] - truth) / se if se > 0.0 else math.inf
                if z > op_bound and verdicts[i] is None:
                    verdicts[i] = f"{key}={est[j]:.10g} is {z:.1f} SE from {truth:.10g} (bound {op_bound:.1f})"
            se_mean = float(np.std(est, ddof=1)) / math.sqrt(n)
            mean = float(np.mean(est))
            z = abs(mean - truth) / se_mean if se_mean > 0.0 else math.inf
            if z > mean_bound:
                return [
                    v or f"mean {key}={mean:.10g} is {z:.1f} SE from {truth:.10g} (bound {mean_bound:.1f})"
                    for v in verdicts
                ]
        return verdicts


class DesignSweep:
    """One design session through ``run_cli``, writing files in ``workdir``.

    The session is analytic, optimize, sweep-b and sweep-p at P = 3 W. Ops
    alternate JSON and CSV output, starting from the seed's parity.
    """

    name = "design_sweep"
    horizon_slots = 0

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.b_values = [float(b) for b in np.geomspace(1e-6, 1e-1, sizes.n_b)]
        self.p_values = [float(p) for p in np.geomspace(0.1, 100.0, sizes.n_p)]
        self.r_values = [0.05, 0.1]
        self.sessions = {fmt: self.session(fmt) for fmt in ("json", "csv")}

    def fmt(self, index: int) -> str:
        return "json" if (self.seed + index) % 2 == 0 else "csv"

    def session(self, fmt: str) -> list:
        def cmd(name, *flags):
            out = os.path.join(self.workdir, f"{name}.{fmt}")
            return name, out, [name, "--power-w", "3", *flags, "--format", fmt, "--out", out]

        return [
            cmd("analytic", "--capacitor-j", "3e-4"),
            cmd("optimize"),
            cmd("sweep-b", "--b-values", ",".join(map(repr, self.b_values))),
            cmd(
                "sweep-p",
                "--p-values",
                ",".join(map(repr, self.p_values)),
                "--r-values",
                ",".join(map(repr, self.r_values)),
            ),
        ]

    def call(self, index: int):
        fmt = self.fmt(index)
        return fmt, [(name, out, wpaoi.cli.run_cli(argv)) for name, out, argv in self.sessions[fmt]]

    def collect(self, index: int, raw) -> dict:
        fmt, results = raw
        problems = []
        for name, out, code in results:
            if code != 0:
                problems.append(f"{name}: run_cli returned {code}")
                continue
            try:
                with open(out) as fh:
                    text = fh.read()
                os.remove(out)
                problems += [f"{name}: {p}" for p in self.check(name, fmt, text)]
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"{name}: unreadable output ({type(exc).__name__}: {exc})")
        return {"problems": problems}

    def judge(self, outputs: list) -> list:
        return [("; ".join(o["problems"]) or None) for o in outputs]

    def check(self, name: str, fmt: str, text: str) -> list:
        if name in ("analytic", "optimize"):
            rec = _parse_record(text, fmt)
            if name == "analytic":
                return _check_analytic(rec)
            return _check_optimize(rec)
        rows = _parse_rows(text, fmt)
        if name == "sweep-b":
            return self._check_sweep_b(rows)
        return self._check_sweep_p(rows)

    def _check_sweep_b(self, rows: list) -> list:
        if len(rows) != len(self.b_values):
            return [f"{len(rows)} rows, expected {len(self.b_values)}"]
        problems = []
        for b, row in zip(self.b_values, rows):
            if row["swept_value"] != b:
                problems.append(f"swept value {row['swept_value']!r} != {b!r}")
            problems += _close(f"beta at B={b!r}", row["beta"], beta_of(3.0, b))
            problems += _close(f"pi at B={b!r}", row["pi"], pi_of(b))
            problems += _close(
                f"delta_analytic at B={b!r}", row["delta_analytic"], paper_aoi(row["beta"], row["pi"])
            )
            if row["delta_sim"] is not None:
                problems.append(f"delta_sim present at B={b!r} without simulation")
        return problems

    def _check_sweep_p(self, rows: list) -> list:
        expected = [(r, p) for r in self.r_values for p in self.p_values]
        if len(rows) != len(expected):
            return [f"{len(rows)} rows, expected {len(expected)}"]
        problems = []
        for (r, p), row in zip(expected, rows):
            b = row["b_star"]
            where = f"P={p!r}, r={r!r}"
            if row["swept_value"] != p:
                problems.append(f"swept value {row['swept_value']!r} != {p!r}")
            problems += _close(f"beta at {where}", row["beta"], beta_of(p, b))
            problems += _close(f"pi at {where}", row["pi"], pi_of(b, r))
            delta = paper_aoi(row["beta"], row["pi"])
            problems += _close(f"delta_star at {where}", row["delta_star"], delta)
            problems += _close(f"delta_analytic at {where}", row["delta_analytic"], delta)
            # The optimum must beat its neighbours 0.1% away on either side.
            for step in (1.0 - 1e-3, 1.0 + 1e-3):
                bb = b * step
                if paper_aoi(beta_of(p, bb), pi_of(bb, r)) < delta:
                    problems.append(f"b_star at {where} is not a minimum")
        return problems


def _close(what: str, got, want: float) -> list:
    if got is None or not abs(got - want) <= EXACT_REL_TOL * abs(want):
        return [f"{what} is {got!r}, expected {want!r}"]
    return []


def _cell(text: str):
    return float(text) if text != "" else None


def _parse_record(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    header, values = list(csv.reader(io.StringIO(text)))
    return dict(zip(header, map(float, values)))


def _parse_rows(text: str, fmt: str) -> list:
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    if lines[0] != SWEEP_CSV_HEADER:
        raise ValueError(f"CSV header {lines[0]!r}")
    keys = SWEEP_CSV_HEADER.split(",")
    return [dict(zip(keys, map(_cell, line.split(",")), strict=True)) for line in lines[1:]]


def _check_analytic(rec: dict) -> list:
    beta, pi = beta_of(3.0, CAPACITOR_J), pi_of(CAPACITOR_J)
    return (
        _close("beta", rec["beta"], beta)
        + _close("pi", rec["pi"], pi)
        + _close("e_t", rec["e_t"], 1.0 + rec["beta"])
        + _close("e_x", rec["e_x"], (1.0 + rec["beta"]) / rec["pi"])
        + _close("delta", rec["delta"], paper_aoi(rec["beta"], rec["pi"]))
    )


def _check_optimize(rec: dict) -> list:
    b = rec["b_star_j"]
    problems = []
    if not abs(b - B_STAR_REF_J) <= B_STAR_REL_TOL * B_STAR_REF_J:
        problems.append(f"b_star_j {b!r} is not within 0.5% of {B_STAR_REF_J!r}")
    return (
        problems
        + _close("beta", rec["beta"], beta_of(3.0, b))
        + _close("pi", rec["pi"], pi_of(b))
        + _close("delta_star", rec["delta_star"], paper_aoi(rec["beta"], rec["pi"]))
    )


def make(name: str, seed: int, sizes: Sizes, workdir: str):
    """Build the named workload."""
    if name == "mc_reference":
        return MonteCarlo(name, 3.0, validate=False, seed=seed, horizon_slots=sizes.reference_slots)
    if name == "mc_high_power":
        return MonteCarlo(name, 300.0, validate=True, seed=seed, horizon_slots=sizes.high_power_slots)
    if name == "design_sweep":
        return DesignSweep(seed, sizes, workdir)
    raise ValueError(f"unknown workload {name!r}")
