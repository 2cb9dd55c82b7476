"""Parameter sweeps and analytic-vs-simulation validation, with file output.

The two sweep shapes mirror the standard presentation of this system: the
average age as a function of the capacitor size at several transmit powers
(a U-shaped family of curves), and the minimum achievable age as a function
of transmit power at several spectral efficiencies.

Sweep rows serialize to a single fixed CSV schema for both shapes, with
empty fields where a column does not apply, and to JSON with every field
present. Floats are written with their shortest round-tripping decimal
representation so emitted files are byte-stable and re-parse exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .analytics import analytic_report, average_aoi
from .model import SystemParams, derive
from .optimizer import optimize_capacitors
from .simulator import (
    NoSuccessError,
    SimConfig,
    Warmup,
    batch_ci,
    measurement_window,
    sample_events,
    simulate,
)

__all__ = [
    "SweepSpec",
    "SweepRow",
    "CSV_HEADER",
    "sweep_aoi_vs_B",
    "sweep_minaoi_vs_P",
    "rows_to_csv",
    "rows_to_json",
    "ValidationRow",
    "ValidationReport",
    "validation_report",
    "format_validation_report",
]

_SWEEPABLE = ("capacitor_j", "power_w")

CSV_HEADER = "swept_value,beta,pi,delta_analytic,delta_sim,delta_sim_ci,b_star,delta_star"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base operating point plus the values of one swept field.

    Simulation, when enabled, reuses the same seed at every sweep point.
    """

    base: SystemParams
    swept_field: str
    values: tuple[float, ...]
    with_simulation: bool = False
    horizon_slots: int = 10_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.swept_field not in _SWEEPABLE:
            raise ValueError(
                f"swept_field must be one of {_SWEEPABLE}, got {self.swept_field!r}"
            )
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("values must be non-empty")
        if not all(0.0 < v < math.inf for v in vals):
            raise ValueError("values must be positive and finite")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("values must be ascending")
        object.__setattr__(self, "values", vals)
        if self.horizon_slots < 1:
            raise ValueError(f"horizon_slots must be >= 1, got {self.horizon_slots}")


@dataclass(frozen=True)
class SweepRow:
    """One sweep point. Optional fields stay None where they do not apply.

    ``rate_bpcu`` and ``boundary`` are carried for the minimum-age sweep
    (which runs one optimization per power and spectral efficiency) and
    appear in JSON output only; the CSV schema is fixed. A failed simulation
    leaves ``delta_sim`` empty and the reason in ``sim_error``.
    """

    swept_value: float
    beta: float
    pi: float
    delta_analytic: float
    delta_sim: float | None = None
    delta_sim_ci: float | None = None
    b_star: float | None = None
    delta_star: float | None = None
    rate_bpcu: float | None = None
    boundary: bool = False
    sim_error: str | None = None


def sweep_aoi_vs_B(spec: SweepSpec) -> list[SweepRow]:
    """Average age at each capacitor size, optionally validated by simulation.

    A sweep point whose simulation produces no decoded update is flagged in
    the row rather than aborting the sweep.
    """
    if spec.swept_field != "capacitor_j":
        raise ValueError(f"expected a capacitor_j sweep, got {spec.swept_field!r}")
    rows = []
    for value in spec.values:
        params = replace(spec.base, capacitor_j=value)
        d = derive(params)
        delta_sim = delta_sim_ci = None
        sim_error = None
        if spec.with_simulation:
            config = SimConfig(params, spec.horizon_slots, spec.seed)
            try:
                stats = simulate(config)
                delta_sim = stats.delta_hat
                delta_sim_ci = stats.delta_ci_half
            except NoSuccessError as exc:
                sim_error = str(exc)
        rows.append(
            SweepRow(
                swept_value=value,
                beta=d.beta,
                pi=d.pi,
                delta_analytic=average_aoi(d.beta, d.pi),
                delta_sim=delta_sim,
                delta_sim_ci=delta_sim_ci,
                sim_error=sim_error,
            )
        )
    return rows


def sweep_minaoi_vs_P(spec: SweepSpec, r_values) -> list[SweepRow]:
    """Minimum achievable age at each power, for each spectral efficiency.

    Rows come out grouped by spectral efficiency, powers ascending within a
    group. beta and pi are evaluated at the optimal capacitor size. A search
    that ends on the bracket edge is marked with ``boundary=True``.
    """
    if spec.swept_field != "power_w":
        raise ValueError(f"expected a power_w sweep, got {spec.swept_field!r}")
    r_vals = [float(r) for r in r_values]
    if not r_vals:
        raise ValueError("r_values must be non-empty")
    if not all(0.0 <= r < math.inf for r in r_vals):
        raise ValueError("r_values must be non-negative and finite")
    lanes = [
        replace(spec.base, power_w=power, rate_bpcu=r) for r in r_vals for power in spec.values
    ]
    rows = []
    for params, opt in zip(lanes, optimize_capacitors(lanes)):
        d = derive(replace(params, capacitor_j=opt.b_star_j))
        rows.append(
            SweepRow(
                swept_value=params.power_w,
                beta=d.beta,
                pi=d.pi,
                delta_analytic=opt.delta_star,
                b_star=opt.b_star_j,
                delta_star=opt.delta_star,
                rate_bpcu=params.rate_bpcu,
                boundary=opt.on_boundary,
            )
        )
    return rows


def rows_to_csv(rows) -> str:
    """Serialize sweep rows to the fixed CSV schema, one line per row."""
    lines = [CSV_HEADER]
    for row in rows:
        values = (getattr(row, key) for key in CSV_HEADER.split(","))
        lines.append(",".join("" if v is None else repr(float(v)) for v in values))
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    """Serialize sweep rows to JSON with every field present."""
    return json.dumps([asdict(row) for row in rows], indent=2) + "\n"


@dataclass(frozen=True)
class ValidationRow:
    statistic: str
    analytic: float
    empirical: float
    ci_half: float
    rel_err: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]
    all_passed: bool
    n_recharges: int
    n_attempts: int
    n_successes: int
    horizon_slots: int
    seed: int
    sim_error: str | None = None


def validation_report(params: SystemParams, horizon: int, seed: int) -> ValidationReport:
    """Compare every closed-form statistic against one simulated run.

    The five compared statistics are the recharge-time and interarrival
    moments (first and second of each) plus the average age. Moments must
    agree within 2%
    relative, the age within 1%. Confidence half-widths are batch-means 95%
    intervals over the windowed cycle samples. A run with too few decoded
    updates produces a report with no rows and the failure recorded in
    ``sim_error``.
    """
    d = derive(params)
    ref = analytic_report(d.beta, d.pi)
    config = SimConfig(params, horizon, seed, warmup=Warmup.FIRST_SUCCESS_TO_LAST_SUCCESS)
    log = sample_events(config)
    n_recharges = int(log.fill_slots.size)
    n_attempts = int(log.success.size)
    n_successes = int(np.count_nonzero(log.success))
    if n_successes < 2:
        return ValidationReport(
            rows=(),
            all_passed=False,
            n_recharges=n_recharges,
            n_attempts=n_attempts,
            n_successes=n_successes,
            horizon_slots=horizon,
            seed=seed,
            sim_error=(
                f"fewer than two decoded updates (recharges={n_recharges}, "
                f"successes={n_successes}); nothing to validate"
            ),
        )
    window = measurement_window(log, config.warmup)
    t_win = window.t.astype(float)
    x_win = window.x.astype(float)

    rows = []

    def moment_row(name: str, target: float, samples: np.ndarray, tol: float) -> None:
        if samples.size >= 2:
            mean, half = batch_ci(samples, n_batches=min(20, samples.size))
        else:
            mean, half = float(samples.mean()), math.nan
        rel = abs(mean - target) / target
        rows.append(
            ValidationRow(
                statistic=name,
                analytic=target,
                empirical=mean,
                ci_half=half,
                rel_err=rel,
                tolerance=tol,
                passed=rel < tol,
            )
        )

    moment_row("e_t", ref.e_t, t_win, 0.02)
    moment_row("e_t2", ref.e_t2, t_win * t_win, 0.02)
    moment_row("e_x", ref.e_x, x_win, 0.02)
    moment_row("e_x2", ref.e_x2, x_win * x_win, 0.02)

    delta_rel = abs(window.delta_hat - ref.delta) / ref.delta
    rows.append(
        ValidationRow(
            statistic="delta",
            analytic=ref.delta,
            empirical=window.delta_hat,
            ci_half=window.delta_ci_half,
            rel_err=delta_rel,
            tolerance=0.01,
            passed=delta_rel < 0.01,
        )
    )

    return ValidationReport(
        rows=tuple(rows),
        all_passed=all(r.passed for r in rows),
        n_recharges=n_recharges,
        n_attempts=n_attempts,
        n_successes=n_successes,
        horizon_slots=horizon,
        seed=seed,
    )


def format_validation_report(report: ValidationReport) -> str:
    """Render a validation report as an aligned text table."""
    lines = [
        f"validation over {report.horizon_slots} slots, seed {report.seed}: "
        f"{report.n_recharges} recharges, {report.n_attempts} attempts, "
        f"{report.n_successes} decoded updates"
    ]
    if report.sim_error is not None:
        lines.append(f"FAILED: {report.sim_error}")
        return "\n".join(lines) + "\n"
    header = f"{'statistic':<10} {'analytic':>16} {'empirical':>16} {'ci_half':>12} {'rel_err':>10}  result"
    lines.append(header)
    for row in report.rows:
        lines.append(
            f"{row.statistic:<10} {row.analytic:>16.8g} {row.empirical:>16.8g} "
            f"{row.ci_half:>12.3g} {row.rel_err:>10.3e}  "
            + ("PASS" if row.passed else f"FAIL (tol {row.tolerance:g})")
        )
    lines.append("overall: " + ("PASS" if report.all_passed else "FAIL"))
    return "\n".join(lines) + "\n"
