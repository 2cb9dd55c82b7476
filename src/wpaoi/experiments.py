"""Parameter sweeps and analytic-vs-simulation validation.

The two sweep shapes mirror the standard presentation of this system: the
average age as a function of the capacitor size at several transmit powers
(a U-shaped family of curves), and the minimum achievable age as a function
of transmit power at several spectral efficiencies. Each sweep takes a base
operating point and the values that replace its fields, and refuses exactly
the points that :func:`~wpaoi.model.derive` refuses.

The results are dataclasses; :mod:`wpaoi.cli` writes them as CSV or JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytics import analytic_report, average_aoi
from .model import SystemParams, _refuse, beta_pi, derive
from .optimizer import optimize_capacitors
from .simulator import NoSuccessError, SimConfig, _reduce_log, sample_events, simulate

__all__ = [
    "SweepRow",
    "sweep_aoi_vs_B",
    "sweep_minaoi_vs_P",
    "ValidationRow",
    "ValidationReport",
    "validation_report",
]


@dataclass(frozen=True)
class SweepRow:
    """One sweep point. Optional fields stay None where they do not apply.

    ``rate_bpcu`` and ``boundary`` are carried for the minimum-age sweep
    (which runs one optimization per power and spectral efficiency). The
    CLI writes every field as JSON, but as CSV only the columns of the
    fixed sweep schema. A failed simulation leaves ``delta_sim`` None and
    the reason in ``sim_error``.
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


def _sweep_values(values) -> tuple[float, ...]:
    """The swept values as floats; they must be non-empty, positive and
    finite, and ascending."""
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValueError("values must be non-empty")
    if not all(0.0 < v < math.inf for v in vals):
        raise ValueError("values must be positive and finite")
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise ValueError("values must be ascending")
    return vals


def sweep_aoi_vs_B(
    base: SystemParams, b_values, horizon: int | None = None, seed: int = 0
) -> list[SweepRow]:
    """Average age at each capacitor size, optionally validated by simulation.

    The sizes replace the ``capacitor_j`` of ``base``. The closed forms of
    all sizes come from one broadcast evaluation of
    :func:`~wpaoi.model.beta_pi` and :func:`~wpaoi.analytics.average_aoi`,
    equal bit for bit to evaluating each size alone. A size that
    :func:`~wpaoi.model.derive` refuses raises its ValueError. With a
    ``horizon`` every size is also simulated over that many slots, with the
    same ``seed`` at every size; ``horizon=None`` simulates nothing. A size
    whose simulation decodes fewer than two updates keeps the reason in its
    row's ``sim_error`` rather than aborting the sweep.
    """
    values = _sweep_values(b_values)
    sizes = np.array(values)
    beta, pi = beta_pi(base, sizes)
    _refuse(beta, pi, sizes)
    delta = average_aoi(beta, pi)
    rows = []
    for value, b, p, age in zip(values, beta.tolist(), pi.tolist(), delta.tolist()):
        delta_sim = delta_sim_ci = sim_error = None
        if horizon is not None:
            try:
                stats = simulate(SimConfig(replace(base, capacitor_j=value), horizon, seed))
                delta_sim, delta_sim_ci = stats.delta_hat, stats.delta_ci_half
            except NoSuccessError as exc:
                sim_error = str(exc)
        rows.append(SweepRow(value, b, p, age, delta_sim, delta_sim_ci, sim_error=sim_error))
    return rows


def sweep_minaoi_vs_P(base: SystemParams, p_values, r_values) -> list[SweepRow]:
    """Minimum achievable age at each power, for each spectral efficiency.

    The powers and spectral efficiencies replace those of ``base``, whose
    ``capacitor_j`` is not read either. Rows come out grouped by spectral
    efficiency, powers ascending within a group. beta and pi are evaluated
    at the optimal capacitor size, and a lane that
    :func:`~wpaoi.model.derive` refuses there raises its ValueError, as
    ``optimize`` does. A search that ends on the bracket edge is marked with
    ``boundary=True``.
    """
    powers = _sweep_values(p_values)
    r_vals = [float(r) for r in r_values]
    if not r_vals:
        raise ValueError("r_values must be non-empty")
    if not all(0.0 <= r < math.inf for r in r_vals):
        raise ValueError("r_values must be non-negative and finite")
    lanes = [replace(base, power_w=power, rate_bpcu=r) for r in r_vals for power in powers]
    opts = optimize_capacitors(lanes)
    b_stars = np.array([opt.b_star_j for opt in opts])
    beta, pi = beta_pi(lanes, b_stars)
    _refuse(beta, pi, b_stars)
    return [
        SweepRow(params.power_w, b, p, opt.delta_star, b_star=opt.b_star_j, delta_star=opt.delta_star,
                 rate_bpcu=params.rate_bpcu, boundary=opt.on_boundary)
        for params, opt, b, p in zip(lanes, opts, beta.tolist(), pi.tolist())
    ]


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
    agree within 2% relative, the age within 1%. The run is sampled with
    :func:`~wpaoi.simulator.sample_events` and reduced once, by the reduction
    behind :func:`~wpaoi.simulator.simulate`, over the window between the
    first and the last decoded update. The recharge times are i.i.d., and so are
    the interarrival times, so the moment rows carry i.i.d. 95% half-widths;
    the age row carries the regenerative one of
    :class:`~wpaoi.simulator.SimStats`. A run with too few decoded updates
    produces a report with no rows and, in ``sim_error``, the message and
    counters of the :class:`~wpaoi.simulator.NoSuccessError` that
    :func:`~wpaoi.simulator.simulate` raises on the same run.
    """
    d = derive(params)
    ref = analytic_report(d.beta, d.pi)
    rows, sim_error = [], None
    try:
        run, moment_halves = _reduce_log(sample_events(SimConfig(params, horizon, seed)))
    except NoSuccessError as exc:
        run, sim_error = exc, str(exc)
    else:
        measured = (
            ("e_t", ref.e_t, run.t_samples_mean, 0.02),
            ("e_t2", ref.e_t2, run.t_samples_m2, 0.02),
            ("e_x", ref.e_x, run.x_samples_mean, 0.02),
            ("e_x2", ref.e_x2, run.x_samples_m2, 0.02),
            ("delta", ref.delta, run.delta_hat, 0.01),
        )
        halves = (*moment_halves, run.delta_ci_half)
        for (name, target, empirical, tol), half in zip(measured, halves):
            rel = abs(empirical - target) / target
            rows.append(ValidationRow(name, target, empirical, half, rel, tol, passed=rel < tol))
    return ValidationReport(
        rows=tuple(rows), all_passed=bool(rows) and all(r.passed for r in rows),
        n_recharges=run.n_recharges, n_attempts=run.n_attempts, n_successes=run.n_successes,
        horizon_slots=horizon, seed=seed, sim_error=sim_error,
    )

