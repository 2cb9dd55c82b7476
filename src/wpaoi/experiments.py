"""Parameter sweeps and analytic-vs-simulation validation, with file output.

The two sweep shapes mirror the standard presentation of this system: the
average age as a function of the capacitor size at several transmit powers
(a U-shaped family of curves), and the minimum achievable age as a function
of transmit power at several spectral efficiencies. Each sweep takes a base
operating point and the values that replace its fields, and refuses exactly
the points that :func:`~wpaoi.model.derive` refuses.

Sweep rows serialize to a single fixed CSV schema for both shapes, with
empty fields where a column does not apply, and to JSON with every field
present. Floats are written with their shortest round-tripping decimal
representation so emitted files are byte-stable and re-parse exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .analytics import analytic_report, average_aoi
from .model import SystemParams, _refuse, beta_pi, derive
from .optimizer import optimize_capacitors
from .simulator import NoSuccessError, SimConfig, Warmup, _cycle_sums, sample_events, simulate

__all__ = [
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

CSV_HEADER = "swept_value,beta,pi,delta_analytic,delta_sim,delta_sim_ci,b_star,delta_star"


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
    whose simulation produces no decoded update is flagged in the row rather
    than aborting the sweep.
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


def rows_to_csv(rows) -> str:
    """Serialize sweep rows to the fixed CSV schema, one line per row."""
    keys = CSV_HEADER.split(",")
    return _csv(keys, map(operator.attrgetter(*keys), rows))


def rows_to_json(rows) -> str:
    """Serialize sweep rows to JSON with every field present."""
    # A row's __dict__ holds its fields in order, every one a scalar, so it
    # equals dataclasses.asdict, which deep-copies each value.
    return _json([vars(row) for row in rows]) + "\n"


# repr is the CSV and JSON text of these types, but for the words below.
_REPR_TYPES = {float, int, bool, type(None)}
_CSV_WORDS = {"None": "", "True": "1", "False": "0"}
_JSON_WORDS = {"None": "null", "True": "true", "False": "false", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _texts(values, words) -> list:
    """The repr of each value, all of ``_REPR_TYPES``, or its word; C calls only."""
    texts = [*map(repr, values)]
    return [*map(words.get, texts, texts)]


def _csv(header, rows) -> str:
    """A line of column names, then one line per row of values, one value per
    column: floats and ints by repr, booleans as 0/1, None as an empty field,
    the rest by str."""
    cells = [*itertools.chain.from_iterable(rows)]
    if _REPR_TYPES.issuperset(map(type, cells)):
        texts = _texts(cells, _CSV_WORDS)
    else:
        texts = [_texts([v], _CSV_WORDS)[0] if type(v) in _REPR_TYPES else str(v) for v in cells]
    n = len(header)
    lines = [",".join(header), *(",".join(texts[i : i + n]) for i in range(0, len(texts), n))]
    return "\n".join(lines) + "\n"


def _json(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with string
    keys, lists, tuples, strings, ints, floats, booleans and None. Numbers
    must be of exactly these types: a numpy scalar raises TypeError.

    ``json.dumps`` skips its C encoder whenever ``indent`` is set. Here a
    record of scalars is encoded in C calls and filled into a template made
    once per sequence of keys and depth.
    """
    if type(obj) in _REPR_TYPES:
        return _texts([obj], _JSON_WORDS)[0]
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        values = obj.values()
        fast = _REPR_TYPES.issuperset(map(type, values))
        texts = _texts(values, _JSON_WORDS) if fast else [_json(value, inner) for value in values]
        return _json_template(tuple(obj), indent) % tuple(texts) if obj else "{}"
    if isinstance(obj, (list, tuple)):
        items = ",\n".join(inner + _json(item, inner) for item in obj)
        return f"[\n{items}\n{indent}]" if obj else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=64)
def _json_template(keys: tuple, indent: str) -> str:
    inner = indent + "  "
    items = (inner + encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
    return "{\n" + ",\n".join(items) + f"\n{indent}}}"


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
    behind :func:`~wpaoi.simulator.summarize`, over the window between the
    first and the last decoded update. The recharge times are i.i.d., and so are
    the interarrival times, so the moment rows carry i.i.d. 95% half-widths;
    the age row carries the regenerative one of
    :class:`~wpaoi.simulator.SimStats`. A run with too few decoded updates
    produces a report with no rows and the failure recorded in
    ``sim_error``.
    """
    d = derive(params)
    ref = analytic_report(d.beta, d.pi)
    warmup = Warmup.FIRST_SUCCESS_TO_LAST_SUCCESS
    sums = _cycle_sums(sample_events(SimConfig(params, horizon, seed, warmup=warmup)))
    counts = {
        "n_recharges": sums.n_fills,
        "n_attempts": sums.n_attempts,
        "n_successes": sums.n_successes,
        "horizon_slots": horizon,
        "seed": seed,
    }
    if sums.n_successes < 2:
        return ValidationReport(
            rows=(),
            all_passed=False,
            **counts,
            sim_error=(
                f"fewer than two decoded updates (recharges={sums.n_fills}, "
                f"successes={sums.n_successes}); nothing to validate"
            ),
        )
    stats = sums.stats(warmup)
    measured = (
        ("e_t", ref.e_t, stats.t_samples_mean, 0.02),
        ("e_t2", ref.e_t2, stats.t_samples_m2, 0.02),
        ("e_x", ref.e_x, stats.x_samples_mean, 0.02),
        ("e_x2", ref.e_x2, stats.x_samples_m2, 0.02),
        ("delta", ref.delta, stats.delta_hat, 0.01),
    )
    halves = (*sums.moment_halves(warmup), stats.delta_ci_half)
    rows = []
    for (name, target, empirical, tol), half in zip(measured, halves):
        rel = abs(empirical - target) / target
        rows.append(ValidationRow(name, target, empirical, half, rel, tol, passed=rel < tol))
    return ValidationReport(rows=tuple(rows), all_passed=all(r.passed for r in rows), **counts)


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
