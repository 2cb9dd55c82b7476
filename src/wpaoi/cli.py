"""Command-line interface.

Subcommands:

* ``analytic``: closed-form statistics at one operating point.
* ``simulate``: Monte Carlo run with empirical statistics.
* ``optimize``: minimize the average age over the capacitor size.
* ``sweep-b``: age versus capacitor size table.
* ``sweep-p``: minimum age versus transmit power table.
* ``validate``: closed forms against simulation with pass/fail verdicts.

Every command writes through one writer, to ``--out`` or stdout: JSON by
default, CSV by default for the two sweeps. Both sweep shapes share one
fixed CSV schema, with empty fields where a column does not apply; JSON
carries every field. Floats are written with their shortest round-tripping
decimal representation, so the output is byte-stable and re-parses exactly.

Exit codes: 0 on success, 2 on a usage error (as ``--trace`` and ``--out``
naming one file) or an output file that cannot be written, 3 on a domain
error (invalid parameter values), 4 when a run decodes too few updates.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from dataclasses import asdict, replace
from json.encoder import encode_basestring_ascii

from .analytics import analytic_report
from .experiments import (
    ValidationReport,
    sweep_aoi_vs_B,
    sweep_minaoi_vs_P,
    validation_report,
)
from .model import build_params, dbm_to_watts, derive
from .optimizer import optimize_capacitor
from .simulator import NoSuccessError, SimConfig, simulate, write_trace

__all__ = ["run_cli", "main"]


def _float_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return values


def _add_physical_flags(parser: argparse.ArgumentParser, need_capacitor: bool) -> None:
    parser.add_argument("--power-w", type=float, required=True, help="transmit power P in watts")
    parser.add_argument("--efficiency", type=float, default=0.5, help="RF-to-DC efficiency (default 0.5)")
    parser.add_argument("--noise-dbm", type=float, default=-50.0, help="noise variance in dBm (default -50)")
    parser.add_argument("--rate-bpcu", type=float, default=0.05, help="spectral efficiency r (default 0.05)")
    if need_capacitor:
        parser.add_argument("--capacitor-j", type=float, required=True, help="capacitor size B in joules")
    parser.add_argument("--distance-m", type=float, default=None, help="link distance in meters (default 20)")
    parser.add_argument("--alpha", type=float, default=2.2, help="path-loss exponent (default 2.2)")
    parser.add_argument("--lambda", dest="channel_rate", type=float, default=None,
                        help="channel gain rate directly; overrides --distance-m")
    parser.add_argument("--out", default=None, help="write output to this file instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="json",
                        help="output format (default %(default)s)")


def _params_from_args(args):
    # a subcommand with --capacitor-j requires it; the others size B later
    b = getattr(args, "capacitor_j", 1.0)
    distance = args.distance_m
    if args.channel_rate is None and distance is None:
        distance = 20.0
    params, warning = build_params(
        power_w=args.power_w,
        capacitor_j=b,
        efficiency=args.efficiency,
        noise_w=dbm_to_watts(args.noise_dbm),
        rate_bpcu=args.rate_bpcu,
        distance_m=distance,
        alpha=args.alpha,
        channel_rate=args.channel_rate,
    )
    if warning is not None:
        print(f"warning: {warning}", file=sys.stderr)
    return params


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


# The CSV columns of both sweep shapes; JSON carries every SweepRow field.
_SWEEP_COLUMNS = ("swept_value", "beta", "pi", "delta_analytic", "delta_sim", "delta_sim_ci", "b_star", "delta_star")


def _write(args, obj, rows, columns=None) -> None:
    """Write ``obj`` as JSON or ``rows``, dicts, as CSV under ``columns``
    (by default the first row's keys), as ``--format`` says, to ``--out`` or
    stdout."""
    if args.format == "json":
        text = _json(obj) + "\n"
    else:
        columns = columns or rows[0].keys()
        text = _csv(columns, (map(row.__getitem__, columns) for row in rows))
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _cmd_analytic(args) -> int:
    params = _params_from_args(args)
    d = derive(params)
    payload = asdict(analytic_report(d.beta, d.pi))
    _write(args, payload, [payload])
    return 0


def _cmd_simulate(args) -> int:
    if None not in (args.trace, args.out) and os.path.realpath(args.trace) == os.path.realpath(args.out):
        print(f"error: --trace and --out name one file: {args.trace}", file=sys.stderr)
        return 2
    params = _params_from_args(args)
    config = SimConfig(params, args.horizon, args.seed)
    # A point derive refuses is refused before any slot is drawn.
    d = derive(params)
    stats = simulate(config) if args.trace is None else write_trace(config, args.trace)
    payload = {
        "beta": d.beta,
        "pi": d.pi,
        **asdict(stats),
        "horizon_slots": args.horizon,
        "seed": args.seed,
        # the window the statistics describe
        "warmup": "first_success_to_last_success",
    }
    _write(args, payload, [payload])
    return 0


def _cmd_optimize(args) -> int:
    params = _params_from_args(args)
    result = optimize_capacitor(params, args.b_lo, args.b_hi, args.tol_rel)
    d = derive(replace(params, capacitor_j=result.b_star_j))
    payload = {
        "b_star_j": result.b_star_j,
        "delta_star": result.delta_star,
        "beta": d.beta,
        "pi": d.pi,
        "evaluations": result.evaluations,
        "bracket": list(result.bracket),
        "converged": result.converged,
        "on_boundary": result.on_boundary,
    }
    # CSV has no list cell: the bracket becomes two columns after the others.
    row = {k: v for k, v in payload.items() if k != "bracket"}
    row["bracket_lo"], row["bracket_hi"] = result.bracket
    _write(args, payload, [row])
    return 0


def _cmd_sweep_b(args) -> int:
    rows = sweep_aoi_vs_B(_params_from_args(args), args.b_values, args.horizon, args.seed)
    for row in rows:
        if row.sim_error is not None:
            print(f"warning: capacitor_j {row.swept_value!r}: {row.sim_error}", file=sys.stderr)
    # A row's __dict__ holds its fields in order, every one a scalar, so it
    # equals dataclasses.asdict, which deep-copies each value.
    records = [vars(row) for row in rows]
    _write(args, records, records, _SWEEP_COLUMNS)
    return 0


def _cmd_sweep_p(args) -> int:
    rows = sweep_minaoi_vs_P(_params_from_args(args), args.p_values, args.r_values)
    records = [vars(row) for row in rows]
    _write(args, records, records, _SWEEP_COLUMNS)
    return 0


def _format_validation_report(report: ValidationReport) -> str:
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


def _cmd_validate(args) -> int:
    params = _params_from_args(args)
    report = validation_report(params, args.horizon, args.seed)
    print(_format_validation_report(report), end="", file=sys.stderr)
    if report.sim_error is not None:
        # sim_error already carries the run's counters
        print(f"error: {report.sim_error}", file=sys.stderr)
        return 4
    payload = asdict(report)
    _write(args, payload, payload["rows"])
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpaoi",
        description=(
            "Closed-form and Monte Carlo evaluation of the average age of "
            "information of a wireless-powered sensor that transmits with "
            "full capacitor discharge, with capacitor sizing on top."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form statistics at one operating point")
    _add_physical_flags(p, need_capacitor=True)
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo run with empirical statistics")
    _add_physical_flags(p, need_capacitor=True)
    p.add_argument("--horizon", type=int, default=1_000_000, help="slots to simulate (default 1e6)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--trace", default=None,
                   help="also write the run's per-slot CSV trace here (a few us per slot)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optimize", help="find the age-minimizing capacitor size")
    _add_physical_flags(p, need_capacitor=False)
    p.add_argument("--b-lo", type=float, default=1e-9, help="search bracket lower edge (default 1e-9 J)")
    p.add_argument("--b-hi", type=float, default=1.0, help="search bracket upper edge (default 1 J)")
    p.add_argument("--tol-rel", type=float, default=1e-6, help="relative bracket tolerance (default 1e-6)")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep-b", help="age versus capacitor size table")
    _add_physical_flags(p, need_capacitor=False)
    p.set_defaults(format="csv")
    p.add_argument("--b-values", type=_float_list, required=True, help="comma-separated capacitor sizes")
    p.add_argument("--horizon", type=int, default=None,
                   help="simulate each point over this many slots, adding its age and CI")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.set_defaults(func=_cmd_sweep_b)

    p = sub.add_parser("sweep-p", help="minimum age versus transmit power table")
    _add_physical_flags(p, need_capacitor=False)
    p.set_defaults(format="csv")
    p.add_argument("--p-values", type=_float_list, required=True,
                   help="comma-separated powers in watts; each replaces --power-w, "
                   "which sweep-p only checks for validity")
    p.add_argument("--r-values", type=_float_list, default=(0.05,),
                   help="comma-separated spectral efficiencies (default 0.05); each replaces --rate-bpcu")
    p.set_defaults(func=_cmd_sweep_p)

    p = sub.add_parser("validate", help="closed forms against simulation with verdicts")
    _add_physical_flags(p, need_capacitor=True)
    p.add_argument("--horizon", type=int, default=1_000_000, help="slots to simulate (default 1e6)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.set_defaults(func=_cmd_validate)

    return parser


def run_cli(argv=None) -> int:
    """Run one command line and return its exit code.

    The parser is built once per process and shared by every call: building
    it (six subcommands, some eighty options) costs more than a closed-form
    command itself. Parsing does not change it, and no option has a mutable
    default, so no call sees another's arguments.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except NoSuccessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # Only opening or writing --out or --trace raises it; argparse also
        # exits 2 on a file it cannot open.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
