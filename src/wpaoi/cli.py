"""Command-line interface.

Subcommands:

* ``analytic``: closed-form statistics at one operating point.
* ``simulate``: Monte Carlo run with empirical statistics.
* ``optimize``: minimize the average age over the capacitor size.
* ``sweep-b``: age versus capacitor size table.
* ``sweep-p``: minimum age versus transmit power table.
* ``validate``: closed forms against simulation with pass/fail verdicts.

Exit codes: 0 on success, 2 on a usage error or an output file (``--out``,
``--trace``) that cannot be written, 3 on a domain error (invalid parameter
values), 4 when a simulation decodes too few updates to measure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, replace

from .analytics import analytic_report
from .experiments import (
    _csv,
    _json,
    format_validation_report,
    rows_to_csv,
    rows_to_json,
    sweep_aoi_vs_B,
    sweep_minaoi_vs_P,
    validation_report,
)
from .model import build_params, dbm_to_watts, derive
from .optimizer import optimize_capacitor
from .simulator import (
    NoSuccessError,
    SimConfig,
    Warmup,
    simulate,
    summarize,
    write_trace,
)

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
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format")


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


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_payload(payload: dict, fmt: str, out) -> None:
    """One record as JSON, or as a CSV header and line in which a pair value,
    such as a bracket, becomes two columns, ``<key>_lo`` and ``<key>_hi``,
    after the others."""
    if fmt == "json":
        _emit(_json(payload) + "\n", out)
        return
    pairs = {k: v for k, v in payload.items() if isinstance(v, (list, tuple))}
    record = {k: v for k, v in payload.items() if k not in pairs}
    for k, (lo, hi) in pairs.items():
        record[f"{k}_lo"], record[f"{k}_hi"] = lo, hi
    _emit(_csv(record, [record.values()]), out)


def _cmd_analytic(args) -> int:
    params = _params_from_args(args)
    d = derive(params)
    payload = asdict(analytic_report(d.beta, d.pi))
    _emit_payload(payload, args.format or "json", args.out)
    return 0


def _cmd_simulate(args) -> int:
    params = _params_from_args(args)
    warmup = Warmup.FULL_HORIZON if args.warmup == "full" else Warmup.FIRST_SUCCESS_TO_LAST_SUCCESS
    config = SimConfig(params, args.horizon, args.seed, warmup=warmup)
    # A point derive refuses is refused before any slot is drawn.
    d = derive(params)
    if args.trace is None:
        stats = simulate(config)
    else:
        # The statistics describe the realization in the trace file: the
        # events come from the rows as they are written.
        stats = summarize(write_trace(config, args.trace), config.warmup)
    payload = {
        "beta": d.beta,
        "pi": d.pi,
        **asdict(stats),
        "horizon_slots": args.horizon,
        "seed": args.seed,
        "warmup": warmup.value,
    }
    _emit_payload(payload, args.format or "json", args.out)
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
    _emit_payload(payload, args.format or "json", args.out)
    return 0


def _cmd_sweep_b(args) -> int:
    horizon = args.horizon if args.with_sim else None
    rows = sweep_aoi_vs_B(_params_from_args(args), args.b_values, horizon, args.seed)
    return _emit_rows(rows, args)


def _cmd_sweep_p(args) -> int:
    rows = sweep_minaoi_vs_P(_params_from_args(args), args.p_values, args.r_values)
    return _emit_rows(rows, args)


def _emit_rows(rows, args) -> int:
    _emit(rows_to_json(rows) if args.format == "json" else rows_to_csv(rows), args.out)
    return 0


def _cmd_validate(args) -> int:
    params = _params_from_args(args)
    report = validation_report(params, args.horizon, args.seed)
    print(format_validation_report(report), end="", file=sys.stderr)
    if report.sim_error is not None:
        counts = (report.n_recharges, report.n_attempts, report.n_successes, report.horizon_slots)
        raise NoSuccessError(report.sim_error, *counts)
    if args.format == "csv":
        records = [asdict(row) for row in report.rows]
        _emit(_csv(records[0], (record.values() for record in records)), args.out)
    else:
        _emit_payload(asdict(report), "json", args.out)
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
    p.add_argument("--warmup", choices=("window", "full"), default="window",
                   help="measure between first and last decoded update, or over the full horizon")
    p.add_argument("--trace", default=None,
                   help="run the slot dynamics slot by slot, write their per-slot CSV trace "
                   "here and take the statistics from it (slow; use short horizons)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optimize", help="find the age-minimizing capacitor size")
    _add_physical_flags(p, need_capacitor=False)
    p.add_argument("--b-lo", type=float, default=1e-9, help="search bracket lower edge (default 1e-9 J)")
    p.add_argument("--b-hi", type=float, default=1.0, help="search bracket upper edge (default 1 J)")
    p.add_argument("--tol-rel", type=float, default=1e-6, help="relative bracket tolerance (default 1e-6)")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep-b", help="age versus capacitor size table")
    _add_physical_flags(p, need_capacitor=False)
    p.add_argument("--b-values", type=_float_list, required=True, help="comma-separated capacitor sizes")
    p.add_argument("--with-sim", action="store_true", help="add simulated age and CI per point")
    p.add_argument("--horizon", type=int, default=1_000_000, help="slots per simulated point (default 1e6)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.set_defaults(func=_cmd_sweep_b)

    p = sub.add_parser("sweep-p", help="minimum age versus transmit power table")
    _add_physical_flags(p, need_capacitor=False)
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
