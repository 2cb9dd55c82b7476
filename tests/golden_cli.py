"""Recorded command lines of the CLI, for ``tests/test_golden.py``.

Each command in ``COMMANDS`` runs through ``wpaoi.cli.run_cli`` in process,
in a directory of its own, so a ``--trace`` or ``--out`` path is relative to
it. ``tests/golden/`` holds what each one gave: its stdout and stderr byte
for byte, and in ``commands.json`` its argv, its exit code and, for a traced
run, the SHA-256 digest and size of the trace file (the 20,000-slot trace
alone is over 1 MB).

Rewrite the fixtures from the current code with::

    PYTHONPATH=src python tests/golden_cli.py

It rewrites only the files whose bytes changed and prints their names; name
each one, with the reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from wpaoi.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"
TRACE = "trace.csv"

_REF = ["--power-w", "3", "--capacitor-j", "3e-4"]
_HIGH = ["--power-w", "300", "--capacitor-j", "3e-4"]
# The design session of the benchmark's design_sweep workload.
_SIZES = ",".join(map(repr, (float(b) for b in np.geomspace(1e-6, 1e-1, 100))))
_POWERS = ",".join(map(repr, (float(p) for p in np.geomspace(0.1, 100.0, 25))))
_SWEEP_P = ["sweep-p", "--power-w", "3", "--p-values", _POWERS, "--r-values", "0.05,0.1"]

COMMANDS = {
    "analytic_json": ["analytic", *_REF],
    "analytic_csv": ["analytic", *_REF, "--format", "csv"],
    "optimize_json": ["optimize", "--power-w", "3"],
    "optimize_csv": ["optimize", "--power-w", "3", "--format", "csv"],
    "simulate_reference": ["simulate", *_REF, "--horizon", "10000000", "--seed", "7"],
    "simulate_high_power_csv": ["simulate", *_HIGH, "--horizon", "1000000", "--seed", "7",
                                "--format", "csv"],
    "simulate_no_success": ["simulate", *_REF, "--horizon", "300", "--seed", "7"],
    "trace_high_power": ["simulate", *_HIGH, "--horizon", "2000", "--seed", "7", "--trace", TRACE],
    "trace_reference": ["simulate", *_REF, "--horizon", "20000", "--seed", "7", "--trace", TRACE],
    "trace_no_success": ["simulate", *_REF, "--horizon", "300", "--seed", "7", "--trace", TRACE],
    "validate_json": ["validate", *_REF, "--horizon", "10000000", "--seed", "7"],
    "validate_csv": ["validate", *_HIGH, "--horizon", "1000000", "--seed", "7", "--format", "csv"],
    "validate_no_success": ["validate", *_REF, "--horizon", "300", "--seed", "7"],
    "sweep_b_with_sim": ["sweep-b", "--power-w", "3", "--b-values", "1e-4,3e-4,1e-3",
                         "--horizon", "1000000", "--seed", "7"],
    "sweep_b_json": ["sweep-b", "--power-w", "3", "--b-values", _SIZES, "--format", "json"],
    "sweep_b_csv": ["sweep-b", "--power-w", "3", "--b-values", _SIZES, "--format", "csv"],
    "sweep_p_json": [*_SWEEP_P, "--format", "json"],
    "sweep_p_csv": [*_SWEEP_P, "--format", "csv"],
    "sweep_p_default": ["sweep-p", "--power-w", "3", "--p-values", "1,3,10"],
    "exit_2_unwritable_out": ["analytic", *_REF, "--out", os.path.join("missing", "out.json")],
    "exit_3_domain": ["analytic", "--power-w", "-3", "--capacitor-j", "3e-4"],
}


def run(argv, workdir) -> tuple[str, str, int, dict | None]:
    """stdout, stderr and exit code of one command line run in ``workdir``,
    and the digest and size of the trace file it wrote, if any."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(list(argv))
    finally:
        os.chdir(cwd)
    trace = None
    if TRACE in argv:
        data = (Path(workdir) / TRACE).read_bytes()
        trace = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return out.getvalue(), err.getvalue(), code, trace


def _rewrite(path: Path, data: bytes) -> bool:
    """Write ``data`` to ``path`` unless it holds those bytes already; say
    whether it wrote."""
    if path.exists() and path.read_bytes() == data:
        return False
    path.write_bytes(data)
    print(path.name)
    return True


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    changed = 0
    for name, argv in COMMANDS.items():
        with tempfile.TemporaryDirectory() as workdir:
            stdout, stderr, code, trace = run(argv, workdir)
        changed += _rewrite(GOLDEN / f"{name}.out", stdout.encode())
        changed += _rewrite(GOLDEN / f"{name}.err", stderr.encode())
        manifest[name] = {"argv": argv, "code": code, "trace": trace}
    changed += _rewrite(GOLDEN / "commands.json", (json.dumps(manifest, indent=1) + "\n").encode())
    print(f"ran {len(manifest)} commands; {changed} files in {GOLDEN} changed", file=sys.stderr)


if __name__ == "__main__":
    main()
