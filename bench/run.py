"""Benchmark of the wpaoi package: Monte Carlo throughput and design-session latency.

Usage, from the root of a checkout::

    python3 bench/run.py --workload mc_reference --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 0

Each workload runs in this interpreter as a closed loop with one caller:
the next op starts when the previous one has returned. Untimed warm-up ops
come first. ``--trace 0`` then measures the end-to-end metrics with nothing
patched. ``--trace 1`` alternates untraced ops with traced ops, which run
with every public layer function wrapped (see ``tracer.py``), and reports
the per-layer metrics. The last line of stdout is one JSON object for the
caller; the lines above it name every metric with its unit, the checks that
failed and the provenance.
``--workload all`` runs each workload in turn, each in a fresh interpreter.
See ``README.md`` in this directory for why the workloads and metrics are
what they are.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
NAMES = ("mc_reference", "mc_high_power", "design_sweep")

# Counts and ratios are taken per op from the first MIN_OPS ops of a phase,
# whose seeds are fixed, so they repeat exactly for a given seed.
MIN_OPS = 3
# Op indices, hence seeds, of the traced phase and of the tracemalloc op.
TRACED_FIRST_INDEX = 1000
MEMORY_INDEX = 2000

# Every run starts with untimed warm-up ops, for this share of --seconds and
# at least one op, from this op index (hence seed) on. The first few Monte
# Carlo ops of a process run up to 1.5x slower while its memory grows, and
# the first op of each workload pays lazy imports and file creation.
WARMUP_SHARE = 0.2
WARMUP_INDEX = 3000

# Latency is judged by its 90th percentile. On a shared host the speed of
# pure-Python code flips for seconds to minutes between two levels about 1.8x
# apart; the median of a run flips with them, while the 90th percentile sits
# in the slower level in nearly every run, so it repeats from run to run.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Reported on the lines above the result, not in it: the median and the mean
# (ops_per_s) flip with host speed; op_tail_ms needs 20 ops in a run;
# slots_per_s exists only for Monte Carlo workloads; failed_frac is 0 when
# the program is right.
EXTRA_UNITS = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "slots_per_s": "1/s",
    "failed_frac": "ratio",
}

# Counts read at layer boundaries: metric -> (span name, count key), where
# the key None counts the calls themselves.
COUNT_METRICS = {
    "simulator.slots": ("simulator.sample_events", "slots"),
    "simulator.fills": ("simulator.sample_events", "fills"),
    "simulator.attempts": ("simulator.sample_events", "attempts"),
    "simulator.successes": ("simulator.sample_events", "successes"),
    "experiments.verdicts_failed": ("experiments.validation_report", "verdicts_failed"),
    "optimizer.calls": ("optimizer.optimize_capacitor", None),
    "optimizer.evaluations": ("optimizer.optimize_capacitor", "evaluations"),
    "optimizer.objective.calls": ("optimizer.objective", None),
    "analytics.average_aoi.calls": ("analytics.average_aoi", None),
    "model.derive.calls": ("model.derive", None),
    "cli.bytes_out": ("cli.run_cli", "bytes_out"),
}
# Times per op: metric -> span name; the metric's last part says whether it
# is self time (span minus its child spans) or the whole span, and its unit.
TIME_METRICS = (
    "simulator.sample_events.self_s",
    "simulator.simulate.self_s",
    "simulator.extract_cycles.ms",
    "simulator.empirical_aoi.ms",
    "simulator.batch_ci.ms",
    "experiments.validation_report.self_s",
    "experiments.sweep_minaoi_vs_P.self_ms",
    "experiments.sweep_aoi_vs_B.self_ms",
    "experiments.rows_to_csv.ms",
    "experiments.rows_to_json.ms",
    "optimizer.optimize_capacitor.self_ms",
    "optimizer.grid_scan.ms",
    "analytics.average_aoi.self_us",
    "analytics.analytic_report.us",
    "model.derive.us",
    "model.build_params.us",
    "cli.run_cli.self_ms",
)
_TIME_STATS = {
    "self_s": (True, 1.0, "s"),
    "self_ms": (True, 1e3, "ms"),
    "self_us": (True, 1e6, "us"),
    "s": (False, 1.0, "s"),
    "ms": (False, 1e3, "ms"),
    "us": (False, 1e6, "us"),
}
IMPORT_METRICS = {"import.wpaoi_s": "wpaoi", "import.scipy_stats_s": "scipy.stats", "import.numpy_s": "numpy"}


def per_layer_units() -> dict:
    units = {name: "s" for name in IMPORT_METRICS}
    units["simulator.sample_events.peak_mb"] = "MB"
    for name in TIME_METRICS:
        units[name] = _TIME_STATS[name.rsplit(".", 1)[1]][2]
    units.update({name: "count" for name in COUNT_METRICS})
    units["cli.bytes_out"] = "bytes"
    units.update({"simulator.fills_per_slot": "ratio", "simulator.decode_ratio": "ratio"})
    units["trace.overhead_frac"] = "ratio"
    return units


def import_children(repeats: int, importtime: bool) -> list:
    """Run ``import wpaoi`` in fresh interpreters, one after the other.

    Returns (wall seconds, stderr) per timed child. A first, untimed child
    writes the bytecode cache, which users do not pay for on every call.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", "import wpaoi"]
    runs = []
    for _ in range(repeats + 1):
        t0 = perf_counter()
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        runs.append((perf_counter() - t0, proc.stderr))
    return runs[1:]


def cumulative_import_s(stderr: str) -> dict:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


def calibrate() -> dict:
    """Host speed in this process: a fixed pure-Python loop and a fixed numpy loop.

    Context only; no metric is divided by it.
    """
    import numpy as np

    x = np.arange(1 << 20, dtype=float)

    def python_loop():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    def numpy_loop():
        for _ in range(10):
            np.cumsum(x)

    out = {}
    for name, fn in (("python_loop_ms", python_loop), ("numpy_loop_ms", numpy_loop)):
        times = []
        for _ in range(5):
            t0 = perf_counter()
            fn()
            times.append((perf_counter() - t0) * 1e3)
        out[name] = statistics.median(times)
    return out


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    import wpaoi

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "exports": len(wpaoi.__all__),
        "calibration": calibrate(),
    }


class Run:
    """The ops of one benchmark run, with their timings and outputs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list = []
        self.outputs: list = []
        self.workloads: dict = {}

    def phase(self, workload, phase: str, first_index: int, seconds: float, min_ops: int = MIN_OPS):
        """Run ops back to back for ``seconds``, and at least ``min_ops`` of them."""
        self.workloads[workload.name] = workload
        deadline = perf_counter() + seconds
        index = first_index
        while index - first_index < min_ops or perf_counter() < deadline:
            op_id = len(self.ops)
            if self.tracer is not None:
                self.tracer.op_id = op_id
            error = None
            t0 = perf_counter()
            try:
                raw = workload.call(index)
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            ms = (perf_counter() - t0) * 1e3
            if error is None:
                try:
                    out = workload.collect(index, raw)
                except Exception as exc:  # output the checks cannot read is a failed op
                    error = f"{type(exc).__name__}: {exc}"
            self.outputs.append({"problems": [error]} if error else out)
            self.ops.append(
                {"op": op_id, "workload": workload.name, "phase": phase, "index": index, "ms": ms, "error": error}
            )
            index += 1
            if self.tracer is not None:
                self.tracer.op_id = -1

    def verdicts(self) -> list:
        """None or the reason it failed, for every op, judged per workload."""
        verdicts = [None] * len(self.ops)
        for name, workload in self.workloads.items():
            ids = [op["op"] for op in self.ops if op["workload"] == name]
            for op_id, verdict in zip(ids, workload.judge([self.outputs[i] for i in ids])):
                verdicts[op_id] = verdict
        return verdicts

    def ms(self, name: str, phase: str) -> list:
        return [op["ms"] for op in self.ops if op["workload"] == name and op["phase"] == phase]


def tail(latencies: list):
    """The highest percentile with at least 10 ops beyond it, or None below 20 ops."""
    n = len(latencies)
    if n < 20:
        return None
    return sorted(latencies)[n - 11], math.floor(100 * (n - 10) / n), n


def end_to_end(run: Run, workload, setup: list, verdicts: list) -> tuple:
    timed = [(op["ms"], v is None) for op, v in zip(run.ops, verdicts) if op["phase"] == "untraced"]
    latencies = [ms for ms, _ in timed]
    busy_s = sum(latencies) / 1e3
    ok = sum(passed for _, passed in timed)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "op_p50_ms": statistics.median(latencies),
        "ops_per_s": ok / busy_s,
        "failed_frac": sum(v is not None for v in verdicts) / len(verdicts),
    }
    if workload.horizon_slots:
        extra["slots_per_s"] = ok * workload.horizon_slots / busy_s
    t = tail(latencies)
    if t is not None:
        extra["op_tail_ms"] = t[0]
        extra["op_tail"] = f"p{t[1]} of n={t[2]}"
    return metrics, extra


def per_layer(run: Run, tracer, name: str, imports: list) -> dict:
    """Per-op layer metrics of workload ``name`` from the traced ops.

    Times are means per op; counts are means over the first MIN_OPS ops. A
    function the workload's op never calls is read from the other workload
    of the same traced run whose op calls it most often, so every layer has
    a value in every traced run.
    """
    by_name: dict = {}
    for span, self_t in zip(tracer.spans, tracer.self_times()):
        by_name.setdefault(span[3], []).append((span, self_t))
    own = [op["op"] for op in run.ops if op["workload"] == name and op["phase"] == "traced"]
    reach: dict = {}
    for op in run.ops:
        if op["phase"] == "reach":
            reach.setdefault(op["workload"], []).append(op["op"])

    def source(span_name: str) -> list:
        calls = Counter(span[2] for span, _ in by_name.get(span_name, []))
        for ops in (own, max(reach.values(), key=lambda ids: sum(calls[i] for i in ids))):
            if any(calls[i] for i in ops):
                return ops
        return []

    def per_op(span_name: str, value) -> list:
        ops = source(span_name)
        totals = dict.fromkeys(ops, 0.0)
        for span, self_t in by_name.get(span_name, []):
            if span[2] in totals:
                totals[span[2]] += value(span, self_t)
        return [totals[i] for i in ops]

    metrics = {}
    for metric in TIME_METRICS:
        span_name, stat = metric.rsplit(".", 1)
        is_self, scale, _ = _TIME_STATS[stat]
        values = per_op(span_name, lambda s, self_t: (self_t if is_self else s[5] - s[4]) * scale)
        metrics[metric] = statistics.fmean(values) if values else 0.0
    for metric, (span_name, key) in COUNT_METRICS.items():
        values = per_op(span_name, lambda s, _: 1 if key is None else s[6][key])[:MIN_OPS]
        metrics[metric] = statistics.fmean(values) if values else 0.0
    metrics["simulator.fills_per_slot"] = metrics["simulator.fills"] / metrics["simulator.slots"]
    metrics["simulator.decode_ratio"] = metrics["simulator.successes"] / metrics["simulator.attempts"]
    memory_ops = {op["op"] for op in run.ops if op["phase"] == "memory"}
    metrics["simulator.sample_events.peak_mb"] = max(
        (span[6]["peak_mb"] for span, _ in by_name.get("simulator.sample_events", []) if span[2] in memory_ops),
        default=0.0,
    )
    for metric, module in IMPORT_METRICS.items():
        metrics[metric] = statistics.median(cumulative_import_s(err)[module] for _, err in imports)
    untraced = statistics.median(run.ms(name, "untraced"))
    metrics["trace.overhead_frac"] = (statistics.median(run.ms(name, "traced")) - untraced) / untraced
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None, setup_repeats: int = 5) -> dict:
    """Run one workload in this process and return its result record."""
    setup = import_children(setup_repeats, importtime=trace)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    sizes = sizes or workloads.FULL
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        workload = workloads.make(name, seed, sizes, str(workdir))
        prov = provenance(seed)
        tracer = tracing.Tracer() if trace else None
        run = Run(tracer)
        run.phase(workload, "warmup", WARMUP_INDEX, seconds * WARMUP_SHARE, min_ops=1)
        if not trace:
            run.phase(workload, "untraced", 0, seconds)
            verdicts = run.verdicts()
            metrics, extra = end_to_end(run, workload, [t for t, _ in setup], verdicts)
            units = {**END_TO_END_UNITS, **EXTRA_UNITS}
        else:
            others = [workloads.make(n, seed, sizes, str(workdir)) for n in NAMES if n != name]
            # tracemalloc slows Python allocation many times over, so it runs
            # for one Monte Carlo op only, whose times are not used.
            memory = workload if workload.horizon_slots else next(w for w in others if w.name == "mc_reference")
            # Untraced and traced ops alternate, so a change in host speed
            # during the run cannot pass for tracing overhead.
            deadline = perf_counter() + seconds
            i = 0
            while i < MIN_OPS or perf_counter() < deadline:
                run.phase(workload, "untraced", i, 0.0, min_ops=1)
                undo = tracer.install()
                try:
                    run.phase(workload, "traced", TRACED_FIRST_INDEX + i, 0.0, min_ops=1)
                finally:
                    tracer.uninstall(undo)
                i += 1
            undo = tracer.install()
            try:
                for other in others:
                    run.phase(other, "reach", TRACED_FIRST_INDEX, 0.0)
                tracemalloc.start()
                try:
                    run.phase(memory, "memory", MEMORY_INDEX, 0.0, min_ops=1)
                finally:
                    tracemalloc.stop()
            finally:
                tracer.uninstall(undo)
            tracer.write(str(OUT_DIR / f"spans-{name}-seed{seed}.jsonl"), run.ops)
            verdicts = run.verdicts()
            metrics, extra = per_layer(run, tracer, name, setup), {}
            units = per_layer_units()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(v is not None for v in verdicts)
    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": {k: ({"value": v, "unit": units[k]} if k in units else v) for k, v in extra.items()},
        "failures": [f"op {op['op']} ({op['workload']}, index {op['index']}): {v}"
                     for op, v in zip(run.ops, verdicts) if v is not None],
        "provenance": prov,
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']}: {result['attempted']} ops, {result['failed']} failed")
    for name, m in {**result["metrics"], **result["extra"]}.items():
        print(f"  {name} = {m['value']!r} {m['unit']}" if isinstance(m, dict) else f"  {name}: {m}")
    for line in result["failures"][:20]:
        print(f"  FAILED {line}")
    print("provenance " + json.dumps(result["provenance"]))
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: result[k] for k in keys}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "wpaoi" / "__init__.py").is_file():
        print(f"error: no wpaoi sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = []
        for name in NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
        return max(codes)
    report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
