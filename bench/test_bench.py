"""Smoke test of the benchmark at tiny horizons and sizes.

Run from the root of a checkout: ``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, trace: bool, seed: int = 5) -> dict:
    return run.measure(name, seed, 0.5, trace, sizes=workloads.TINY, setup_repeats=1)


def units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("name", run.NAMES)
def test_end_to_end_metrics_present_with_units(name):
    result = tiny(name, trace=False)
    assert result["correct"] and result["failed"] == 0
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    extra = result["extra"]
    assert extra["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert ("slots_per_s" in extra) == name.startswith("mc_")
    if "op_tail_ms" in extra:
        assert int(extra["op_tail"].rsplit("=", 1)[1]) >= 20
    assert ("op_tail_ms" in extra) or name != "design_sweep"  # its tiny ops fill 0.5 s many times over
    assert all(extra[k]["unit"] == unit for k, unit in run.EXTRA_UNITS.items() if k in extra)
    assert result["provenance"]["exports"] > 0 and result["provenance"]["src_lines"] > 0


@pytest.mark.parametrize("name", run.NAMES)
def test_per_layer_metrics_present_with_units(name):
    result = tiny(name, trace=True)
    assert result["correct"]
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == units(SPEC["per_layer"])


def test_layer_counts_repeat_for_a_seed():
    first, second = (tiny("mc_reference", trace=True)["metrics"] for _ in range(2))
    counted = [k for k in first if k.startswith(("simulator.", "optimizer.")) and first[k]["unit"] in ("count", "ratio")]
    assert counted
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


def test_corrupted_monte_carlo_output_is_a_failed_op(monkeypatch):
    collect = workloads.MonteCarlo.collect

    def corrupt(self, index, raw):
        out = collect(self, index, raw)
        if index == 1:
            out["delta"] *= 2.0
        return out

    monkeypatch.setattr(workloads.MonteCarlo, "collect", corrupt)
    result = tiny("mc_reference", trace=False)
    assert result["failed"] == 1 and not result["correct"]
    assert result["extra"]["failed_frac"]["value"] == pytest.approx(1 / result["attempted"])


@pytest.mark.parametrize("seed", [4, 5])  # the corrupted op writes CSV, then JSON
def test_corrupted_cli_output_is_a_failed_op(monkeypatch, seed):
    call = workloads.DesignSweep.call

    def corrupt(self, index):
        fmt, results = call(self, index)
        if index == 1:
            path = results[2][1]  # the sweep-b output file
            with open(path) as fh:
                text = fh.read()
            if fmt == "json":
                rows = json.loads(text)
                rows[0]["delta_analytic"] *= 1.5
                text = json.dumps(rows)
            else:
                text = "".join(text.splitlines(keepends=True)[:-1])
            with open(path, "w") as fh:
                fh.write(text)
        return fmt, results

    monkeypatch.setattr(workloads.DesignSweep, "call", corrupt)
    result = tiny("design_sweep", trace=False, seed=seed)
    assert result["failed"] == 1
    assert result["extra"]["failed_frac"]["value"] == pytest.approx(1 / result["attempted"])


def test_exits_nonzero_without_the_program():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "mc_reference", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
