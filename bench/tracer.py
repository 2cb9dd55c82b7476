"""Spans around the calls into each layer of ``wpaoi``, recorded from outside.

Every public function of the six layer modules (the names in each module's
``__all__``) is wrapped, and the wrapper replaces the function in every
module namespace that binds it: ``wpaoi.cli.simulate``,
``wpaoi.experiments.sample_events`` and ``wpaoi.simulator.sample_events``
are separate bindings. Calls between layers, and calls inside one module
that go through its globals, therefore all produce spans.

A span is ``(span_id, parent_id, op_id, name, t0, t1, extra)`` where
``extra`` holds the counts read off the call's arguments and result at the
boundary. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import tracemalloc
from time import perf_counter

LAYERS = ("model", "analytics", "simulator", "optimizer", "experiments", "cli")


def _sample_events_counts(args, kwargs, log):
    config = args[0] if args else kwargs["config"]
    return {
        "slots": config.horizon_slots,
        "fills": int(log.fill_slots.size),
        "attempts": int(log.success.size),
        "successes": int(log.success.sum()),
    }


def _run_cli_counts(args, kwargs, code):
    argv = args[0]  # only the benchmark calls run_cli, always with argv positional
    path = argv[argv.index("--out") + 1]
    return {"bytes_out": os.path.getsize(path) if os.path.exists(path) else 0}


# Counts read at a layer boundary, by span name.
COUNTS = {
    "simulator.sample_events": _sample_events_counts,
    "optimizer.optimize_capacitor": lambda args, kwargs, res: {"evaluations": res.evaluations},
    "experiments.validation_report": lambda args, kwargs, rep: {
        "verdicts_failed": sum(not row.passed for row in rep.rows)
    },
    "cli.run_cli": _run_cli_counts,
}


class Tracer:
    """Collects spans in memory; ``op_id`` tags every span with its op."""

    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self._stack: list = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)
        # Peak traced memory is taken for this span while tracemalloc is on.
        memory = name == "simulator.sample_events"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            measure = memory and tracemalloc.is_tracing()
            if measure:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
            extra = count(args, kwargs, result) if count else {}
            if measure:
                extra["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            self.spans.append((span_id, parent, self.op_id, name, t0, t1, extra))
            return result

        return traced

    def install(self):
        """Patch every binding of every public layer function; return an undo list."""
        import wpaoi

        modules = [importlib.import_module(f"wpaoi.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        undo = []
        for module in [wpaoi, *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for module, attr, value in undo:
            setattr(module, attr, value)

    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        child = {}
        for span_id, parent, _, _, t0, t1, _ in self.spans:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        return [(t1 - t0) - child.get(span_id, 0.0) for span_id, _, _, _, t0, t1, _ in self.spans]

    def write(self, path: str, ops: list) -> None:
        """Write the op table, then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": ops}) + "\n")
            for span_id, parent, op_id, name, t0, t1, extra in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op_id, "name": name,
                         "t0": t0, "t1": t1, **extra}
                    )
                    + "\n"
                )
