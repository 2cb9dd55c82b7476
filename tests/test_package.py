import dataclasses
import inspect
import os
import subprocess
import sys

import wpaoi

# What the package imports from its two dependencies. These bring
# third-party modules of their own: scipy.special loads numpy.f2py, which
# loads charset_normalizer, and scipy's compiled modules register top-level
# names such as cython_runtime.
_DEPENDENCIES = ("numpy", "scipy.special", "scipy.stats")


def test_import_loads_nothing_beyond_its_dependencies():
    # Every CLI call and every new process pays for what `import wpaoi`
    # loads: past its numpy and scipy imports, only its own modules and the
    # standard library.
    script = (
        "import importlib, sys\n"
        f"for name in {_DEPENDENCIES!r}:\n"
        "    importlib.import_module(name)\n"
        "before = set(sys.modules)\n"
        "import wpaoi\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(wpaoi.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.split()
    assert "wpaoi.simulator" in loaded
    assert "wpaoi.cli" not in loaded  # the CLI loads only when it runs
    outside = [
        name
        for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names and name.partition(".")[0] != "wpaoi"
    ]
    assert outside == []


def test_public_signatures():
    # The engine has no chunk-size knob, the search no grid-size knob and a
    # run no windowing knob.
    def names(f):
        return list(inspect.signature(f).parameters)

    assert names(wpaoi.simulate) == names(wpaoi.sample_events) == ["config"]
    assert [f.name for f in dataclasses.fields(wpaoi.SimConfig)] == ["params", "horizon_slots", "seed"]
    assert names(wpaoi.optimize_capacitor) == ["params", "b_lo", "b_hi", "tol_rel"]
    assert names(wpaoi.optimize_capacitors) == ["lanes", "b_lo", "b_hi", "tol_rel"]
    # The sweeps take their values directly; no horizon means no simulation.
    assert names(wpaoi.sweep_aoi_vs_B) == ["base", "b_values", "horizon", "seed"]
    assert inspect.signature(wpaoi.sweep_aoi_vs_B).parameters["horizon"].default is None
    assert names(wpaoi.sweep_minaoi_vs_P) == ["base", "p_values", "r_values"]
    assert len(wpaoi.__all__) == len(set(wpaoi.__all__)) == 33


def test_exports_are_the_layers_own():
    # The package names no export itself: it re-exports each layer's
    # __all__, so adding or dropping a name is one edit in its layer. A name
    # two layers exported would shadow one of them without a word; it would
    # also appear twice here, which the count above refuses.
    layers = [wpaoi.analytics, wpaoi.experiments, wpaoi.model, wpaoi.optimizer, wpaoi.simulator]
    assert wpaoi.__all__ == sorted(name for layer in layers for name in layer.__all__)
    for layer in layers:
        for name in layer.__all__:
            obj = getattr(wpaoi, name)
            assert obj is vars(layer)[name]
            assert obj.__module__ == layer.__name__
