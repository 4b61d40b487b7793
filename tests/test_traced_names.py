"""The benchmark's tracer (``sweepbench/tracer.py``) wraps program functions
by name, reading each with ``getattr`` and no default; a name it reads that
the program no longer has breaks every traced benchmark run.  These tests
load the tracer read-only, without installing it, and check its names."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "sweepbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("sweepbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _missing(mod, qual: str) -> bool:
    owner = mod
    for part in qual.split("."):
        if not hasattr(owner, part):
            return True
        owner = getattr(owner, part)
    return False


def test_every_name_the_tracer_wraps_resolves():
    tracer = _load_tracer()
    missing = []
    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"paramsweep.{layer}")
        for qual in (*mod.__all__, *tracer.EXTRA.get(layer, ())):
            if _missing(mod, qual):
                missing.append(f"paramsweep.{layer}.{qual}")
    assert missing == []
