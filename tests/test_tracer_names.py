"""The benchmark's tracer binds ``ospq`` functions and methods by name when it
is installed; a name missing from the package crashes every traced run."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # imports ospq and with it every module
    return tracer


def test_every_name_the_tracer_binds_exists():
    tracer = _tracer()
    missing = [(mod, attr) for mod, attr, _ in tracer.LAYERS
               if not callable(getattr(sys.modules["ospq." + mod], attr, None))]
    missing += [(cls.__name__, attr) for cls, attr, _ in tracer.METHODS
                if attr not in cls.__dict__]
    assert not missing


def test_every_traced_function_is_an_object_of_its_own():
    # the tracer rebinds by object identity: a function bound under two traced
    # names, or also under a private name that the package calls (an alias
    # such as _mul = qs_mul), would be traced under one group for both
    tracer = _tracer()
    traced = {}
    for mod, attr, _ in tracer.LAYERS:
        traced.setdefault(id(getattr(sys.modules["ospq." + mod], attr)), []).append(attr)
    assert [names for names in traced.values() if len(names) > 1] == []
    private = sorted("%s.%s" % (name, attr) for name, mod in sys.modules.items()
                     if mod is not None and (name == "ospq" or name.startswith("ospq."))
                     for attr, value in vars(mod).items()
                     if attr.startswith("_") and id(value) in traced)
    assert private == []
