"""The benchmark's tracer binds ``ospq`` functions and methods by name when it
is installed; a name missing from the package crashes every traced run."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_name_the_tracer_binds_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # imports ospq and with it every module
    missing = [(mod, attr) for mod, attr, _ in tracer.LAYERS
               if not callable(getattr(sys.modules["ospq." + mod], attr, None))]
    missing += [(cls.__name__, attr) for cls, attr, _ in tracer.METHODS
                if attr not in cls.__dict__]
    assert not missing
