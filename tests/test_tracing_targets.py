"""The benchmark's traced run wraps ontosearch names from outside; they must exist.

`bench/tracing.py` skips a target it cannot find, and the layer metrics
that depend on it read 0, so a renamed or deleted function would show up
only as a silent zero in the benchmark. This test loads that module
unchanged and checks each of its targets.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    targets = load_tracing().Tracer()._targets()
    assert targets
    missing = [f"{module}.{attr}" for module, attr, *_ in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
