"""The benchmark's trace points must exist in the package.

``perfbench/tracing.py`` wraps functions by module attribute and silently
skips a name that is missing, after which its per-layer report fails on an
empty span list.  This test catches a renamed or removed lookup point
without running the benchmark.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_is_a_callable_in_the_package():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
    assert tracing.TARGETS
    missing = [
        f"{module.__name__}.{attr}"
        for _, module, attr in tracing.TARGETS
        if not (module.__name__.startswith("focusfl.") and callable(getattr(module, attr, None)))
    ]
    assert missing == []
