"""The benchmark's trace points must exist in the package.

``perfbench/tracing.py`` wraps functions by module attribute and silently
skips a name that is missing, after which its per-layer report fails on an
empty span list.  This test catches a renamed or removed lookup point
without running the benchmark.  The names the benchmark calls directly,
to run experiments and to read their artifacts back, must exist too.
"""

import importlib
import inspect
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


def test_every_name_the_benchmark_calls_exists():
    import focusfl
    import focusfl.cli

    called = [
        (focusfl.harness, "run"),
        (focusfl.harness, "compare"),
        (focusfl.harness, "write_run_result"),
        (focusfl.harness, "load_metrics_csv"),
        (focusfl.harness, "load_credibility_csv"),
        (focusfl, "load_model"),
        (focusfl.cli, "main"),
    ]
    missing = [f"{module.__name__}.{attr}" for module, attr in called if not callable(getattr(module, attr, None))]
    assert missing == []


def test_traced_functions_keep_the_leading_parameters_the_tracer_reads():
    """``Tracer._count`` reads these arguments by position; a reorder would
    silently corrupt the per-layer counts."""
    import focusfl

    leading = {
        (focusfl.learner, "client_update"): ["m0", "d", "cfg"],
        (focusfl.federation, "model_test"): ["m", "d"],
        (focusfl.federation, "aggregate"): ["models", "w"],
        (focusfl.harness, "fl_training_loss"): ["clients"],
    }
    for (module, attr), names in leading.items():
        params = list(inspect.signature(getattr(module, attr)).parameters)
        assert params[: len(names)] == names, f"{module.__name__}.{attr}{params}"
