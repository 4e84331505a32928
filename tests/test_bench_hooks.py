"""The benchmark's trace points must exist in the package.

``perfbench/tracing.py`` wraps functions by module attribute and silently
skips a name that is missing, after which its per-layer report fails on an
empty span list.  This test catches a renamed or removed lookup point
without running the benchmark.  The names the benchmark calls directly,
to run experiments and to read their artifacts back, must exist too.
"""

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_trace_target_is_a_callable_in_the_package():
    tracing = _tracing()
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


def test_every_result_attribute_the_benchmark_reads_exists():
    """``perfbench/run.py`` and ``checks.py`` read these fields and
    properties of the run results; a removed one would fail only when the
    benchmark runs."""
    from focusfl.federation import CredReport, MessageRecord
    from focusfl.harness import ComparisonReport, RoundMetrics, RunResult

    read = {
        RunResult: ["config", "metrics", "final_model", "final_weights", "messages", "final_accuracy"],
        RoundMetrics: ["round", "test_accuracy", "fl_loss", "cred"],
        CredReport: ["client_ids", "ls", "ll", "e", "c", "w"],
        MessageRecord: ["direction", "param_count", "scalar_count"],
        ComparisonReport: ["result_a", "result_b"],
    }
    missing = [
        f"{cls.__name__}.{name}"
        for cls, names in read.items()
        for name in names
        if name not in {f.name for f in dataclasses.fields(cls)}
        and not isinstance(getattr(cls, name, None), property)
    ]
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


def test_each_aggregator_calls_its_round_function_through_harness(monkeypatch):
    """The tracer times ``federation.round`` by wrapping the round functions
    on ``harness``; a run that called the engine some other way would leave
    that span empty."""
    from focusfl import harness

    calls = {}
    for name in ("focus_round", "fedavg_round", "local_baseline_round"):
        real = getattr(harness, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    small = dict(samples_per_class=30, hidden_dims=(), local_steps=2, rounds=3)
    for aggregator in harness.AGGREGATORS:
        calls.clear()
        harness.run(harness.ExperimentConfig(aggregator=aggregator, **small))
        assert calls == {f"{aggregator}_round": 3}


def test_a_focus_run_calls_every_target_the_per_layer_report_reads_by_key(monkeypatch):
    """``perfbench/run.py``'s per-layer report reads the counts of these
    spans by key, so a run that stopped calling one of them through its
    module attribute (a captured ``client_update``, say) fails trace 1 with
    a ``KeyError`` rather than a number."""
    from focusfl import harness

    calls = {}
    for name, module, attr in _tracing().TARGETS:
        real = getattr(module, attr)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    harness.run(harness.ExperimentConfig(samples_per_class=30, local_steps=2, rounds=2))
    read = ("learner.client_update", "federation.model_test", "federation.aggregate", "harness.fl_training_loss")
    assert {name: calls.get(name, 0) > 0 for name in read} == dict.fromkeys(read, True)
