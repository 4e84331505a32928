"""Spans and counts around focusfl's public functions, recorded from outside.

``Tracer.install()`` replaces module attributes at the points where focusfl's
own callers look them up (``harness`` calls ``learner.client_update`` through
the ``learner`` module, ``focus_round`` through its own globals, and so on),
so every call made during an experiment is timed without editing the
package.  ``uninstall()`` puts the originals back.  Spans are kept in memory
and written out once, at the end of the benchmark run.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List

import numpy as np

from workloads import focusfl

# (span name, module, attribute).  Both round functions share one span name.
TARGETS = (
    ("learner.client_update", focusfl.learner, "client_update"),
    ("learner.accuracy", focusfl.learner, "accuracy"),
    ("federation.model_test", focusfl.federation, "model_test"),
    ("federation.aggregate", focusfl.federation, "aggregate"),
    ("federation.round", focusfl.harness, "focus_round"),
    ("federation.round", focusfl.harness, "fedavg_round"),
    ("harness.run", focusfl.harness, "run"),
    ("harness.build_scenario", focusfl.harness, "build_scenario"),
    ("harness.fl_training_loss", focusfl.harness, "fl_training_loss"),
    ("data.synth_blobs", focusfl.harness, "synth_blobs"),
    ("data.partition", focusfl.harness, "partition"),
    ("data.inject_noise", focusfl.harness, "inject_noise"),
)

ROOT_SPAN = "experiment"


def batch_rows(n: int, batch_size, steps: int) -> int:
    """Rows seen by ``steps`` SGD steps on an ``n``-row shard.

    Mirrors ``learner._batch_indices``: full batches, or one permutation per
    epoch walked in ``batch_size`` chunks with a short tail chunk.
    """
    if batch_size == "full" or batch_size >= n:
        return n * steps
    chunks = [batch_size] * (n // batch_size) + ([n % batch_size] if n % batch_size else [])
    epochs, rest = divmod(steps, len(chunks))
    return epochs * n + sum(chunks[:rest])


def sgd_flops(arch, rows: int) -> int:
    """Computed matmul FLOPs of SGD steps over ``rows`` rows in total.

    Per layer, the forward ``a @ W`` and the weight gradient ``a.T @ delta``
    each cost ``2 * rows * fan_in * fan_out``; every layer but the first also
    propagates ``delta @ W.T`` at the same cost.
    """
    dims = arch.layer_dims
    products = [dims[i] * dims[i + 1] for i in range(len(dims) - 1)]
    return 2 * rows * (2 * sum(products) + sum(products[1:]))


class Tracer:
    """Span recorder; one instance per benchmark run.

    A span is ``[name, start_ns, end_ns, parent_index, experiment]``.  Counts
    are kept per experiment under ``counts[experiment][name]``.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.experiment = -1
        self._stack: List[int] = []
        self._originals: List[tuple] = []
        self._scored: Dict[int, object] = {}

    def _open(self, name: str) -> list:
        record = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.experiment]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _count(self, name: str, args) -> None:
        counts = self.counts[self.experiment]
        if name == "learner.client_update":
            m0, d, cfg = args[:3]
            counts["learner.steps"] += cfg.local_steps
            counts["learner.flops"] += sgd_flops(m0.arch, batch_rows(d.n, cfg.batch_size, cfg.local_steps))
        elif name == "federation.model_test":
            counts["federation.model_test.rows"] += args[1].n
        elif name == "federation.aggregate":
            models = args[0]
            counts["federation.aggregate.params"] += len(models) * models[0].arch.parameter_count()
        elif name == "harness.run":
            self._scored.clear()
        elif name == "harness.fl_training_loss":
            # A pair is fresh unless the client's model equals the one last
            # scored on its shard in this run.  Models only move forward in
            # training, so that is the same as "never scored before".
            for c in args[0]:
                prev = self._scored.get(c.id)
                counts["harness.fl_training_loss.pairs"] += 1
                if prev is None or (prev is not c.local_model and not np.array_equal(prev.values, c.local_model.values)):
                    counts["harness.fl_training_loss.fresh"] += 1
                self._scored[c.id] = c.local_model

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            # Counting happens before the span opens so it is not charged
            # to the layer being measured.  It reads arguments by position.
            if kwargs:
                args = tuple(signature.bind(*args, **kwargs).arguments.values())
                kwargs = {}
            self._count(name, args)
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a missing one simply goes untraced."""
        for name, module, attr in TARGETS:
            fn = getattr(module, attr, None)
            if fn is not None:
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, experiment in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "experiment": experiment}) + "\n")

    def layer_times(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """Per experiment and span name: summed inclusive and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because everything runs on one thread.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[int, Dict[str, Dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        )
        for i, (name, start, end, _, experiment) in enumerate(self.spans):
            entry = out[experiment][name]
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[i]) / 1e9
            entry["calls"] += 1
        return out

    def durations_ms(self, name: str) -> np.ndarray:
        return np.array([(end - start) / 1e6 for n, start, end, _, _ in self.spans if n == name])

