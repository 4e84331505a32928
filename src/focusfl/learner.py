"""Small differentiable classifier trained with plain mini-batch SGD.

This is the model every simulated participant trains locally: softmax
regression, optionally with tanh hidden layers.  Parameters live in a single
flat float64 vector so models can be shipped between parties and averaged
coordinatewise.  The flat layout is, per layer in order::

    [W_1 (fan_in x fan_out, row-major), b_1, W_2, b_2, ..., W_L, b_L]

so ``values[-num_classes:]`` is always the output bias.  Gradients are
computed analytically (softmax cross-entropy backprop through tanh layers);
there is no autograd dependency.

Local SGD (:func:`client_update`) and every forward pass over a dataset
(:func:`accuracy` and ``federation``'s scoring) compute in float32, casting
once on the way in.  What they return is float64, and so are the parameter
vectors and :func:`predict_proba` and :func:`loss_and_grad` on a
``ModelParams``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .data import Dataset
from .errors import InvalidInputError, TrainingDivergenceError, as_int, as_items, as_positive, frozen_f64

# Probabilities are clamped here before any log so a confidently wrong
# prediction yields a large finite loss instead of an infinite one.
PROB_FLOOR = 1e-12

_REDUCTIONS = ("mean", "sum")


def _as_width(name: str, value) -> int:
    return as_int(name, value, 1)


@dataclass(frozen=True)
class ArchSpec:
    """Shape of the classifier: input width, hidden widths, class count."""

    input_dim: int
    hidden_dims: Tuple[int, ...] = ()
    num_classes: int = 2

    def __post_init__(self):
        object.__setattr__(self, "input_dim", as_int("input_dim", self.input_dim, 1))
        object.__setattr__(self, "hidden_dims", as_items("hidden_dims", self.hidden_dims, _as_width))
        object.__setattr__(self, "num_classes", as_int("num_classes", self.num_classes, 2))

    @property
    def layer_dims(self) -> Tuple[int, ...]:
        """Widths of every layer boundary, input first, classes last."""
        return (self.input_dim, *self.hidden_dims, self.num_classes)

    def parameter_count(self) -> int:
        """Total number of scalar parameters (weights plus biases)."""
        dims = self.layer_dims
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


@dataclass(frozen=True)
class ModelParams:
    """A flat float64 parameter vector bound to the architecture it fits.

    The vector is defensively copied and frozen on construction, so a
    ``ModelParams`` can be shared between parties without aliasing surprises.
    """

    arch: ArchSpec
    values: np.ndarray

    def __post_init__(self):
        values = frozen_f64(self.values, "parameter vector", 1)
        expected = self.arch.parameter_count()
        if values.shape != (expected,):
            raise InvalidInputError(
                f"parameter vector has shape {values.shape}, expected ({expected},) "
                f"for architecture {self.arch.layer_dims}"
            )
        object.__setattr__(self, "values", values)

    def __reduce__(self):
        # Unpickle through the constructor, so the vector comes back frozen.
        return (type(self), (self.arch, self.values))


@dataclass(frozen=True)
class SgdConfig:
    """Hyperparameters for one local training call.

    ``batch_size`` is either a positive integer or the string ``"full"`` for
    full-batch gradient steps.  ``local_steps`` counts SGD steps, not epochs.
    """

    learning_rate: float
    local_steps: int
    batch_size: Union[int, str] = "full"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "learning_rate", as_positive("learning_rate", self.learning_rate))
        object.__setattr__(self, "local_steps", as_int("local_steps", self.local_steps, 1))
        if isinstance(self.batch_size, str):
            if self.batch_size != "full":
                raise InvalidInputError(f"batch_size must be 'full' or a positive integer, got {self.batch_size!r}")
        else:
            object.__setattr__(self, "batch_size", as_int("batch_size", self.batch_size, 1))
        object.__setattr__(self, "seed", as_int("seed", self.seed, 0))


def _layer_views(arch: ArchSpec, values: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector into per-layer (W, b) views without copying.

    A ``(G, P)`` stack of vectors gives ``(G, fan_in, fan_out)`` weights and
    ``(G, 1, fan_out)`` biases, which broadcast over each slice's rows.
    """
    dims, lead = arch.layer_dims, values.shape[:-1]
    views = []
    pos = 0
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = values[..., pos : pos + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        pos += fan_in * fan_out
        b = values[..., pos : pos + fan_out]
        pos += fan_out
        views.append((w, b[:, None] if lead else b))
    return views


def init_params(arch: ArchSpec, seed: int) -> ModelParams:
    """Draw fresh parameters for ``arch``.

    Weights are uniform on ``(-sqrt(3)/sqrt(fan_in), +sqrt(3)/sqrt(fan_in))``,
    which has zero mean and standard deviation ``1/sqrt(fan_in)``; biases start
    at zero.  The same ``(arch, seed)`` pair always yields the same vector.
    """
    rng = np.random.default_rng(as_int("seed", seed, 0))
    dims = arch.layer_dims
    chunks = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = math.sqrt(3.0) / math.sqrt(fan_in)
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return ModelParams(arch, np.concatenate(chunks))


def _forward_into(layers, x: np.ndarray, outs: List[np.ndarray], shift: np.ndarray) -> np.ndarray:
    """Forward pass writing into ``outs``; returns the probabilities, ``outs[-1]``.

    ``outs`` holds one ``(rows, width)`` array per layer: the tanh output of
    each hidden layer, then the softmax (computed with the usual max-shift).
    ``shift`` is ``(rows,)`` scratch for the row maxima and normalisers.  A
    ``(G, rows, dim)`` stack ``x``, with ``layers`` from a stack of vectors,
    ``(G, rows, width)`` outputs and ``(G, rows)`` scratch, runs G passes at
    once: each slice is its own product of the lone pass's shape, and its
    row sums and maxima are the lone pass's, so it gets the lone bits.
    """
    a = x
    for (w, b), out in zip(layers[:-1], outs):
        np.matmul(a, w, out=out)
        out += b
        a = np.tanh(out, out=out)
    w, b = layers[-1]
    probs = outs[-1]
    np.matmul(a, w, out=probs)
    probs += b
    # The row max, taken column by column: the class axis is only a few
    # entries wide, and one elementwise call per column costs far less than
    # a reduction along it.  max is exact, so this equals probs.max(axis=-1).
    np.maximum(probs[..., 0], probs[..., 1], out=shift)
    for j in range(2, probs.shape[-1]):
        np.maximum(shift, probs[..., j], out=shift)
    probs -= shift[..., None]
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, out=shift)[..., None]
    return probs


def forward(arch: ArchSpec, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities of the network for the batch ``x``, in fresh arrays.

    The arrays have the dtype of ``values``; ``x`` should share it.  A
    ``(G, P)`` stack of vectors and a ``(G, rows, dim)`` stack of batches
    give ``(G, rows, classes)`` probabilities (see :func:`_forward_into`).
    """
    dtype, rows = values.dtype, x.shape[:-1]
    outs = [np.empty((*rows, width), dtype) for width in arch.layer_dims[1:]]
    return _forward_into(_layer_views(arch, values), x, outs, np.empty(rows, dtype))


def _forward32(arch: ArchSpec, values: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Float32 class probabilities of the parameters ``values`` on the rows of ``features``.

    ``values`` and ``features`` are one vector and one ``(rows, dim)``
    table, or stacks of them as :func:`forward` takes.  Raises
    :class:`InvalidInputError` when a parameter lies beyond float32's range,
    since the cast would make it infinite and every score ``nan``.  Nothing
    else is validated.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects what overflows
        values = values.astype(np.float32)
    if not np.isfinite(values).all():
        raise InvalidInputError("model parameters lie beyond float32's range and cannot be scored")
    return forward(arch, values, features.astype(np.float32))


def cross_entropy(probs: np.ndarray, y: np.ndarray, reduction: str) -> Union[float, List[float]]:
    """Negative log-likelihood of labels ``y`` under row probabilities ``probs``.

    The label column's probabilities are cast to float64 and clamped at
    ``PROB_FLOOR`` before the log, whatever the dtype of ``probs``, and the
    per-row losses are reduced by ``reduction`` ("mean" or "sum") into a
    Python float.  A ``(G, rows, classes)`` stack with ``(G, rows)`` labels
    gives a list of G floats, each the lone call's on its slice, bit for
    bit.  Inputs are not validated; callers pass arrays whose shapes
    already agree.
    """
    n = y.shape[-1]
    picked = probs.reshape(-1, probs.shape[-1])[np.arange(y.size), y.ravel()].reshape(y.shape)
    loss = -np.log(np.maximum(picked.astype(np.float64, copy=False), PROB_FLOOR)).sum(axis=-1)
    return (loss / n if reduction == "mean" else loss).tolist()


def check_reduction(reduction: str) -> None:
    """Raise unless ``reduction`` is "mean" or "sum"."""
    if reduction not in _REDUCTIONS:
        raise InvalidInputError(f"reduction must be one of {_REDUCTIONS}, got {reduction!r}")


def check_fits(arch: ArchSpec, d: Dataset, what: str) -> None:
    """Raise unless ``d`` (named ``what``) is non-empty and matches ``arch``'s width and classes.

    A :class:`Dataset` already guarantees finite features and labels in its
    class range, so nothing else about the data needs checking.
    """
    if d.n < 1:
        raise InvalidInputError(f"{what} is empty")
    if d.dim != arch.input_dim or d.num_classes != arch.num_classes:
        raise InvalidInputError(
            f"{what} has {d.dim} features and {d.num_classes} classes, but the model "
            f"expects {arch.input_dim} features and {arch.num_classes} classes"
        )


def predict_proba(m: ModelParams, x) -> np.ndarray:
    """Class probabilities for one raw feature vector or a batch of them.

    A 1-D input of length ``input_dim`` yields a probability vector of length
    ``num_classes``; a 2-D batch yields one row of probabilities per input
    row.  Rows are non-negative and sum to 1 up to rounding.
    """
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # a string, or a ragged nesting
        raise InvalidInputError(f"feature batch must hold real numbers: {exc}") from None
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != m.arch.input_dim:
        raise InvalidInputError(f"feature batch has shape {arr.shape}, expected (n, {m.arch.input_dim})")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("feature batch contains non-finite entries")
    probs = forward(m.arch, m.values, arr)
    return probs[0] if single else probs


def _one_hot(labels: np.ndarray, num_classes: int, dtype) -> np.ndarray:
    """``(n, num_classes)`` rows of ``dtype`` with a 1.0 in each label's column."""
    onehot = np.zeros((labels.shape[0], num_classes), dtype)
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    return onehot


def _backward_into(layers, grad_layers, x, onehot, outs, backs, reduction: str) -> None:
    """Cross-entropy gradient of one batch, written into ``grad_layers``.

    ``outs`` holds the batch's forward pass (see :func:`_forward_into`) and
    ``onehot`` its labels; ``backs`` is scratch, one array per hidden layer.
    The probabilities and hidden outputs in ``outs`` are overwritten.
    ``layers``/``grad_layers`` are (W, b) views of the parameter and gradient
    vectors.  Nothing is validated.
    """
    delta = outs[-1]
    delta -= onehot  # exact: p - 0.0 == p off the label column
    if reduction == "mean":
        delta /= x.shape[0]
    acts = [x, *outs[:-1]]
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        np.matmul(acts[i].T, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if i > 0:
            # d(tanh)/dz = 1 - tanh^2, from the tanh output in acts[i], which
            # nothing reads after this step.
            a = np.square(acts[i], out=acts[i])
            np.subtract(1.0, a, out=a)
            delta = np.matmul(delta, layers[i][0].T, out=backs[i - 1])
            delta *= a


def loss_and_grad(m: ModelParams, batch: Dataset, reduction: str = "mean") -> Tuple[float, np.ndarray]:
    """Cross-entropy loss of ``m`` on ``batch`` and its gradient.

    The loss is ``-log p(y_i | x_i)`` reduced over the batch by ``reduction``
    ("mean" or "sum"), with probabilities clamped at ``PROB_FLOOR`` before the
    log.  The gradient is a flat vector aligned with ``m.values``.

    The passes compute in the dtype of ``m.values``, and the loss's log in
    float64 (see :func:`cross_entropy`).  A ``ModelParams`` is always
    float64; an object whose values are float32 replays one step of
    :func:`client_update`, and the loss ``federation.model_test`` scores,
    exactly.
    """
    check_reduction(reduction)
    check_fits(m.arch, batch, "batch")
    arch, n, dtype = m.arch, batch.n, m.values.dtype
    x = batch.features.astype(dtype, copy=False)
    grad = np.empty(arch.parameter_count(), dtype)
    outs = [np.empty((n, width), dtype) for width in arch.layer_dims[1:]]
    backs = [np.empty((n, h), dtype) for h in arch.hidden_dims]
    layers, grad_layers = _layer_views(arch, m.values), _layer_views(arch, grad)
    probs = _forward_into(layers, x, outs, np.empty(n, dtype))
    loss = cross_entropy(probs, batch.labels, reduction)
    onehot = _one_hot(batch.labels, arch.num_classes, dtype)
    _backward_into(layers, grad_layers, x, onehot, outs, backs, reduction)
    return loss, grad


def _minibatches(features, onehot, batch_size: int, rng: np.random.Generator):
    """Yield ``(features, onehot)`` mini-batches forever.

    Each epoch walks a fresh random permutation in contiguous chunks, keeping
    the short tail chunk so every sample is visited once per epoch.  Every
    batch is gathered into the same two buffers; a short chunk fills their
    leading rows.
    """
    n = features.shape[0]
    x_buf = np.empty((batch_size, features.shape[1]), features.dtype)
    t_buf = np.empty((batch_size, onehot.shape[1]), onehot.dtype)
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            rows = idx.size
            # mode="clip" only spares np.take the copy "raise" makes; idx is in range.
            yield (
                np.take(features, idx, axis=0, out=x_buf[:rows], mode="clip"),
                np.take(onehot, idx, axis=0, out=t_buf[:rows], mode="clip"),
            )


def step_rows(cfg: SgdConfig, n: int) -> int:
    """Rows of one :func:`client_update` step of ``cfg`` on an ``n``-row shard."""
    return n if cfg.batch_size == "full" else min(cfg.batch_size, n)


class StepBuffers:
    """Float32 scratch for :func:`client_update` steps of up to ``rows`` rows on ``arch``.

    One ``(rows, width)`` array per layer for the forward pass, one per
    hidden layer for the backward pass, and the softmax's ``(rows,)``.  A
    caller that trains many shards allocates one and passes it to every
    call on one thread, so the calls map no fresh pages.
    """

    def __init__(self, arch: ArchSpec, rows: int):
        self.arch, self.rows = arch, as_int("rows", rows, 1)
        self.outs = [np.empty((self.rows, width), np.float32) for width in arch.layer_dims[1:]]
        self.backs = [np.empty((self.rows, h), np.float32) for h in arch.hidden_dims]
        self.shift = np.empty(self.rows, np.float32)


def client_update(
    m0: ModelParams, d: Dataset, cfg: SgdConfig, scratch: Optional[StepBuffers] = None
) -> ModelParams:
    """Run exactly ``cfg.local_steps`` SGD steps on ``d`` starting from ``m0``.

    Each step computes the mean-reduced cross-entropy gradient on the current
    mini-batch and moves parameters by ``-learning_rate * grad``.  Full-batch
    mode (also any ``batch_size >= d.n``) uses every row on every step;
    mini-batch mode walks a seeded random permutation per epoch.  ``m0`` is
    untouched; a fresh ``ModelParams`` is returned.  A non-finite loss or a
    non-finite parameter vector raises :class:`TrainingDivergenceError` with
    the offending step index.

    The steps compute in float32: the parameters, features and one-hot
    labels are cast once on the way in, and the result once back to float64
    on the way out.  Parameters beyond float32's range (about 3.4e38) become
    infinite in that cast, so training from them raises
    :class:`TrainingDivergenceError`.

    The steps write into ``scratch``, a :class:`StepBuffers` for ``m0.arch``
    of at least :func:`step_rows` rows, which no other thread may use
    during the call; without one, the call allocates its own.  The result
    does not depend on which buffers the steps used.
    """
    check_fits(m0.arch, d, "training set")
    arch = m0.arch
    rows = step_rows(cfg, d.n)
    if scratch is not None and (scratch.arch != arch or scratch.rows < rows):
        raise InvalidInputError(
            f"scratch holds {scratch.rows} rows for {scratch.arch.layer_dims}, "
            f"but steps need {rows} rows for {arch.layer_dims}"
        )
    # Overflow leaves inf or nan, which the checks below raise as divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        values = m0.values.astype(np.float32)
        features = d.features.astype(np.float32)
        onehot = _one_hot(d.labels, arch.num_classes, np.float32)
        grad = np.empty_like(values)
        layers, grad_layers = _layer_views(arch, values), _layer_views(arch, grad)
        # Steps reuse these buffers rather than allocate temporaries; a step
        # of fewer rows than they hold uses their leading rows.
        scratch = StepBuffers(arch, rows) if scratch is None else scratch
        full = rows == d.n
        if full:
            batches = itertools.repeat((features, onehot))
        else:
            batches = _minibatches(features, onehot, rows, np.random.default_rng(cfg.seed))
        for step in range(1, cfg.local_steps + 1):
            x, t = next(batches)
            n = x.shape[0]
            step_outs, step_backs = scratch.outs, scratch.backs
            if n < scratch.rows:
                step_outs, step_backs = [o[:n] for o in step_outs], [b[:n] for b in step_backs]
            _forward_into(layers, x, step_outs, scratch.shift[:n])
            _backward_into(layers, grad_layers, x, t, step_outs, step_backs, "mean")
            # Every row adds into the last output-bias gradient, and a softmax
            # row is either all finite or all nan, so this entry is finite
            # exactly when the batch loss is.
            if not math.isfinite(grad[-1]):
                raise TrainingDivergenceError(f"non-finite training loss at step {step}", step=step)
            grad *= cfg.learning_rate
            values -= grad
        if not np.all(np.isfinite(values)):
            raise TrainingDivergenceError(
                f"non-finite parameters after step {cfg.local_steps}", step=cfg.local_steps
            )
    return ModelParams(arch, values)


def accuracy(m: ModelParams, d: Dataset) -> float:
    """Fraction of rows in ``d`` whose argmax prediction matches the label.

    The forward pass runs in float32, the parameters and features cast once
    on the way in.  Ties in the probability vector resolve to the lowest
    class index.
    """
    check_fits(m.arch, d, "dataset")
    return float(np.mean(_forward32(m.arch, m.values, d.features).argmax(axis=1) == d.labels))
