"""Small differentiable classifier trained with plain mini-batch SGD.

This is the model every simulated participant trains locally: softmax
regression, optionally with tanh hidden layers.  Parameters live in a single
flat float64 vector so models can be shipped between parties and averaged
coordinatewise.  The flat layout is, per layer in order::

    [W_1 (fan_in x fan_out, row-major), b_1, W_2, b_2, ..., W_L, b_L]

so ``values[-num_classes:]`` is always the output bias.  Gradients are
computed analytically (softmax cross-entropy backprop through tanh layers);
there is no autograd dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple, Union

import numpy as np

from .errors import InvalidInputError, TrainingDivergenceError

# Probabilities are clamped here before any log so a confidently wrong
# prediction yields a large finite loss instead of an infinite one.
PROB_FLOOR = 1e-12

_REDUCTIONS = ("mean", "sum")


@dataclass(frozen=True)
class ArchSpec:
    """Shape of the classifier: input width, hidden widths, class count."""

    input_dim: int
    hidden_dims: Tuple[int, ...] = ()
    num_classes: int = 2

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if int(self.input_dim) != self.input_dim or self.input_dim < 1:
            raise InvalidInputError(f"input_dim must be a positive integer, got {self.input_dim}")
        if int(self.num_classes) != self.num_classes or self.num_classes < 2:
            raise InvalidInputError(f"num_classes must be an integer >= 2, got {self.num_classes}")
        if any(h < 1 for h in self.hidden_dims):
            raise InvalidInputError(f"hidden layer widths must be positive, got {self.hidden_dims}")

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
        values = np.asarray(self.values, dtype=np.float64)
        expected = self.arch.parameter_count()
        if values.shape != (expected,):
            raise InvalidInputError(
                f"parameter vector has shape {values.shape}, expected ({expected},) "
                f"for architecture {self.arch.layer_dims}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("parameter vector contains non-finite entries")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidInputError(f"learning_rate must be positive, got {self.learning_rate}")
        if int(self.local_steps) != self.local_steps or self.local_steps < 1:
            raise InvalidInputError(f"local_steps must be an integer >= 1, got {self.local_steps}")
        if isinstance(self.batch_size, str):
            if self.batch_size != "full":
                raise InvalidInputError(f"batch_size must be 'full' or a positive integer, got {self.batch_size!r}")
        elif int(self.batch_size) != self.batch_size or self.batch_size < 1:
            raise InvalidInputError(f"batch_size must be 'full' or a positive integer, got {self.batch_size}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed}")


def _layer_views(arch: ArchSpec, values: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector into per-layer (W, b) views without copying."""
    dims = arch.layer_dims
    views = []
    pos = 0
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = values[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        b = values[pos : pos + fan_out]
        pos += fan_out
        views.append((w, b))
    return views


def init_params(arch: ArchSpec, seed: int) -> ModelParams:
    """Draw fresh parameters for ``arch``.

    Weights are uniform on ``(-sqrt(3)/sqrt(fan_in), +sqrt(3)/sqrt(fan_in))``,
    which has zero mean and standard deviation ``1/sqrt(fan_in)``; biases start
    at zero.  The same ``(arch, seed)`` pair always yields the same vector.
    """
    if int(seed) != seed or seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(int(seed))
    dims = arch.layer_dims
    chunks = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = math.sqrt(3.0) / math.sqrt(fan_in)
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return ModelParams(arch, np.concatenate(chunks))


def forward(arch: ArchSpec, values: np.ndarray, x: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
    """Run the network on a batch; returns (layer activations, probabilities).

    The activation list starts with the input batch and contains the tanh
    output of every hidden layer, which is exactly what backprop needs.
    Softmax is computed with the usual max-shift for numerical stability.
    """
    layers = _layer_views(arch, values)
    acts = [x]
    a = x
    for w, b in layers[:-1]:
        a = np.tanh(a @ w + b)
        acts.append(a)
    w, b = layers[-1]
    logits = a @ w + b
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    return acts, probs


def cross_entropy(probs: np.ndarray, y: np.ndarray, reduction: str) -> float:
    """Negative log-likelihood of labels ``y`` under row probabilities ``probs``.

    Probabilities are clamped at ``PROB_FLOOR`` before the log, and the
    per-row losses are reduced by ``reduction`` ("mean" or "sum").  Inputs are
    not validated; callers pass arrays whose shapes already agree.
    """
    n = y.shape[0]
    loss = -float(np.log(np.clip(probs[np.arange(n), y], PROB_FLOOR, None)).sum())
    return loss / n if reduction == "mean" else loss


def _check_features(arch: ArchSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise InvalidInputError(f"feature batch has shape {x.shape}, expected (n, {arch.input_dim})")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("feature batch contains non-finite entries")
    return x


def _check_batch(arch: ArchSpec, batch) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a dataset-like batch against the architecture."""
    x = _check_features(arch, batch.features)
    y = np.asarray(batch.labels)
    if x.shape[0] == 0:
        raise InvalidInputError("batch is empty")
    if y.shape != (x.shape[0],):
        raise InvalidInputError(f"labels have shape {y.shape}, expected ({x.shape[0]},)")
    if batch.num_classes != arch.num_classes:
        raise InvalidInputError(
            f"batch has {batch.num_classes} classes but the model expects {arch.num_classes}"
        )
    return x, y


def predict_proba(m: ModelParams, x) -> np.ndarray:
    """Class probabilities for one feature vector or a batch of them.

    A 1-D input of length ``input_dim`` yields a probability vector of length
    ``num_classes``; a 2-D batch yields one row of probabilities per input
    row.  Rows are non-negative and sum to 1 up to rounding.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    arr = _check_features(m.arch, arr)
    _, probs = forward(m.arch, m.values, arr)
    return probs[0] if single else probs


def _loss_grad_arrays(
    arch: ArchSpec, values: np.ndarray, x: np.ndarray, y: np.ndarray, reduction: str
) -> Tuple[float, np.ndarray]:
    """Cross-entropy loss and its gradient for raw arrays (no validation)."""
    n = x.shape[0]
    acts, probs = forward(arch, values, x)
    loss = cross_entropy(probs, y, reduction)
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    if reduction == "mean":
        delta /= n
    layers = _layer_views(arch, values)
    grads: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(layers)  # type: ignore[list-item]
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            w, _ = layers[i]
            # d(tanh)/dz = 1 - tanh^2, and the tanh output is already in acts[i].
            delta = (delta @ w.T) * (1.0 - acts[i] ** 2)
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return loss, flat


def loss_and_grad(m: ModelParams, batch, reduction: str = "mean") -> Tuple[float, np.ndarray]:
    """Cross-entropy loss of ``m`` on ``batch`` and its gradient.

    The loss is ``-log p(y_i | x_i)`` reduced over the batch by ``reduction``
    ("mean" or "sum"), with probabilities clamped at ``PROB_FLOOR`` before the
    log.  The gradient is a flat vector aligned with ``m.values``.
    """
    if reduction not in _REDUCTIONS:
        raise InvalidInputError(f"reduction must be one of {_REDUCTIONS}, got {reduction!r}")
    x, y = _check_batch(m.arch, batch)
    if np.any(y < 0) or np.any(y >= m.arch.num_classes):
        raise InvalidInputError("batch labels fall outside the model's class range")
    return _loss_grad_arrays(m.arch, m.values, x, y.astype(np.int64), reduction)


def _batch_indices(n: int, batch_size: Union[int, str], rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield mini-batch index arrays forever.

    Full-batch mode always yields every index.  Mini-batch mode walks a fresh
    random permutation per epoch in contiguous chunks, keeping the short tail
    chunk so every sample is visited once per epoch.
    """
    if batch_size == "full" or batch_size >= n:
        full = np.arange(n)
        while True:
            yield full
    else:
        while True:
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                yield order[start : start + batch_size]


def client_update(m0: ModelParams, d, cfg: SgdConfig) -> ModelParams:
    """Run exactly ``cfg.local_steps`` SGD steps on ``d`` starting from ``m0``.

    Each step computes the mean-reduced cross-entropy gradient on the current
    mini-batch and moves parameters by ``-learning_rate * grad``.  ``m0`` is
    untouched; a fresh ``ModelParams`` is returned.  A non-finite loss or a
    non-finite parameter vector raises :class:`TrainingDivergenceError` with
    the offending step index.
    """
    x, y = _check_batch(m0.arch, d)
    if np.any(y < 0) or np.any(y >= m0.arch.num_classes):
        raise InvalidInputError("training labels fall outside the model's class range")
    y = y.astype(np.int64)
    values = m0.values.copy()
    rng = np.random.default_rng(int(cfg.seed))
    batches = _batch_indices(x.shape[0], cfg.batch_size, rng)
    for step in range(1, cfg.local_steps + 1):
        idx = next(batches)
        loss, grad = _loss_grad_arrays(m0.arch, values, x[idx], y[idx], "mean")
        if not math.isfinite(loss):
            raise TrainingDivergenceError(f"non-finite training loss at step {step}", step=step)
        values -= cfg.learning_rate * grad
    if not np.all(np.isfinite(values)):
        raise TrainingDivergenceError(
            f"non-finite parameters after step {cfg.local_steps}", step=cfg.local_steps
        )
    return ModelParams(m0.arch, values)


def accuracy(m: ModelParams, d) -> float:
    """Fraction of rows in ``d`` whose argmax prediction matches the label.

    Ties in the probability vector resolve to the lowest class index.
    """
    x, y = _check_batch(m.arch, d)
    _, probs = forward(m.arch, m.values, x)
    pred = probs.argmax(axis=1)
    return float(np.mean(pred == np.asarray(y)))
