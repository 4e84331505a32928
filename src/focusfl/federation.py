"""Federated rounds: credibility scoring, weighted aggregation, FedAvg.

One round engine serves both aggregators.  A focus round does, in order:

1. broadcast the global model; every participant runs local SGD on its shard;
2. the server aggregates the returned models using the weights computed at
   the *previous* round (stale-weight schedule);
3. the server scores each returned model on its benchmark set (``LS``), and
   each participant scores the fresh global model on its own shard and
   reports that single scalar back (``LL``);
4. the server forms the mutual cross-entropy ``E = LS + LL`` per client,
   turns it into credibilities ``C = 1 - softmax(alpha * E)``, and computes
   the weights ``W_k = n_k C_k / sum_i n_i C_i`` to be used next round.

FedAvg (:func:`fedavg_round`) is the same round with scoring off: steps 3
and 4 are skipped, step 2 uses the participants' sample-proportional weights
``n_k / sum n``, and the stored weights never change.  A participant
exchanges two logical messages per round: one model down, and one model up,
which carries ``LL`` under focus; the rounds log nothing, and
``harness.RunResult.messages`` derives the log.
"""

from __future__ import annotations

import contextvars
import functools
import struct
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import learner
from .data import Dataset
from .errors import DegenerateCredibilityError, InvalidInputError, RoundError, TrainingDivergenceError
from .errors import as_bool, as_int, as_items, as_path, as_positive, frozen_f64
from .learner import ArchSpec, ModelParams, SgdConfig

# Magic prefix of the binary model checkpoint container (version 1).
MODEL_MAGIC = b"FOCUSMP1"

AGGREGATORS = ("focus", "fedavg")

# Rows per SGD step times the widest layer, from which a round trains its
# participants on parallel lanes.  Below it the steps are short NumPy calls
# that hand the GIL back and forth.  Training 8 shards of 10 full-batch steps
# (dim 32, OpenBLAS at one thread) on two lanes of a 2-core host ran
# 0.50-0.56x as fast as one lane at 12,800, 1.0-1.4x at 65,536, 1.3-1.5x at
# 102,400 and 1.6-2.1x at 213,504; the crossover lies below 50,560.
LANE_MIN_WORK = 1 << 16

# Cores a round may train on, one lane each: 1 unless harness.run sets it
# while OpenBLAS computes on one thread, under which lanes change no output.
_CORES = contextvars.ContextVar("cores", default=1)


@dataclass(frozen=True)
class ClientState:
    """One participant: an id, its private shard, and its latest local model.

    ``loss`` is kept once known: the state and its arrays are frozen, so it
    cannot go stale.  A round scores it for each state it makes, with the
    other participants' in stacked passes; any other state scores it on
    first read.
    """

    id: int
    data: Dataset
    local_model: ModelParams

    def __post_init__(self):
        object.__setattr__(self, "id", as_int("id", self.id))
        learner.check_fits(self.local_model.arch, self.data, f"client {self.id} shard")

    @property
    def n_k(self) -> int:
        """Sample count of this client's shard."""
        return self.data.n

    @functools.cached_property
    def loss(self) -> float:
        """Mean cross-entropy of this client's local model on its own shard."""
        return _scores([self.local_model], [self.data], "mean")[0]


@dataclass(frozen=True)
class ServerState:
    """The server side of the protocol between rounds.

    ``weights`` is a per-client vector aligned with the client list by
    position, and always sums to 1; ``round`` counts completed rounds (0
    before any round has run).  ``standardize_e`` selects whether mutual
    cross-entropies are divided by their per-round mean before the softmax
    (the default) or fed in raw.
    """

    global_model: ModelParams
    benchmark: Dataset
    weights: np.ndarray
    alpha: float = 1.0
    reduction: str = "mean"
    standardize_e: bool = True
    round: int = 0

    def __post_init__(self):
        weights = frozen_f64(self.weights, "weights", 1)
        if weights.size < 1:
            raise InvalidInputError("weights must be non-empty")
        if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > 1e-9:
            raise InvalidInputError(
                f"weights must be non-negative and sum to 1, got sum {weights.sum()!r}"
            )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "alpha", as_positive("alpha", self.alpha))
        learner.check_reduction(self.reduction)
        object.__setattr__(self, "standardize_e", as_bool("standardize_e", self.standardize_e))
        object.__setattr__(self, "round", as_int("round", self.round, 0))
        learner.check_fits(self.global_model.arch, self.benchmark, "benchmark set")

    @property
    def num_clients(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class CredReport:
    """Per-client scoring record produced by one "focus" round.

    Arrays are aligned with ``client_ids`` (the positions of that round's
    participants).  ``e`` is exactly ``ls + ll``; ``w`` holds the stored
    next-round weights, which sum to 1 when every client participated.
    """

    client_ids: Tuple[int, ...]
    ls: np.ndarray
    ll: np.ndarray
    e: np.ndarray
    c: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        ids = as_items("client_ids", self.client_ids, as_int)
        object.__setattr__(self, "client_ids", ids)
        for name in ("ls", "ll", "e", "c", "w"):
            arr = frozen_f64(getattr(self, name), name, 1)
            if arr.shape != (len(ids),):
                raise InvalidInputError(f"{name} has shape {arr.shape}, expected ({len(ids)},)")
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        # Unpickle through the constructor, so the arrays come back frozen.
        return (type(self), (self.client_ids, self.ls, self.ll, self.e, self.c, self.w))


@dataclass(frozen=True)
class MessageRecord:
    """One logical protocol message, for communication accounting.

    ``param_count`` is the number of model parameters carried;
    ``scalar_count`` is the number of extra standalone scalars (the local
    cross-entropy report rides up with the model as one scalar).
    """

    round: int
    direction: str  # "down" (server -> client) or "up" (client -> server)
    client: int
    param_count: int
    scalar_count: int


def model_test(m: ModelParams, d: Dataset, reduction: str = "mean") -> float:
    """Cross-entropy of model ``m`` on dataset ``d``.

    Computes ``-log p(y_i | x_i)`` with probabilities clamped at
    ``learner.PROB_FLOOR``, reduced by ``reduction`` ("mean" averages over
    rows, "sum" adds them up).  This is the scoring primitive used both
    server-side (benchmark) and client-side (own shard).

    The forward pass runs in float32, the parameters and features cast once
    on the way in; the log and the reduction run in float64, so the floor
    is exactly ``PROB_FLOOR`` and the score is a float64 Python float.  A
    round scores the small pairs of ``LL`` and the own-shard losses in
    stacked passes (``_scores``) that give these bits, and calls this
    function for the benchmark's ``LS`` and for each pair it does not stack.
    """
    learner.check_reduction(reduction)
    learner.check_fits(m.arch, d, "scored dataset")
    return learner.cross_entropy(learner._forward32(m.arch, m.values, d.features), d.labels, reduction)


def _scores(models: Sequence[ModelParams], datasets: Sequence[Dataset], reduction: str) -> List[float]:
    """``[model_test(m, d, reduction) for m, d in zip(models, datasets)]``, bit for bit, in fewer passes.

    Pairs whose datasets have equal row counts share one ``(G, rows, width)``
    float32 forward pass while G x rows x the widest layer stays below
    :data:`LANE_MIN_WORK`, the line under which ``_train`` finds a step
    dispatch-bound; a pair left alone, at or above it, calls
    :func:`model_test`.  Each slice of a stack is its own product of the
    lone call's shape, so no score depends on the pairs beside it.  The
    models share one architecture and the datasets fit it, as a round's do;
    that is not checked again.
    """
    arch = models[0].arch
    groups = {}
    for j, d in enumerate(datasets):
        groups.setdefault(d.n, []).append(j)
    out = [0.0] * len(models)
    for rows, idx in groups.items():
        size = max(1, (LANE_MIN_WORK - 1) // (rows * max(arch.layer_dims)))
        for stack in (idx[i : i + size] for i in range(0, len(idx), size)):
            if len(stack) == 1:
                out[stack[0]] = model_test(models[stack[0]], datasets[stack[0]], reduction)
                continue
            values = np.stack([models[j].values for j in stack])
            features = np.stack([datasets[j].features for j in stack])
            labels = np.stack([datasets[j].labels for j in stack])
            probs = learner._forward32(arch, values, features)
            for j, loss in zip(stack, learner.cross_entropy(probs, labels, reduction)):
                out[j] = loss
    return out


def credibilities(e, alpha: float = 1.0) -> np.ndarray:
    """Map evaluation scores to credibilities: ``C = 1 - softmax(alpha * e)``.

    Higher ``e`` (worse agreement) means lower credibility.  The softmax is
    computed with the usual max-shift; when every score is equal the result
    is exactly ``1 - 1/K`` per client.  A single client is fully credible
    (``C = (1,)``) since there is no one to compare against.  An ``alpha * e``
    beyond the float64 range raises :class:`DegenerateCredibilityError`.
    """
    e = frozen_f64(e, "e", 1)
    if e.size == 0:
        raise InvalidInputError("e must be non-empty")
    alpha = as_positive("alpha", alpha)
    if e.size == 1:
        return np.ones(1)
    with np.errstate(over="ignore"):  # a shifted score below the float64 range is rightly -inf
        z = alpha * e
        if not np.all(np.isfinite(z)):
            raise DegenerateCredibilityError(f"alpha * e overflows float64 at alpha={alpha!r}")
        z = z - z.max()
    s = np.exp(z)
    s = s / s.sum()
    return 1.0 - s


def aggregation_weights(n, c) -> np.ndarray:
    """Sample-size-and-credibility weights ``W_k = n_k C_k / sum_i n_i C_i``.

    When all credibilities are equal this reduces exactly to the
    sample-proportional FedAvg weights ``n_k / sum_i n_i`` (the equal factor
    is cancelled symbolically, not numerically).  If every product is zero
    the weights are undefined and :class:`DegenerateCredibilityError` is
    raised.
    """
    n = frozen_f64(n, "sample counts", 1)
    c = frozen_f64(c, "credibilities", 1)
    if n.shape != c.shape or n.size == 0:
        raise InvalidInputError(
            f"n {n.shape} and c {c.shape} must be equal-length non-empty vectors"
        )
    if np.any(n <= 0) or np.any(n != np.floor(n)):
        raise InvalidInputError("sample counts must be positive integers")
    if np.any(c < 0):
        raise InvalidInputError("credibilities must be non-negative")
    raw = n * c
    denom = float(raw.sum())
    if denom <= 0.0:
        raise DegenerateCredibilityError(
            f"all {n.size} credibility-weighted sample counts are zero; weights are undefined"
        )
    if np.all(c == c[0]):
        return n / n.sum()
    return raw / denom


def aggregate(models: Sequence[ModelParams], w) -> ModelParams:
    """Coordinatewise convex combination of parameter vectors.

    All models must share one architecture; ``w`` must be non-negative and
    sum to 1 (within 1e-6).  Every output coordinate lies between the
    per-coordinate min and max of the inputs.
    """
    if not models:
        raise InvalidInputError("aggregate requires at least one model")
    arch = models[0].arch
    if any(m.arch != arch for m in models):
        raise InvalidInputError("all models must share one architecture")
    w = frozen_f64(w, "aggregation weights", 1)
    if w.shape != (len(models),):
        raise InvalidInputError(f"w has shape {w.shape}, expected ({len(models)},)")
    if np.any(w < 0):
        raise InvalidInputError("aggregation weights must be non-negative")
    if abs(float(w.sum()) - 1.0) > 1e-6:
        raise InvalidInputError(f"aggregation weights must sum to 1, got {w.sum()!r}")
    stacked = np.stack([m.values for m in models])
    return ModelParams(arch, (w[:, None] * stacked).sum(axis=0))


def _check_round_args(
    server: ServerState, clients: Sequence[ClientState], participants: Optional[Sequence[int]]
) -> Tuple[int, ...]:
    if len(clients) != server.num_clients:
        raise InvalidInputError(
            f"server tracks {server.num_clients} clients but {len(clients)} were given"
        )
    # Each ClientState's shard already fits its model; only the models must match.
    arch = server.global_model.arch
    for c in clients:
        if c.local_model.arch != arch:
            raise InvalidInputError(f"client {c.id} model architecture differs from the global model")
    if participants is None:
        return tuple(range(len(clients)))
    part = tuple(sorted(as_items("participants", participants, as_int)))
    if not part or len(set(part)) != len(part):
        raise InvalidInputError(f"participants must be non-empty and unique, got {participants}")
    if part[-1] >= len(clients):
        raise InvalidInputError(f"participants out of range for {len(clients)} clients: {part}")
    return part


def fan_out(work, count: int, n: int, pool=None) -> list:
    """``[work(i, j) for j in range(count)]``, where ``i = j % n`` is item ``j``'s lane.

    Lane ``i`` runs items ``i, i + n, ...`` in order: lane 0 on this thread,
    the others on ``pool``, an executor of ``n - 1`` workers that this call
    shuts down (None when ``n`` is 1).  A lane stops at its first failure.
    Once every lane is done, the outputs come back in item order, or the
    lowest failing item's exception is raised from its own cause, as a
    serial loop would raise it.  The cause travels apart because a process
    pool pickles an exception without it.
    """
    if pool is None:
        lanes = [_lane(work, count, n, 0)]
    else:
        with pool:
            futures = [pool.submit(_lane, work, count, n, i) for i in range(1, n)]
            lanes = [_lane(work, count, n, 0)] + [future.result() for future in futures]
    failures = [failure for _, failure in lanes if failure is not None]
    if failures:
        _, exc, cause = min(failures, key=lambda failure: failure[0])
        raise exc from cause
    return [lanes[j % n][0][j // n] for j in range(count)]


def _lane(work, count: int, n: int, i: int):
    """Lane ``i`` of :func:`fan_out`: its outputs, and ``(item, exception, cause)`` of its failure or None.

    It lives at module level, so that a process pool can pickle it by name.
    """
    outputs = []
    for j in range(i, count, n):
        try:
            outputs.append(work(i, j))
        except Exception as exc:  # raised by fan_out, after every lane is done
            return outputs, (j, exc, exc.__cause__)
    return outputs, None


def _train(m0: ModelParams, shards: Sequence[Dataset], sgd: SgdConfig) -> List[ModelParams]:
    """``learner.client_update`` from ``m0`` on every shard, on lanes of :func:`fan_out`.

    When rows per step on the smallest shard times the widest layer reaches
    :data:`LANE_MIN_WORK`, there is one lane per shard and per core of the
    ``_CORES`` budget; otherwise one.  The lanes other than this thread run
    on a thread pool that lives for this call.
    """
    arch = m0.arch
    step_work = min(learner.step_rows(sgd, d.n) for d in shards) * max(arch.layer_dims)
    lanes = min(_CORES.get(), len(shards)) if step_work >= LANE_MIN_WORK else 1
    # This thread allocates every lane's buffers: a pool thread's own
    # allocations would open a second malloc arena and raise peak RSS.
    scratch = [
        learner.StepBuffers(arch, max(learner.step_rows(sgd, d.n) for d in shards[i::lanes])) for i in range(lanes)
    ]

    def work(i: int, j: int) -> ModelParams:
        # Through the module attribute, so that a wrapper around client_update sees every call.
        return learner.client_update(m0, shards[j], sgd, scratch[i])

    pool = None
    if lanes > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(lanes - 1)
    return fan_out(work, len(shards), lanes, pool)


def _round(
    server: ServerState,
    clients: Sequence[ClientState],
    sgd: SgdConfig,
    participants: Optional[Sequence[int]],
    aggregator: str,
) -> Tuple[ServerState, Tuple[ClientState, ...], Optional[CredReport]]:
    """One round of ``aggregator``, one of :data:`AGGREGATORS`."""
    part = _check_round_args(server, clients, participants)
    idx = list(part)
    t = server.round + 1
    n_part = np.array([clients[k].n_k for k in part], dtype=np.float64)
    weights, report = server.weights, None
    shards = [clients[k].data for k in part]
    try:
        local_models = _train(server.global_model, shards, sgd)
        if aggregator == "focus":
            # Full participation uses the stored weights exactly; otherwise the
            # participants' stored mass is spread over them for aggregation.
            w_prev = server.weights[idx]
            mass = 1.0 if len(part) == len(clients) else float(w_prev.sum())
            if mass <= 0.0:
                raise DegenerateCredibilityError(
                    f"participants {part} carry no aggregation weight from the previous round"
                )
            global_model = aggregate(local_models, w_prev / mass)
            ls = np.array([model_test(m, server.benchmark, server.reduction) for m in local_models])
            ll = np.array(_scores([global_model] * len(part), shards, server.reduction))
            e = ls + ll
            e_mean = float(e.mean())
            e_scaled = e / e_mean if (server.standardize_e and e_mean > 0) else e
            c_part = credibilities(e_scaled, server.alpha)
            w_part = aggregation_weights(n_part, c_part) * mass
            weights = np.array(server.weights)
            weights[idx] = w_part
            report = CredReport(client_ids=part, ls=ls, ll=ll, e=e, c=c_part, w=w_part)
        else:
            global_model = aggregate(local_models, n_part / n_part.sum())
    except (TrainingDivergenceError, DegenerateCredibilityError) as exc:
        raise RoundError(f"round {t} failed: {exc}", round_index=t) from exc

    new_clients = list(clients)
    for j, k in enumerate(part):
        new_clients[k] = replace(clients[k], local_model=local_models[j])
    # Each new state's loss, scored in stacked passes and kept where ClientState.loss keeps it.
    for k, loss in zip(part, _scores(local_models, shards, "mean")):
        object.__setattr__(new_clients[k], "loss", loss)
    new_server = replace(server, global_model=global_model, round=t, weights=weights)
    return new_server, tuple(new_clients), report


def focus_round(
    server: ServerState,
    clients: Sequence[ClientState],
    sgd: SgdConfig,
    participants: Optional[Sequence[int]] = None,
) -> Tuple[ServerState, Tuple[ClientState, ...], CredReport]:
    """Run one credibility-weighted round; no argument is mutated.

    Aggregation uses the weights stored on ``server`` (computed at the end of
    the previous round); the weights computed here are stored for the *next*
    round.  With partial participation, only participants train and are
    re-scored; their previous collective weight mass is redistributed among
    them for aggregation, and absent clients keep their stored weight.

    Participants score on this thread, and train on it alone unless
    ``harness.run`` grants cores and their SGD steps reach
    :data:`LANE_MIN_WORK` (see ``_train``).  The lane count changes no
    output; a failure is the lowest failing participant's, as with one lane.

    Training divergence and degenerate credibilities are re-raised as
    :class:`RoundError` with this round's 1-based index attached.
    """
    return _round(server, clients, sgd, participants, "focus")


def fedavg_round(
    server: ServerState,
    clients: Sequence[ClientState],
    sgd: SgdConfig,
    participants: Optional[Sequence[int]] = None,
) -> Tuple[ServerState, Tuple[ClientState, ...], None]:
    """Run one FedAvg round: train locally, average by sample counts; no argument is mutated.

    No scoring happens in either direction, so the uplink carries the model
    and nothing else, and the stored weights never change.  Participants
    train as in :func:`focus_round`.  Training divergence is re-raised as
    :class:`RoundError` with the round index.
    """
    return _round(server, clients, sgd, participants, "fedavg")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_model(m: ModelParams, path: str) -> None:
    """Write a model checkpoint (magic ``FOCUSMP1``).

    Layout, all little-endian: magic, u32 input_dim, u32 hidden layer count,
    u32 per hidden width, u32 num_classes, then the flat float64 vector.
    """
    arch = m.arch
    header = (arch.input_dim, len(arch.hidden_dims), *arch.hidden_dims, arch.num_classes)
    with open(as_path("path", path), "wb") as fh:
        fh.write(MODEL_MAGIC + struct.pack(f"<{len(header)}I", *header))
        fh.write(m.values.astype("<f8").tobytes())


def load_model(path: str) -> ModelParams:
    """Read a checkpoint written by :func:`save_model`."""
    with open(as_path("path", path), "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MODEL_MAGIC) + 12 or blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise InvalidInputError(f"{path}: not a model checkpoint (bad magic or truncated)")
    offset = len(MODEL_MAGIC)
    input_dim, n_hidden = struct.unpack_from("<II", blob, offset)
    offset += 8
    if len(blob) < offset + 4 * (n_hidden + 1):
        raise InvalidInputError(f"{path}: truncated checkpoint header")
    hidden = struct.unpack_from(f"<{n_hidden}I", blob, offset) if n_hidden else ()
    offset += 4 * n_hidden
    (num_classes,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    try:
        arch = ArchSpec(input_dim=input_dim, hidden_dims=tuple(hidden), num_classes=num_classes)
        expected = offset + arch.parameter_count() * 8
        if len(blob) != expected:
            raise InvalidInputError(f"checkpoint is {len(blob)} bytes, expected {expected} for {arch.layer_dims}")
        return ModelParams(arch, np.frombuffer(blob, dtype="<f8", offset=offset))
    except InvalidInputError as exc:  # a content error names the file too
        raise InvalidInputError(f"{path}: {exc}") from exc
