"""Property tests for the invariants the simulator relies on."""

import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from focusfl.cli import parse_config_text
from focusfl.data import Dataset, PartitionPlan, load_binary, load_csv, partition, save_binary, save_csv
from focusfl.errors import ConfigurationError, InvalidInputError
from focusfl.federation import (
    LANE_MIN_WORK,
    ClientState,
    ServerState,
    _scores,
    aggregate,
    aggregation_weights,
    credibilities,
    fedavg_round,
    focus_round,
    load_model,
    model_test,
    save_model,
)
from focusfl.harness import AGGREGATORS, ExperimentConfig
from focusfl.learner import ArchSpec, ModelParams, SgdConfig, accuracy, forward, init_params, predict_proba

# Derandomized so a tier-1 run is repeatable; examples stay few to keep it fast.
FEW = settings(max_examples=40, deadline=None, derandomize=True)

finite = st.floats(-1e3, 1e3, allow_nan=False)
any_finite = st.floats(allow_nan=False, allow_infinity=False)


@FEW
@given(st.data(), st.integers(1, 6), st.integers(1, 8))
def test_aggregate_is_convex(data, k, width):
    arch = ArchSpec(width, (), 2)
    size = arch.parameter_count()
    values = np.array(data.draw(st.lists(st.lists(finite, min_size=size, max_size=size), min_size=k, max_size=k)))
    raw = np.array(data.draw(st.lists(st.floats(0, 1), min_size=k, max_size=k)))
    assume(raw.sum() > 0)
    out = aggregate([ModelParams(arch, v) for v in values], raw / raw.sum()).values
    tol = 1e-9 * max(1.0, float(np.abs(values).max()))
    assert np.all(out >= values.min(axis=0) - tol)
    assert np.all(out <= values.max(axis=0) + tol)


@FEW
@given(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=10).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.floats(0, 1), min_size=len(n), max_size=len(n)))
    )
)
def test_aggregation_weights_lie_on_the_simplex(n_and_c):
    n, c = (np.array(v, dtype=np.float64) for v in n_and_c)
    assume(np.sum(n * c) > 0)
    w = aggregation_weights(n, c)
    assert np.all(w >= 0)
    assert abs(float(w.sum()) - 1.0) <= 1e-12


@FEW
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=10), st.floats(1e-6, 1))
def test_equal_credibilities_give_sample_proportional_weights(n, c0):
    n = np.array(n, dtype=np.float64)
    assert np.array_equal(aggregation_weights(n, np.full(n.size, c0)), n / n.sum())


@FEW
@given(st.lists(finite, min_size=1, max_size=10), st.floats(0.01, 10))
def test_credibilities_are_bounded_and_antitone(e, alpha):
    e = np.array(e)
    c = credibilities(e, alpha)
    assert np.all((c >= 0) & (c <= 1))
    larger_e = e[:, None] > e[None, :]
    assert np.all((c[:, None] <= c[None, :])[larger_e])


@FEW
@given(
    st.integers(10, 200),
    st.integers(1, 6),
    st.floats(0.05, 0.5),
    st.floats(0.05, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_partition_is_disjoint_and_covers_the_input(n, k, bench, test, seed):
    d = Dataset(np.arange(n, dtype=np.float64)[:, None], np.zeros(n, dtype=int), 2)
    try:
        shards, bench_set, test_set = partition(d, PartitionPlan(k, bench, test, seed=seed))
    except ConfigurationError:
        assume(False)
    ids = np.concatenate([part.features[:, 0] for part in (*shards, bench_set, test_set)])
    assert ids.size == n
    assert np.array_equal(np.sort(ids), np.arange(n))


def _federation(seed, k):
    rng = np.random.default_rng(seed)
    arch = ArchSpec(3, (), 3)

    def dataset(rows):
        return Dataset(rng.standard_normal((rows, 3)), rng.integers(0, 3, size=rows), 3)

    global0 = init_params(arch, seed=seed)
    clients = tuple(
        ClientState(id=i, data=dataset(int(rng.integers(5, 40))), local_model=global0) for i in range(k)
    )
    n = np.array([c.n_k for c in clients], dtype=np.float64)
    return ServerState(global0, dataset(20), n / n.sum()), clients


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2**16), st.integers(2, 6), st.data())
def test_rounds_with_random_participants_keep_unit_weight_mass(seed, k, data):
    sgd = SgdConfig(learning_rate=0.3, local_steps=2, batch_size=8, seed=seed)
    subsets = data.draw(
        st.lists(st.sets(st.integers(0, k - 1), min_size=1), min_size=1, max_size=4), label="participants"
    )
    for round_fn in (focus_round, fedavg_round):
        server, clients = _federation(seed, k)
        for part in subsets:
            server, clients, _ = round_fn(server, clients, sgd, sorted(part))
            assert abs(float(server.weights.sum()) - 1.0) <= 1e-12


def _config_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(_config_text(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def _config_values(draw):
    num_classes = draw(st.integers(2, 6))
    num_clients = draw(st.integers(1, 8))
    props = draw(st.none() | st.lists(st.floats(0.1, 1), min_size=num_clients, max_size=num_clients))
    return {
        "num_classes": num_classes,
        "samples_per_class": draw(st.integers(1, 500)),
        "dim": draw(st.integers(max(1, num_classes - 1), 12)),
        "separation": draw(st.floats(0.1, 10)),
        "dataset_file": draw(st.none() | st.text("abcxyz0123456789/._-", min_size=1, max_size=20)),
        "num_clients": num_clients,
        "benchmark_fraction": draw(st.floats(0.01, 0.99)),
        "test_fraction": draw(st.floats(0.01, 0.99)),
        "client_proportions": None if props is None else tuple(p / sum(props) for p in props),
        "hidden_dims": tuple(draw(st.lists(st.integers(1, 64), max_size=3))),
        "learning_rate": draw(st.floats(1e-4, 10)),
        "local_steps": draw(st.integers(1, 100)),
        "batch_size": draw(st.just("full") | st.integers(1, 256)),
        "aggregator": draw(st.sampled_from(AGGREGATORS)),
        "rounds": draw(st.integers(1, 100)),
        "alpha": draw(st.floats(0.01, 10)),
        "reduction": draw(st.sampled_from(("mean", "sum"))),
        "standardize_e": draw(st.booleans()),
        "participation_fraction": draw(st.floats(0.01, 1.0)),
        "master_seed": draw(st.integers(0, 2**32)),
    }


@FEW
@given(_config_values())
def test_config_text_round_trips_every_field(values):
    assert set(values) == {f.name for f in fields(ExperimentConfig)} - {"noise"}
    text = "\n".join(f"{key} = {_config_text(value)}" for key, value in values.items())
    assert parse_config_text(text) == ExperimentConfig(**values)


@st.composite
def _datasets(draw):
    n, dim, k = draw(st.integers(0, 12)), draw(st.integers(1, 5)), draw(st.integers(2, 6))
    features = draw(st.lists(any_finite, min_size=n * dim, max_size=n * dim))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return Dataset(np.array(features, dtype=np.float64).reshape(n, dim), np.array(labels, dtype=np.int64), k)


def _round_trip(save, load, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "file")
        save(obj, path)
        return load(path)


def _same_dataset(a: Dataset, b: Dataset) -> bool:
    return (
        a.num_classes == b.num_classes
        and a.features.shape == b.features.shape
        and a.features.tobytes() == b.features.tobytes()
        and np.array_equal(a.labels, b.labels)
    )


@FEW
@given(_datasets())
def test_csv_dataset_round_trips_bit_for_bit(d):
    back = _round_trip(save_csv, lambda path: load_csv(path, num_classes=d.num_classes), d)
    assert _same_dataset(d, back)


@FEW
@given(_datasets())
def test_binary_dataset_round_trips_bit_for_bit(d):
    assert _same_dataset(d, _round_trip(save_binary, load_binary, d))


@st.composite
def _models(draw):
    hidden = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    arch = ArchSpec(draw(st.integers(1, 5)), hidden, draw(st.integers(2, 5)))
    size = arch.parameter_count()
    return ModelParams(arch, np.array(draw(st.lists(any_finite, min_size=size, max_size=size))))


@FEW
@given(_models())
def test_model_checkpoint_round_trips_bit_for_bit(m):
    back = _round_trip(save_model, load_model, m)
    assert back.arch == m.arch
    assert back.values.tobytes() == m.values.tobytes()


def _reference_forward(arch, values, x):
    """The forward pass with the softmax shift taken by ``max(axis=1)``."""
    dims, pos, a = arch.layer_dims, 0, x
    for i in range(len(dims) - 1):
        w = values[pos : pos + dims[i] * dims[i + 1]].reshape(dims[i], dims[i + 1])
        pos += w.size
        b = values[pos : pos + dims[i + 1]]
        pos += b.size
        a = a @ w + b
        if i < len(dims) - 2:
            a = np.tanh(a)
    p = np.exp(a - a.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


# Output biases at or beyond the overflow edge put +-inf and nan into some
# logit columns; huge features push single rows over the edge as well.
_bias_entries = st.floats(-10, 10) | st.sampled_from([np.inf, -np.inf, np.nan, 1e308, -1e308])


@FEW
@given(
    st.data(),
    st.sampled_from((np.float64, np.float32)),
    st.sampled_from((2, 3, 4, 10)),
    st.sampled_from(((), (3,))),
    st.integers(1, 12),
)
def test_forward_equals_the_max_shift_reference_bit_for_bit(data, dtype, classes, hidden, rows):
    """Both compute in ``dtype``: float64 for ``predict_proba``, float32 for scoring."""
    arch = ArchSpec(classes, hidden, classes)
    n_weights = arch.parameter_count() - classes
    if hidden:
        weights = data.draw(st.lists(finite, min_size=n_weights, max_size=n_weights))
    else:  # the logits are then exactly features + bias
        weights = np.eye(classes).ravel()
    bias = data.draw(st.lists(_bias_entries, min_size=classes, max_size=classes))
    x = np.array(data.draw(st.lists(any_finite, min_size=rows * classes, max_size=rows * classes)))
    with np.errstate(all="ignore"):  # float32 casts of huge entries overflow to inf
        values = np.concatenate([weights, bias]).astype(dtype)
        x = x.reshape(rows, classes).astype(dtype)
        got, want = forward(arch, values, x), _reference_forward(arch, values, x)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


@FEW
@given(_models(), st.data())
def test_scoring_returns_floats_and_leaves_the_model_alone(m, data):
    """``predict_proba`` stays float64; the float32 scoring passes return
    Python floats, or raise for a model beyond float32's range, and write
    nothing into the model they cast."""
    rows = data.draw(st.integers(1, 6))
    x = np.array(data.draw(st.lists(finite, min_size=rows * m.arch.input_dim, max_size=rows * m.arch.input_dim)))
    y = data.draw(st.lists(st.integers(0, m.arch.num_classes - 1), min_size=rows, max_size=rows))
    d = Dataset(x.reshape(rows, m.arch.input_dim), np.array(y), m.arch.num_classes)
    before = m.values.tobytes()
    with np.errstate(all="ignore"):  # the model's values may overflow float32
        probs = predict_proba(m, d.features)
        if np.isfinite(m.values.astype(np.float32)).all():
            scores = [model_test(m, d, "mean"), model_test(m, d, "sum"), accuracy(m, d)]
            assert [type(v) for v in scores] == [float, float, float]
        else:
            for score in (model_test, accuracy):
                with pytest.raises(InvalidInputError, match="float32"):
                    score(m, d)
    assert probs.dtype == np.float64
    assert m.values.dtype == np.float64 and m.values.tobytes() == before


# (input width, hidden widths, classes or None to draw 2-10); the first is
# wide-shards' model.
_SCORED_ARCHS = ((32, (256,), 4), (32, (256,), None), (8, (64,), None), (3, (), None), (5, (7, 3), None))


def _scored_pairs(data, shape):
    """Models drawn from a pool of one to three (so some pairs share one) and
    datasets whose row counts lie on both sides of ``LANE_MIN_WORK``: pairs
    that stack, stacks the line splits, and pairs the line leaves alone."""
    dim, hidden, classes = shape
    classes = classes or data.draw(st.integers(2, 10))
    arch = ArchSpec(dim, hidden, classes)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from((0.1, 1.0, 4.0)))
    pool = [ModelParams(arch, scale * rng.normal(size=arch.parameter_count())) for _ in range(data.draw(st.integers(1, 3)))]
    edge = -(-LANE_MIN_WORK // max(arch.layer_dims))  # rows at which one pair reaches the line
    rows = st.sampled_from((1, 3, 41, 42, edge // 3, edge - 1, edge))
    row_counts = data.draw(st.lists(rows, min_size=1, max_size=10))
    models = [pool[data.draw(st.integers(0, len(pool) - 1))] for _ in row_counts]
    datasets = [Dataset(3 * rng.normal(size=(n, dim)), rng.integers(0, classes, n), classes) for n in row_counts]
    return models, datasets


@pytest.mark.parametrize("shape", _SCORED_ARCHS, ids=str)
@FEW
@given(st.data(), st.sampled_from(("mean", "sum")))
def test_stacked_scores_equal_model_test_bit_for_bit(shape, data, reduction):
    models, datasets = _scored_pairs(data, shape)
    got = _scores(models, datasets, reduction)
    want = [model_test(m, d, reduction) for m, d in zip(models, datasets)]
    assert [type(v) for v in got] == [float] * len(want)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.data())
def test_a_clients_ll_does_not_depend_on_who_else_takes_part(data):
    """``LL`` scores one global model on every participant's shard; client
    0's score is the same bits whichever other shards share its pass."""
    arch = ArchSpec(8, (64,), 4)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = ModelParams(arch, rng.normal(size=arch.parameter_count()))
    shards = [Dataset(rng.normal(size=(n, 8)), rng.integers(0, 4, n), 4) for n in [42] * 40 + [41] * 24]
    alone = model_test(model, shards[0], "mean")
    others = data.draw(st.lists(st.integers(1, len(shards) - 1), max_size=40, unique=True))
    at = data.draw(st.integers(0, len(others)))
    part = others[:at] + [0] + others[at:]
    assert _scores([model] * len(part), [shards[k] for k in part], "mean")[at] == alone
