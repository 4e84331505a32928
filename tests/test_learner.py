"""Unit tests for the from-scratch classifier and its SGD loop."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from focusfl.data import Dataset
from focusfl.errors import InvalidInputError, TrainingDivergenceError
from focusfl.learner import (
    ArchSpec,
    ModelParams,
    SgdConfig,
    accuracy,
    client_update,
    init_params,
    loss_and_grad,
    predict_proba,
)


def random_batch(rng, arch, n):
    features = rng.standard_normal((n, arch.input_dim))
    labels = rng.integers(0, arch.num_classes, size=n)
    return Dataset(features, labels, arch.num_classes)


class TestArchSpec:
    def test_parameter_count_counts_weights_and_biases(self):
        assert ArchSpec(8, (), 4).parameter_count() == 8 * 4 + 4
        assert ArchSpec(8, (16,), 4).parameter_count() == 8 * 16 + 16 + 16 * 4 + 4
        assert ArchSpec(2, (3, 2), 2).parameter_count() == (2 * 3 + 3) + (3 * 2 + 2) + (2 * 2 + 2)

    def test_layer_dims_orders_input_hidden_output(self):
        assert ArchSpec(5, (7, 3), 4).layer_dims == (5, 7, 3, 4)

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            ArchSpec(0, (), 2)
        with pytest.raises(InvalidInputError):
            ArchSpec(3, (), 1)
        with pytest.raises(InvalidInputError):
            ArchSpec(3, (0,), 2)


class TestModelParams:
    def test_rejects_wrong_length_and_nonfinite(self):
        arch = ArchSpec(3, (), 2)
        with pytest.raises(InvalidInputError):
            ModelParams(arch, np.zeros(arch.parameter_count() + 1))
        bad = np.zeros(arch.parameter_count())
        bad[0] = np.nan
        with pytest.raises(InvalidInputError):
            ModelParams(arch, bad)

    def test_values_are_copied_and_frozen(self):
        arch = ArchSpec(3, (), 2)
        source = np.zeros(arch.parameter_count())
        m = ModelParams(arch, source)
        source[0] = 99.0
        assert m.values[0] == 0.0
        with pytest.raises(ValueError):
            m.values[0] = 1.0


class TestInitParams:
    def test_same_seed_same_vector(self):
        arch = ArchSpec(6, (8,), 3)
        a = init_params(arch, seed=42)
        b = init_params(arch, seed=42)
        assert np.array_equal(a.values, b.values)
        c = init_params(arch, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_biases_zero_and_weights_bounded(self):
        """Weights are uniform within +-sqrt(3)/sqrt(fan_in); biases start at 0."""
        arch = ArchSpec(9, (5,), 4)
        m = init_params(arch, seed=0)
        w1 = m.values[: 9 * 5].reshape(9, 5)
        b1 = m.values[9 * 5 : 9 * 5 + 5]
        w2 = m.values[9 * 5 + 5 : 9 * 5 + 5 + 5 * 4].reshape(5, 4)
        b2 = m.values[-4:]
        assert np.all(b1 == 0.0) and np.all(b2 == 0.0)
        assert np.all(np.abs(w1) <= np.sqrt(3) / np.sqrt(9))
        assert np.all(np.abs(w2) <= np.sqrt(3) / np.sqrt(5))

    def test_weight_spread_tracks_fan_in(self):
        """Empirical std of a wide layer is close to 1/sqrt(fan_in)."""
        arch = ArchSpec(100, (), 50)
        m = init_params(arch, seed=7)
        w = m.values[: 100 * 50]
        np.testing.assert_allclose(w.std(), 1.0 / 10.0, rtol=0.05)


class TestPredictProba:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(11)
        for arch in (ArchSpec(4, (), 3), ArchSpec(5, (6,), 4), ArchSpec(3, (4, 4), 2)):
            m = init_params(arch, seed=int(rng.integers(1 << 30)))
            x = rng.standard_normal((20, arch.input_dim))
            p = predict_proba(m, x)
            assert p.shape == (20, arch.num_classes)
            assert np.all(p >= 0)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_single_vector_matches_batch_row(self):
        # Single-row and batched matmuls may use different BLAS kernels, so
        # agreement is to the last couple of ulps rather than bitwise.
        rng = np.random.default_rng(5)
        arch = ArchSpec(6, (5,), 4)
        m = init_params(arch, seed=3)
        x = rng.standard_normal((7, 6))
        batch = predict_proba(m, x)
        for i in range(7):
            np.testing.assert_allclose(predict_proba(m, x[i]), batch[i], atol=1e-14)

    def test_uniform_logit_shift_leaves_probabilities_unchanged(self):
        """Adding one constant to every output bias must not move the softmax."""
        rng = np.random.default_rng(19)
        arch = ArchSpec(5, (8,), 4)
        m = init_params(arch, seed=2)
        shifted_values = m.values.copy()
        shifted_values[-arch.num_classes :] += 37.5
        shifted = ModelParams(arch, shifted_values)
        x = rng.standard_normal((15, 5))
        np.testing.assert_allclose(predict_proba(m, x), predict_proba(shifted, x), atol=1e-12)

    def test_rejects_wrong_width(self):
        m = init_params(ArchSpec(4, (), 3), seed=0)
        with pytest.raises(InvalidInputError):
            predict_proba(m, np.zeros(5))


class TestLossAndGrad:
    def test_sum_reduction_is_n_times_mean(self):
        rng = np.random.default_rng(23)
        arch = ArchSpec(5, (6,), 3)
        m = init_params(arch, seed=8)
        batch = random_batch(rng, arch, n=9)
        loss_mean, grad_mean = loss_and_grad(m, batch, "mean")
        loss_sum, grad_sum = loss_and_grad(m, batch, "sum")
        np.testing.assert_allclose(loss_sum, 9 * loss_mean, rtol=1e-12)
        np.testing.assert_allclose(grad_sum, 9 * grad_mean, rtol=1e-12, atol=1e-15)

    def test_confidently_wrong_prediction_keeps_loss_finite(self):
        """The probability clamp turns -log(0) into a large finite penalty."""
        arch = ArchSpec(1, (), 2)
        # Huge weight makes the model certain of class 1 for positive input.
        m = ModelParams(arch, np.array([-1000.0, 1000.0, 0.0, 0.0]))
        batch = Dataset(np.array([[1.0]]), np.array([0]), 2)
        loss, grad = loss_and_grad(m, batch)
        assert np.isfinite(loss)
        np.testing.assert_allclose(loss, -np.log(1e-12), rtol=1e-6)
        assert np.all(np.isfinite(grad))

    def test_rejects_unknown_reduction_and_bad_labels(self):
        arch = ArchSpec(3, (), 2)
        m = init_params(arch, seed=0)
        batch = random_batch(np.random.default_rng(0), arch, 4)
        with pytest.raises(InvalidInputError):
            loss_and_grad(m, batch, "median")
        mismatched = Dataset(np.zeros((4, 3)), np.array([0, 1, 2, 0]), 3)
        with pytest.raises(InvalidInputError):
            loss_and_grad(m, mismatched)


class TestClientUpdate:
    def test_full_batch_trajectory_matches_manual_replay(self):
        """client_update is exactly local_steps applications of the SGD rule,
        in float32, cast back to float64 once at the end."""
        rng = np.random.default_rng(31)
        arch = ArchSpec(4, (5,), 3)
        m0 = init_params(arch, seed=1)
        d = random_batch(rng, arch, n=16)
        cfg = SgdConfig(learning_rate=0.2, local_steps=7, batch_size="full", seed=0)
        trained = client_update(m0, d, cfg)
        values = m0.values.astype(np.float32)
        for _ in range(7):
            _, grad = loss_and_grad(_float32_model(arch, values), d)
            values = values - 0.2 * grad
        assert trained.values.tobytes() == values.astype(np.float64).tobytes()

    def test_minibatch_trajectory_with_short_last_chunk_matches_manual_replay(self):
        """Ten rows in chunks of four: every epoch ends on a two-row step."""
        rng = np.random.default_rng(33)
        arch = ArchSpec(4, (5, 3), 3)
        m0 = init_params(arch, seed=3)
        d = random_batch(rng, arch, n=10)
        cfg = SgdConfig(learning_rate=0.2, local_steps=8, batch_size=4, seed=17)
        trained = client_update(m0, d, cfg)
        order = np.random.default_rng(17)
        chunks = []
        while len(chunks) < 8:
            perm = order.permutation(10)
            chunks.extend([perm[0:4], perm[4:8], perm[8:10]])
        values = m0.values.astype(np.float32)
        for idx in chunks[:8]:
            _, grad = loss_and_grad(_float32_model(arch, values), d.subset(idx))
            values = values - 0.2 * grad
        assert trained.values.tobytes() == values.astype(np.float64).tobytes()

    def test_minibatch_schedule_is_seeded(self):
        rng = np.random.default_rng(37)
        arch = ArchSpec(4, (), 3)
        m0 = init_params(arch, seed=2)
        d = random_batch(rng, arch, n=30)
        cfg = SgdConfig(learning_rate=0.1, local_steps=11, batch_size=8, seed=99)
        a = client_update(m0, d, cfg)
        b = client_update(m0, d, cfg)
        assert np.array_equal(a.values, b.values)
        c = client_update(m0, d, SgdConfig(0.1, 11, 8, seed=100))
        assert not np.array_equal(a.values, c.values)

    def test_input_model_is_unchanged(self):
        rng = np.random.default_rng(41)
        arch = ArchSpec(3, (), 2)
        m0 = init_params(arch, seed=5)
        before = m0.values.tobytes()
        client_update(m0, random_batch(rng, arch, 10), SgdConfig(0.5, 5))
        assert m0.values.tobytes() == before

    def test_training_reduces_loss_on_separable_data(self):
        rng = np.random.default_rng(43)
        features = np.vstack([rng.normal(-3, 1, (40, 2)), rng.normal(3, 1, (40, 2))])
        labels = np.array([0] * 40 + [1] * 40)
        d = Dataset(features, labels, 2)
        arch = ArchSpec(2, (), 2)
        m0 = init_params(arch, seed=0)
        loss_before, _ = loss_and_grad(m0, d)
        trained = client_update(m0, d, SgdConfig(0.5, 100))
        loss_after, _ = loss_and_grad(trained, d)
        assert loss_after < loss_before
        assert accuracy(trained, d) >= 0.95

    def test_divergence_raises_with_step_index(self):
        """Parameters at the float64 overflow edge send the forward pass to
        inf - inf = nan, which must surface as a divergence error, not as a
        silent nan model."""
        arch = ArchSpec(2, (), 2)
        # Both rows of W push class 0's logit to +inf on input (1, 1).
        w = np.array([1.7e308, -1.7e308, 1.7e308, -1.7e308, 0.0, 0.0])
        m0 = ModelParams(arch, w)
        d = Dataset(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([0, 1]), 2)
        with pytest.raises(TrainingDivergenceError) as excinfo:
            client_update(m0, d, SgdConfig(learning_rate=0.1, local_steps=5))
        assert excinfo.value.step == 1
        assert str(excinfo.value) == "non-finite training loss at step 1"

    def test_returns_a_frozen_float64_model(self):
        """The float32 steps show only in the values: the result is an
        ordinary read-only float64 ``ModelParams``."""
        rng = np.random.default_rng(47)
        arch = ArchSpec(4, (6,), 3)
        m0 = init_params(arch, seed=9)
        for batch_size in ("full", 4):
            trained = client_update(m0, random_batch(rng, arch, 10), SgdConfig(0.3, 6, batch_size, seed=2))
            assert isinstance(trained, ModelParams) and trained.arch == arch
            assert trained.values.dtype == np.float64 and not trained.values.flags.writeable
            assert np.array_equal(trained.values, trained.values.astype(np.float32))

    def test_weights_beyond_float32_range_diverge_at_step_1(self):
        """Weights of 1e39 are finite in float64, and on inputs of 1e-30 the
        float64 logits would be a harmless +-1e9.  The float32 cast makes
        them infinite, so the first forward pass gives inf - inf = nan."""
        arch = ArchSpec(1, (), 2)
        m0 = ModelParams(arch, np.array([1e39, -1e39, 0.0, 0.0]))
        d = Dataset(np.array([[1e-30], [1e-30]]), np.array([0, 1]), 2)
        with pytest.raises(TrainingDivergenceError) as excinfo:
            client_update(m0, d, SgdConfig(learning_rate=0.1, local_steps=5))
        assert excinfo.value.step == 1
        assert str(excinfo.value) == "non-finite training loss at step 1"

    @pytest.mark.parametrize(
        "local_steps, message, step",
        [(1, "non-finite parameters after step 1", 1), (5, "non-finite training loss at step 2", 2)],
    )
    def test_learning_rate_beyond_float32_range_diverges_at_a_pinned_step(self, local_steps, message, step):
        """A learning rate of 1e39 is a valid float64, but it scales the first
        gradient to inf in float32, so the parameters leave the finite range
        after step 1 and the next step's loss is nan."""
        rng = np.random.default_rng(53)
        arch = ArchSpec(3, (4,), 2)
        with pytest.raises(TrainingDivergenceError) as excinfo:
            client_update(init_params(arch, seed=4), random_batch(rng, arch, 8), SgdConfig(1e39, local_steps))
        assert (str(excinfo.value), excinfo.value.step) == (message, step)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_matches_a_loss_and_grad_replay(self):
        """client_update stops at the first step whose batch loss is non-finite.

        The reference replays the same batches through ``loss_and_grad`` in
        float32.  Learning rates and weights near the float32 overflow edge
        make runs diverge at various steps, or end with non-finite
        parameters, or finish cleanly; every outcome and message must match.
        """
        seen = set()
        for seed in range(300):
            m0, d, cfg = _overflow_case(seed)
            expected = _reference_outcome(m0, d, cfg)
            try:
                outcome = ("ok", client_update(m0, d, cfg).values.tobytes(), None)
            except TrainingDivergenceError as exc:
                outcome = ("raise", str(exc), exc.step)
            assert outcome == expected, f"case {seed}"
            if outcome[1] == f"non-finite training loss at step {outcome[2]}":
                seen.add((cfg.batch_size == "full", bool(m0.arch.hidden_dims), outcome[2] > 1))
        # Full batch and mini-batch, with and without a hidden layer, each
        # diverged after step 1, and some case diverged at step 1.
        assert {(full, hidden, True) for full in (True, False) for hidden in (True, False)} <= seen
        assert any(not later for _, _, later in seen)

    def test_rejects_empty_data_and_bad_config(self):
        arch = ArchSpec(3, (), 2)
        m0 = init_params(arch, seed=0)
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        with pytest.raises(InvalidInputError):
            client_update(m0, empty, SgdConfig(0.1, 1))
        with pytest.raises(InvalidInputError):
            SgdConfig(learning_rate=0.0, local_steps=1)
        with pytest.raises(InvalidInputError):
            SgdConfig(learning_rate=0.1, local_steps=0)
        with pytest.raises(InvalidInputError):
            SgdConfig(learning_rate=0.1, local_steps=1, batch_size="half")


class TestValueRules:
    @pytest.mark.parametrize("field", ["input_dim", "local_steps", "batch_size"])
    def test_integral_floats_train_like_ints(self, field):
        def train(input_dim, local_steps, batch_size):
            cfg = SgdConfig(0.5, local_steps, batch_size, seed=3)
            d = random_batch(np.random.default_rng(5), ArchSpec(4, (), 3), 10)
            return client_update(init_params(ArchSpec(input_dim, (), 3), seed=1), d, cfg).values

        ints = dict(input_dim=4, local_steps=2, batch_size=4)
        assert train(**{**ints, field: float(ints[field])}).tobytes() == train(**ints).tobytes()

    @pytest.mark.parametrize(
        "name, make",
        [
            ("local_steps", lambda: SgdConfig(0.5, float("nan"))),
            ("seed", lambda: init_params(ArchSpec(4, (), 3), float("nan"))),
            ("input_dim", lambda: ArchSpec(None, (), 3)),
            ("hidden_dims", lambda: ArchSpec(4, (2.5,), 3)),
            ("hidden_dims", lambda: ArchSpec(4, 5, 3)),
        ],
        ids=["local_steps-nan", "init-seed-nan", "input_dim-None", "hidden_dims-2.5", "hidden_dims-int"],
    )
    def test_non_integers_are_rejected_by_name(self, name, make):
        with pytest.raises(InvalidInputError, match=f"{name} must be"):
            make()


def _float32_model(arch, values):
    """What ``client_update`` steps with: a parameter vector in float32.

    ``ModelParams`` always holds float64, and ``loss_and_grad`` computes in
    the dtype of the values it is given, so the replays pass a plain
    namespace.  Its values may also go non-finite.
    """
    return SimpleNamespace(arch=arch, values=np.asarray(values, dtype=np.float32))


def _overflow_case(seed):
    """A small training problem whose learning rate and weights sit near float32 overflow."""
    rng = np.random.default_rng(seed)
    classes, dim = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    arch = ArchSpec(dim, () if rng.random() < 0.5 else (int(rng.integers(2, 9)),), classes)
    n = int(rng.integers(3, 12))
    d = Dataset(rng.standard_normal((n, dim)) * 10 ** rng.uniform(0, 3), rng.integers(0, classes, n), classes)
    m0 = ModelParams(arch, init_params(arch, seed).values * 10 ** rng.uniform(10, 38))
    batch_size = "full" if rng.random() < 0.5 else int(rng.integers(1, n))
    cfg = SgdConfig(float(10 ** rng.uniform(34, 38.5)), int(rng.integers(1, 9)), batch_size, seed)
    return m0, d, cfg


def _reference_outcome(m0, d, cfg):
    """What ``client_update`` must do, replayed step by step with ``loss_and_grad``.

    Returns ``("ok", final value bytes, None)`` or ``("raise", message, step)``.
    """
    if cfg.batch_size == "full" or cfg.batch_size >= d.n:
        batches = itertools.repeat(np.arange(d.n))
    else:
        order = np.random.default_rng(cfg.seed)
        batches = (
            perm[start : start + cfg.batch_size]
            for perm in map(order.permutation, itertools.repeat(d.n))
            for start in range(0, d.n, cfg.batch_size)
        )
    values = m0.values.astype(np.float32)
    for step in range(1, cfg.local_steps + 1):
        loss, grad = loss_and_grad(_float32_model(m0.arch, values), d.subset(next(batches)))
        if not np.isfinite(loss):
            return ("raise", f"non-finite training loss at step {step}", step)
        values = values - cfg.learning_rate * grad
    if not np.all(np.isfinite(values)):
        return ("raise", f"non-finite parameters after step {cfg.local_steps}", cfg.local_steps)
    return ("ok", values.astype(np.float64).tobytes(), None)


class TestAccuracy:
    def test_hand_built_threshold_model(self):
        # Positive feature -> class 1, negative -> class 0, via one big weight.
        arch = ArchSpec(1, (), 2)
        m = ModelParams(arch, np.array([-5.0, 5.0, 0.0, 0.0]))
        d = Dataset(np.array([[2.0], [-2.0], [1.0], [-1.0]]), np.array([1, 0, 0, 1]), 2)
        assert accuracy(m, d) == 0.5

    def test_probability_ties_resolve_to_lowest_class(self):
        """An all-zero model predicts uniformly, so argmax picks class 0."""
        arch = ArchSpec(2, (), 3)
        m = ModelParams(arch, np.zeros(arch.parameter_count()))
        d = Dataset(np.ones((6, 2)), np.array([0, 0, 1, 1, 2, 2]), 3)
        np.testing.assert_allclose(accuracy(m, d), 2.0 / 6.0)

    def test_predicts_in_float32(self):
        """A logit margin of 1e-10 decides the class in float64, but
        exp(-1e-10) rounds to 1 in float32, so the rows tie and class 0 wins."""
        arch = ArchSpec(1, (), 2)
        m = ModelParams(arch, np.array([0.0, 0.0, 0.0, 1e-10]))
        d = Dataset(np.ones((2, 1)), np.array([1, 1]), 2)
        assert predict_proba(m, d.features).argmax(axis=1).tolist() == [1, 1]
        assert accuracy(m, d) == 0.0

    def test_rejects_empty_dataset(self):
        m = init_params(ArchSpec(2, (), 2), seed=0)
        with pytest.raises(InvalidInputError):
            accuracy(m, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))
