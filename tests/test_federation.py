"""Unit tests for scoring, credibility, aggregation, and round mechanics."""

import contextlib
import re
import struct
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from focusfl import federation, harness, learner
from focusfl.data import Dataset, synth_blobs
from focusfl.errors import DegenerateCredibilityError, InvalidInputError, RoundError, TrainingDivergenceError
from focusfl.federation import (
    MODEL_MAGIC,
    ClientState,
    CredReport,
    ServerState,
    aggregate,
    aggregation_weights,
    credibilities,
    fedavg_round,
    focus_round,
    load_model,
    model_test,
    save_model,
)
from focusfl.learner import (
    ArchSpec,
    ModelParams,
    SgdConfig,
    accuracy,
    client_update,
    init_params,
    loss_and_grad,
)


def random_dataset(rng, arch, n):
    return Dataset(
        rng.standard_normal((n, arch.input_dim)),
        rng.integers(0, arch.num_classes, size=n),
        arch.num_classes,
    )


def tiny_federation(seed=0, k=3, arch=ArchSpec(3, (), 3), n_per_client=24):
    """A small ready-to-run federation on random (not separable) data.

    ``n_per_client`` is one shard size for every client, or a tuple of ``k``.
    """
    rng = np.random.default_rng(seed)
    global0 = init_params(arch, seed=rng.integers(1 << 30))
    bench = random_dataset(rng, arch, 20)
    sizes = n_per_client if isinstance(n_per_client, tuple) else (n_per_client,) * k
    clients = tuple(
        ClientState(id=i, data=random_dataset(rng, arch, sizes[i]), local_model=global0)
        for i in range(k)
    )
    n = np.array(sizes, dtype=np.float64)
    return ServerState(global0, bench, n / n.sum()), clients


# The checks of TestFocusRound that hold for every round function loop over these.
ROUND_FNS = (focus_round, fedavg_round)


class TestModelTest:
    def test_agrees_with_training_loss_computation(self):
        """Scoring runs in float32, so it must equal, bit for bit, the loss
        that backprop computes from the float32 cast of the same model, for
        both reductions.  ``loss_and_grad`` computes in the dtype of the
        values it is given, and a ``ModelParams`` holds only float64, so the
        float32 model is a plain namespace."""
        rng = np.random.default_rng(3)
        for trial in range(200):
            arch = ArchSpec(int(rng.integers(2, 6)), (int(rng.integers(3, 8)),), int(rng.integers(2, 5)))
            m = init_params(arch, seed=int(rng.integers(1 << 30)))
            d = random_dataset(rng, arch, int(rng.integers(2, 30)))
            m32 = SimpleNamespace(arch=arch, values=m.values.astype(np.float32))
            for reduction in ("mean", "sum"):
                loss, _ = loss_and_grad(m32, d, reduction)
                assert model_test(m, d, reduction) == loss

    def test_sum_reduction_matches_per_row_accumulation(self):
        rng = np.random.default_rng(5)
        arch = ArchSpec(4, (), 3)
        m = init_params(arch, seed=1)
        d = random_dataset(rng, arch, 10)
        total = model_test(m, d, "sum")
        np.testing.assert_allclose(total, model_test(m, d, "mean") * d.n, rtol=1e-12)

    def test_clamped_probabilities_keep_score_finite(self):
        arch = ArchSpec(1, (), 2)
        m = ModelParams(arch, np.array([-2000.0, 2000.0, 0.0, 0.0]))
        d = Dataset(np.array([[1.0], [1.0]]), np.array([0, 0]), 2)
        score = model_test(m, d, "mean")
        np.testing.assert_allclose(score, -np.log(1e-12), rtol=1e-9)

    def test_rejects_empty_and_bad_reduction(self):
        m = init_params(ArchSpec(2, (), 2), seed=0)
        with pytest.raises(InvalidInputError):
            model_test(m, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))
        d = Dataset(np.zeros((2, 2)), np.array([0, 1]), 2)
        with pytest.raises(InvalidInputError):
            model_test(m, d, "max")

    def test_rejects_mismatched_feature_width(self):
        m = init_params(ArchSpec(2, (), 2), seed=0)
        with pytest.raises(InvalidInputError, match="features"):
            model_test(m, Dataset(np.zeros((2, 3)), np.array([0, 1]), 2))

    @pytest.mark.parametrize("weights", [[1e39, 0.0, 0.0, 0.0], [1e39, -1e39, 0.0, 0.0]])
    def test_parameters_beyond_float32_range_are_rejected(self, weights):
        """Weights of 1e39 are finite in float64 but infinite in float32, so
        scoring them would give ``nan`` (and ``accuracy`` a count of ``nan``
        rows); both scoring functions raise instead."""
        m = ModelParams(ArchSpec(1, (), 2), np.array(weights))
        d = Dataset(np.array([[1.0], [-1.0]]), np.array([0, 1]), 2)
        with pytest.raises(InvalidInputError, match="float32"):
            model_test(m, d)
        with pytest.raises(InvalidInputError, match="float32"):
            accuracy(m, d)


class TestCredibilities:
    def test_sums_to_k_minus_one(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            k = int(rng.integers(2, 10))
            e = rng.uniform(0, 5, size=k)
            c = credibilities(e, alpha=float(rng.uniform(0.1, 4)))
            np.testing.assert_allclose(c.sum(), k - 1, atol=1e-12)
            assert np.all((c > 0) & (c < 1))

    def test_higher_score_means_lower_credibility(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            e = rng.uniform(0, 5, size=5)
            c = credibilities(e, alpha=1.0)
            order_e = np.argsort(e)
            order_c = np.argsort(-c)
            np.testing.assert_array_equal(e[order_e], e[order_c])

    def test_alpha_sharpens_the_separation(self):
        e = np.array([1.0, 2.0])
        soft = credibilities(e, alpha=0.5)
        sharp = credibilities(e, alpha=4.0)
        assert sharp[1] < soft[1]
        assert sharp[0] > soft[0]

    def test_single_client_is_fully_credible(self):
        np.testing.assert_array_equal(credibilities(np.array([12.3])), [1.0])

    def test_large_scores_do_not_overflow(self):
        c = credibilities(np.array([1e6, 2e6]), alpha=1.0)
        assert np.all(np.isfinite(c))
        assert c[0] > c[1]
        # A shifted score below the float64 range has no weight in the softmax.
        np.testing.assert_array_equal(credibilities([-1e308, 1e308]), [1.0, 0.0])

    def test_alpha_times_e_beyond_float64_is_degenerate(self):
        with pytest.raises(DegenerateCredibilityError, match="overflows"):
            credibilities([1.0, 2.0], alpha=1e308)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            credibilities(np.array([]))
        with pytest.raises(InvalidInputError):
            credibilities(np.array([1.0, np.nan]))
        with pytest.raises(InvalidInputError):
            credibilities(np.array([1.0, 2.0]), alpha=0.0)


class TestAggregationWeights:
    def test_proportional_to_size_times_credibility(self):
        n = np.array([100, 200, 300])
        c = np.array([0.9, 0.5, 0.1])
        w = aggregation_weights(n, c)
        expected = n * c / (n * c).sum()
        np.testing.assert_allclose(w, expected, atol=1e-15)
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)

    def test_zero_credibility_client_gets_zero_weight(self):
        w = aggregation_weights(np.array([10, 10, 10]), np.array([0.5, 0.0, 0.5]))
        assert w[1] == 0.0
        np.testing.assert_allclose(w, [0.5, 0.0, 0.5], atol=1e-15)

    def test_all_zero_credibilities_are_degenerate(self):
        with pytest.raises(DegenerateCredibilityError):
            aggregation_weights(np.array([10, 20]), np.array([0.0, 0.0]))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            aggregation_weights(np.array([10, 20]), np.array([0.5]))
        with pytest.raises(InvalidInputError):
            aggregation_weights(np.array([10.5, 20]), np.array([0.5, 0.5]))
        with pytest.raises(InvalidInputError):
            aggregation_weights(np.array([0, 20]), np.array([0.5, 0.5]))
        with pytest.raises(InvalidInputError):
            aggregation_weights(np.array([10, 20]), np.array([-0.1, 0.5]))

    @pytest.mark.parametrize(
        "n, c",
        [(["x", 2], [0.5, 0.5]), ([1, 2], ["x", 1]), ([1, None], [0.5, 0.5]), ([1, 2], [0.5, float("inf")])],
        ids=["count-str", "weight-str", "count-None", "weight-inf"],
    )
    def test_junk_values_raise_invalid_input(self, n, c):
        with pytest.raises(InvalidInputError):
            aggregation_weights(n, c)


class TestAggregate:
    def test_average_of_identical_models_is_the_model(self):
        arch = ArchSpec(3, (4,), 2)
        m = init_params(arch, seed=0)
        out = aggregate([m, m, m], np.array([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(out.values, m.values, atol=1e-15)

    def test_single_model_with_unit_weight_is_identity(self):
        m = init_params(ArchSpec(4, (), 3), seed=1)
        out = aggregate([m], np.array([1.0]))
        assert np.array_equal(out.values, m.values)

    def test_output_stays_within_coordinatewise_bounds(self):
        rng = np.random.default_rng(13)
        arch = ArchSpec(5, (6,), 3)
        for _ in range(10):
            models = [init_params(arch, seed=int(rng.integers(1 << 30))) for _ in range(4)]
            w = rng.dirichlet(np.ones(4))
            out = aggregate(models, w)
            stacked = np.stack([m.values for m in models])
            assert np.all(out.values <= stacked.max(axis=0) + 1e-12)
            assert np.all(out.values >= stacked.min(axis=0) - 1e-12)

    def test_validation(self):
        arch = ArchSpec(3, (), 2)
        m = init_params(arch, seed=0)
        other = init_params(ArchSpec(3, (2,), 2), seed=0)
        with pytest.raises(InvalidInputError):
            aggregate([], np.array([]))
        with pytest.raises(InvalidInputError):
            aggregate([m, other], np.array([0.5, 0.5]))
        with pytest.raises(InvalidInputError):
            aggregate([m, m], np.array([0.7, 0.7]))
        with pytest.raises(InvalidInputError):
            aggregate([m, m], np.array([1.5, -0.5]))

    @pytest.mark.parametrize("w", [["x"], [None], [float("nan")]], ids=["str", "None", "nan"])
    def test_junk_weights_raise_invalid_input(self, w):
        m = init_params(ArchSpec(3, (), 2), seed=0)
        with pytest.raises(InvalidInputError):
            aggregate([m], w)


class TestStateValidation:
    def test_client_state_rejects_mismatched_shard(self):
        arch = ArchSpec(3, (), 2)
        m = init_params(arch, seed=0)
        wrong_dim = Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 2)
        with pytest.raises(InvalidInputError):
            ClientState(id=0, data=wrong_dim, local_model=m)
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        with pytest.raises(InvalidInputError):
            ClientState(id=0, data=empty, local_model=m)

    def test_n_k_tracks_the_shard(self):
        arch = ArchSpec(2, (), 2)
        m = init_params(arch, seed=0)
        d = Dataset(np.zeros((7, 2)), np.zeros(7, dtype=int), 2)
        assert ClientState(id=1, data=d, local_model=m).n_k == 7

    def test_loss_is_the_model_test_of_its_own_shard(self):
        _, clients = tiny_federation(n_per_client=(24, 31, 17))
        for c in clients:
            assert c.loss == model_test(c.local_model, c.data, "mean")

    def test_loss_is_scored_once_per_state(self, monkeypatch):
        from focusfl import federation

        calls = []
        real_scores = federation._scores

        def counting_scores(models, datasets, reduction):
            calls.extend(datasets)
            return real_scores(models, datasets, reduction)

        monkeypatch.setattr(federation, "_scores", counting_scores)
        server, (c, other, _) = tiny_federation()
        first = c.loss
        assert c.loss == first
        assert len(calls) == 1 and calls[0] is c.data
        # The same model object on another shard is a new state: scored again.
        moved = replace(c, data=other.data)
        assert moved.local_model is c.local_model
        assert moved.loss == model_test(c.local_model, other.data, "mean")
        assert moved.loss != first
        assert len(calls) == 2
        # A round scores each state it makes, once, with the other participants'.
        for round_fn in ROUND_FNS:
            calls.clear()
            _, clients, _ = round_fn(server, (c, moved, other), SgdConfig(0.1, 2), participants=[0, 2])
            assert [id(d) for d in calls[-2:]] == [id(clients[0].data), id(clients[2].data)]
            scored = len(calls)
            assert [clients[k].loss for k in (0, 2)] == [model_test(clients[k].local_model, clients[k].data) for k in (0, 2)]
            assert len(calls) == scored

    def test_server_state_rejects_bad_weights(self):
        server, _ = tiny_federation()
        with pytest.raises(InvalidInputError):
            replace(server, weights=np.array([0.5, 0.6, 0.2]))
        with pytest.raises(InvalidInputError):
            replace(server, weights=np.array([1.5, -0.5, 0.0]))
        with pytest.raises(InvalidInputError):
            replace(server, alpha=-1.0)
        with pytest.raises(InvalidInputError):
            replace(server, round=-1)

    @pytest.mark.parametrize(
        "name, make",
        [
            ("round", lambda server: replace(server, round=float("nan"))),
            ("alpha", lambda server: replace(server, alpha="1")),
            ("alpha", lambda server: credibilities([1.0, 2.0], alpha=None)),
            ("standardize_e", lambda server: replace(server, standardize_e="no")),
            ("client_ids", lambda server: CredReport(5, *[np.ones(1)] * 5)),
            ("participants", lambda server: focus_round(server, tiny_federation()[1], SgdConfig(0.1, 1), participants=5)),
            ("id", lambda server: replace(tiny_federation()[1][0], id="x")),
            ("id", lambda server: replace(tiny_federation()[1][0], id=None)),
            ("id", lambda server: replace(tiny_federation()[1][0], id=float("nan"))),
            ("id", lambda server: replace(tiny_federation()[1][0], id=-1)),
        ],
        ids=[
            "round-nan", "server-alpha-str", "credibilities-alpha-None",
            "server-standardize_e-str", "cred-client_ids-int", "participants-int",
            "client-id-str", "client-id-None", "client-id-nan", "client-id-negative",
        ],
    )
    def test_bad_scalars_are_rejected_by_name(self, name, make):
        server, _ = tiny_federation()
        with pytest.raises(InvalidInputError, match=f"{name} must be"):
            make(server)

    def test_integral_float_round_is_stored_as_the_int(self):
        server, clients = tiny_federation()
        after, _, _ = focus_round(replace(server, round=2.0), clients, SgdConfig(0.1, 1))
        assert type(after.round) is int
        assert type(replace(clients[0], id=1.0).id) is int

    def test_cred_report_rejects_nonfinite_scores(self):
        half = np.array([0.5, 0.5])
        for ls, ll in (([np.nan, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, np.inf])):
            ls, ll = np.array(ls), np.array(ll)
            with pytest.raises(InvalidInputError):
                CredReport((0, 1), ls, ll, ls + ll, half, half)


class TestFocusRound:
    def test_aggregation_uses_previous_round_weights(self):
        """The model published at round t must be the w_{t-1}-weighted average
        of the round-t local models, not the freshly computed weights."""
        server, clients = tiny_federation(seed=1, k=3)
        stale = np.array([0.6, 0.3, 0.1])
        server = replace(server, weights=stale)
        sgd = SgdConfig(learning_rate=0.2, local_steps=5, seed=4)
        new_server, new_clients, report = focus_round(server, clients, sgd)
        manual = aggregate([c.local_model for c in new_clients], stale)
        assert np.array_equal(new_server.global_model.values, manual.values)
        # and the stored weights moved on to the freshly computed ones
        assert not np.array_equal(new_server.weights, stale)
        np.testing.assert_array_equal(new_server.weights, report.w)

    def test_report_is_internally_consistent(self):
        server, clients = tiny_federation(seed=2, k=4)
        sgd = SgdConfig(learning_rate=0.3, local_steps=4, seed=0)
        new_server, new_clients, report = focus_round(server, clients, sgd)
        assert report.client_ids == (0, 1, 2, 3)
        np.testing.assert_array_equal(report.e, report.ls + report.ll)
        e_scaled = report.e / report.e.mean()
        np.testing.assert_allclose(report.c, credibilities(e_scaled, server.alpha), atol=1e-15)
        n = np.array([c.n_k for c in clients], dtype=float)
        np.testing.assert_allclose(report.w, aggregation_weights(n, report.c), atol=1e-15)
        np.testing.assert_allclose(report.w.sum(), 1.0, atol=1e-12)
        # ls/ll recompute exactly from the published states
        for j, c in enumerate(new_clients):
            assert report.ls[j] == model_test(c.local_model, server.benchmark, server.reduction)
            assert report.ll[j] == model_test(new_server.global_model, c.data, server.reduction)

    def test_local_models_come_from_the_broadcast_global(self):
        server, clients = tiny_federation(seed=3, k=2)
        sgd = SgdConfig(learning_rate=0.1, local_steps=6, seed=8)
        _, new_clients, _ = focus_round(server, clients, sgd)
        for c, nc in zip(clients, new_clients):
            expected = client_update(server.global_model, c.data, sgd)
            assert np.array_equal(nc.local_model.values, expected.values)

    def test_inputs_are_not_mutated(self):
        for round_fn in ROUND_FNS:
            server, clients = tiny_federation(seed=4)
            w_before = server.weights.copy()
            models_before = [c.local_model.values.copy() for c in clients]
            round_fn(server, clients, SgdConfig(0.2, 3, seed=1))
            assert np.array_equal(server.weights, w_before), round_fn.__name__
            assert server.round == 0, round_fn.__name__
            for c, before in zip(clients, models_before):
                assert np.array_equal(c.local_model.values, before), round_fn.__name__

    def test_round_counter_increments(self):
        server, clients = tiny_federation(seed=5)
        sgd = SgdConfig(0.2, 2, seed=0)
        for round_fn in ROUND_FNS:
            s1, c1, _ = round_fn(server, clients, sgd)
            s2, _, _ = round_fn(s1, c1, sgd)
            assert (server.round, s1.round, s2.round) == (0, 1, 2), round_fn.__name__

    def test_client_permutation_permutes_the_outputs(self):
        """Relabeling clients must permute scores and weights identically and
        leave the aggregate model unchanged (up to float reordering)."""
        server, clients = tiny_federation(seed=6, k=3)
        sgd = SgdConfig(learning_rate=0.25, local_steps=4, seed=2)
        perm = [2, 0, 1]
        server_p = replace(server, weights=server.weights[perm])
        clients_p = tuple(clients[i] for i in perm)
        s_a, _, rep_a = focus_round(server, clients, sgd)
        s_b, _, rep_b = focus_round(server_p, clients_p, sgd)
        np.testing.assert_allclose(rep_b.ls, rep_a.ls[perm], atol=1e-12)
        np.testing.assert_allclose(rep_b.ll, rep_a.ll[perm], atol=1e-12)
        np.testing.assert_allclose(rep_b.c, rep_a.c[perm], atol=1e-12)
        np.testing.assert_allclose(rep_b.w, rep_a.w[perm], atol=1e-12)
        np.testing.assert_allclose(s_b.global_model.values, s_a.global_model.values, atol=1e-12)

    def test_single_client_keeps_its_own_model(self):
        server, clients = tiny_federation(seed=7, k=1)
        sgd = SgdConfig(0.2, 5, seed=3)
        new_server, new_clients, report = focus_round(server, clients, sgd)
        assert np.array_equal(new_server.global_model.values, new_clients[0].local_model.values)
        np.testing.assert_array_equal(report.c, [1.0])
        np.testing.assert_array_equal(report.w, [1.0])

    def test_partial_participation_redistributes_weight_mass(self):
        server, clients = tiny_federation(seed=9, k=4)
        sgd = SgdConfig(0.2, 3, seed=5)
        new_server, new_clients, report = focus_round(server, clients, sgd, participants=[0, 2])
        assert report.client_ids == (0, 2)
        # absent clients keep their weight and local model
        np.testing.assert_array_equal(new_server.weights[[1, 3]], server.weights[[1, 3]])
        assert np.array_equal(new_clients[1].local_model.values, clients[1].local_model.values)
        # total weight mass is conserved
        np.testing.assert_allclose(new_server.weights.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(report.w.sum(), server.weights[[0, 2]].sum(), atol=1e-12)

    def test_divergence_is_wrapped_with_round_index(self):
        server, clients = tiny_federation(seed=10, k=2)
        bad = ModelParams(server.global_model.arch, np.full(server.global_model.values.shape, 1.7e308))
        server = replace(server, global_model=bad)
        for round_fn in ROUND_FNS:
            with pytest.raises(RoundError) as excinfo:
                round_fn(server, clients, SgdConfig(0.5, 3, seed=0))
            assert excinfo.value.round_index == 1, round_fn.__name__

    def test_participants_without_stored_weight_are_degenerate(self):
        server, clients = tiny_federation(seed=12, k=3)
        server = replace(server, weights=[1.0, 0.0, 0.0])
        with pytest.raises(RoundError, match="round 1 failed") as excinfo:
            focus_round(server, clients, SgdConfig(0.2, 2, seed=0), participants=[1, 2])
        assert excinfo.value.round_index == 1
        assert isinstance(excinfo.value.__cause__, DegenerateCredibilityError)

    def test_rejects_mismatched_client_count_and_bad_participants(self):
        server, clients = tiny_federation(seed=11, k=3)
        sgd = SgdConfig(0.2, 2, seed=0)
        for round_fn in ROUND_FNS:
            with pytest.raises(InvalidInputError):
                round_fn(server, clients[:2], sgd)
            with pytest.raises(InvalidInputError):
                round_fn(server, clients, sgd, participants=[])
            with pytest.raises(InvalidInputError):
                round_fn(server, clients, sgd, participants=[0, 3])
            with pytest.raises(InvalidInputError):
                round_fn(server, clients, sgd, participants=[1, 1])

    def test_fractional_participants_are_rejected(self):
        server, clients = tiny_federation(seed=11, k=3)
        sgd = SgdConfig(0.2, 2, seed=0)
        with pytest.raises(InvalidInputError, match="participants must be a non-negative integer, got 0.5"):
            focus_round(server, clients, sgd, participants=[0.5, 1.7])
        _, _, report = focus_round(server, clients, sgd, participants=[2.0, 0.0])
        assert report.client_ids == (0, 2) and {type(k) for k in report.client_ids} == {int}
        ones = np.ones(2)
        with pytest.raises(InvalidInputError, match="client_ids must be a non-negative integer, got 0.9"):
            CredReport((0.9, 1.2), ones, ones, ones + ones, ones / 2, ones / 2)


class TestFedavgRound:
    def test_weights_stay_sample_proportional(self):
        server, clients = tiny_federation(seed=12, k=3)
        sgd = SgdConfig(0.2, 3, seed=1)
        s1, c1, rep = fedavg_round(server, clients, sgd)
        assert rep is None
        np.testing.assert_array_equal(s1.weights, server.weights)
        s2, _, _ = fedavg_round(s1, c1, sgd)
        np.testing.assert_array_equal(s2.weights, server.weights)

    def test_first_round_matches_focus_from_a_fresh_start(self):
        """From initialization both protocols aggregate with n_k/n, so their
        round-1 global models coincide; they diverge afterwards."""
        server_a, clients_a = tiny_federation(seed=13, k=3)
        server_b, clients_b = tiny_federation(seed=13, k=3)
        sgd = SgdConfig(0.3, 4, seed=6)
        s_focus, _, _ = focus_round(server_a, clients_a, sgd)
        s_fedavg, _, _ = fedavg_round(server_b, clients_b, sgd)
        np.testing.assert_allclose(
            s_focus.global_model.values, s_fedavg.global_model.values, atol=1e-12
        )


@pytest.fixture
def one_blas_thread():
    """OpenBLAS at one thread, as ``harness.run`` holds it, and the old count restored after."""
    blas = harness._blas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def round_bytes(server, clients, report):
    """Every model, weight and score a round produced, as bytes."""
    parts = [server.global_model.values.tobytes(), server.weights.tobytes(), repr(server.round).encode()]
    parts += [c.local_model.values.tobytes() for c in clients]
    if report is not None:
        parts.append(repr(report.client_ids).encode())
        parts += [getattr(report, name).tobytes() for name in ("ls", "ll", "e", "c", "w")]
    return parts


@contextlib.contextmanager
def core_budget(cores):
    """Let the rounds run in this block train on up to ``cores`` lanes, as ``harness.run`` does."""
    token = federation._CORES.set(cores)
    try:
        yield
    finally:
        federation._CORES.reset(token)


@pytest.fixture
def lanes_used(monkeypatch):
    """The lane count of every ``federation.fan_out`` call, in call order."""
    seen, real = [], federation.fan_out

    def spy(work, count, n, pool=None):
        seen.append(n)
        return real(work, count, n, pool)

    monkeypatch.setattr(federation, "fan_out", spy)
    return seen


# Five uneven shards, so lanes hold different participants and a lane's
# buffers are wider than some of its shards.  200 rows times 512 hidden
# units is above federation.LANE_MIN_WORK; the narrow case is far below it,
# so its tests lower the line to train it on lanes.
LANE_CASES = {
    "wide": dict(k=5, arch=ArchSpec(8, (512,), 3), n_per_client=(200, 230, 210, 240, 200)),
    "narrow": dict(k=5, arch=ArchSpec(3, (4,), 3), n_per_client=(24, 30, 20, 26, 24)),
}


class TestLanes:
    @pytest.mark.parametrize("case", sorted(LANE_CASES))
    def test_every_lane_count_gives_the_bytes_of_one(self, case, one_blas_thread, lanes_used, monkeypatch):
        server, clients = tiny_federation(seed=15, **LANE_CASES[case])
        # Round 3 with weights that differ, so focus aggregates with stored credibilities.
        server = replace(server, round=2, weights=[0.1, 0.3, 0.2, 0.25, 0.15])
        sgd = SgdConfig(0.3, 3, seed=0)
        trained, real = [], learner.client_update

        def counted(m, d, cfg, *rest):
            trained.append(d.n)
            return real(m, d, cfg, *rest)

        # Lanes call through the module attribute, so a tracer sees every call.
        monkeypatch.setattr(learner, "client_update", counted)
        if case == "narrow":
            monkeypatch.setattr(federation, "LANE_MIN_WORK", 1)
        # Five lanes is more threads than cores, and a short switch interval
        # interleaves them often, so a lost or misplaced result would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_fn in ROUND_FNS:
                outputs = []
                for lanes in (1, 2, 3, 5):
                    trained.clear()
                    lanes_used.clear()
                    with core_budget(lanes):
                        outputs.append(round_bytes(*round_fn(server, clients, sgd)))
                    assert lanes_used == [lanes], (round_fn.__name__, lanes)
                    assert sorted(trained) == sorted(c.n_k for c in clients), (round_fn.__name__, lanes)
                assert all(out == outputs[0] for out in outputs[1:]), round_fn.__name__
        finally:
            sys.setswitchinterval(interval)

    def test_the_lowest_failing_participant_raises_whatever_the_lanes(self, lanes_used, monkeypatch):
        """Participants 1 and 2 diverge.  With two or three lanes they train on
        different threads, and participant 2 fails first in time; the round
        must still raise participant 1's failure, as one lane does."""
        server, clients = tiny_federation(seed=16, k=5)
        server = replace(server, round=4)
        position = {id(c.data): c.id for c in clients}
        real, state, two_failed = learner.client_update, {"lanes": 1}, threading.Event()

        def diverge_on_one_and_two(m, d, cfg, *rest):
            k = position[id(d)]
            if k == 2:
                two_failed.set()
                raise TrainingDivergenceError("client 2 diverged", step=2)
            if k == 1:
                if state["lanes"] > 1:
                    assert two_failed.wait(10)
                raise TrainingDivergenceError("client 1 diverged", step=1)
            return real(m, d, cfg, *rest)

        monkeypatch.setattr(learner, "client_update", diverge_on_one_and_two)
        monkeypatch.setattr(federation, "LANE_MIN_WORK", 1)
        threads = threading.active_count()
        for lanes in (1, 2, 3):
            state["lanes"] = lanes
            two_failed.clear()
            lanes_used.clear()
            with core_budget(lanes), pytest.raises(RoundError) as excinfo:
                focus_round(server, clients, SgdConfig(0.3, 2))
            assert lanes_used == [lanes]
            exc = excinfo.value
            assert (str(exc), exc.round_index) == ("round 5 failed: client 1 diverged", 5), lanes
            assert isinstance(exc.__cause__, TrainingDivergenceError) and exc.__cause__.step == 1
            assert threading.active_count() == threads, lanes

    def test_a_direct_call_trains_on_one_lane(self, lanes_used):
        """Outside ``harness.run`` no core budget is set, so wide shards, which
        train on a lane per core under a budget, train on this thread alone."""
        server, clients = tiny_federation(seed=15, **LANE_CASES["wide"])
        sgd = SgdConfig(0.3, 1, seed=0)
        focus_round(server, clients, sgd)
        with core_budget(5):
            focus_round(server, clients, sgd)
        assert lanes_used == [1, 5]


class TestModelCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        for arch in (ArchSpec(4, (), 3), ArchSpec(6, (8, 5), 4)):
            m = init_params(arch, seed=17)
            path = tmp_path / f"model_{len(arch.hidden_dims)}.bin"
            save_model(m, str(path))
            back = load_model(str(path))
            assert back.arch == arch
            assert np.array_equal(back.values, m.values)

    def test_file_starts_with_magic(self, tmp_path):
        m = init_params(ArchSpec(2, (), 2), seed=0)
        path = tmp_path / "m.bin"
        save_model(m, str(path))
        assert path.read_bytes()[:8] == MODEL_MAGIC == b"FOCUSMP1"

    def test_corruption_is_rejected(self, tmp_path):
        m = init_params(ArchSpec(3, (4,), 2), seed=1)
        path = tmp_path / "m.bin"
        save_model(m, str(path))
        blob = path.read_bytes()
        (tmp_path / "bad.bin").write_bytes(b"XXXXXXXX" + blob[8:])
        with pytest.raises(InvalidInputError):
            load_model(str(tmp_path / "bad.bin"))
        (tmp_path / "short.bin").write_bytes(blob[:-8])
        with pytest.raises(InvalidInputError):
            load_model(str(tmp_path / "short.bin"))
        # Content errors name the file, as truncation errors do.
        for name, bad, message in [
            ("dim0.bin", blob[:8] + struct.pack("<I", 0) + blob[12:], "input_dim must be an integer >= 1, got 0"),
            ("nan.bin", blob[:-8] + struct.pack("<d", float("nan")), "parameter vector contains non-finite entries"),
        ]:
            (tmp_path / name).write_bytes(bad)
            with pytest.raises(InvalidInputError, match=f"^{re.escape(str(tmp_path / name))}: {re.escape(message)}$"):
                load_model(str(tmp_path / name))
