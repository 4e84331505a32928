"""Unit tests for scenario assembly, the experiment loop, and run output files."""

import json
import os
import re
from dataclasses import replace
from typing import get_type_hints

import numpy as np
import pytest

from focusfl import federation, harness
from focusfl.cli import main
from focusfl.data import DATASET_MAGIC, NoiseSpec
from focusfl.errors import (
    ConfigurationError,
    DegenerateCredibilityError,
    InvalidInputError,
    RoundError,
    TrainingDivergenceError,
)
from focusfl.federation import CredReport, load_model, model_test
from focusfl.harness import (
    CRED_CSV_HEADER,
    ExperimentConfig,
    RoundMetrics,
    RunResult,
    build_scenario,
    compare,
    config_hash,
    derive_seeds,
    fl_training_loss,
    load_credibility_csv,
    load_metrics_csv,
    run,
    write_run_result,
)
from focusfl.learner import ArchSpec, init_params

# A deliberately small scenario so harness tests stay fast.  240 rows split
# into a 60-row test set, a 36-row benchmark, and four 36-row client shards.
FAST = dict(
    samples_per_class=60,
    test_fraction=0.25,
    benchmark_fraction=0.2,
    hidden_dims=(8,),
    learning_rate=0.3,
    local_steps=5,
    rounds=4,
)


def fast_config(**overrides):
    kw = dict(FAST)
    kw.update(overrides)
    return ExperimentConfig(**kw)


class TestExperimentConfig:
    def test_bad_values_surface_as_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(aggregator="median")
        with pytest.raises(ConfigurationError, match=r"one of \('focus', 'fedavg'\), got 'local_baseline'"):
            ExperimentConfig(aggregator="local_baseline")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(rounds=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(participation_fraction=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(learning_rate=-0.5)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(test_fraction=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(alpha=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(reduction="max")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_classes=6, dim=3)  # too few dims for 6 means
        for alpha in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError, match="alpha"):
                ExperimentConfig(alpha=alpha)
        with pytest.raises(ConfigurationError, match="hidden_dims must be an integer >= 1, got 0"):
            ExperimentConfig(hidden_dims=(0,), dataset_file="data.csv")
        with pytest.raises(ConfigurationError, match="hidden_dims must be an integer"):
            ExperimentConfig(hidden_dims=(8.5,))
        with pytest.raises(ConfigurationError, match="at least one target client"):
            ExperimentConfig(noise=(NoiseSpec(kind="randomize", fraction=0.5),))
        with pytest.raises(ConfigurationError, match="noise targets client 9 but there are only 4 clients"):
            ExperimentConfig(noise=(NoiseSpec(kind="randomize", fraction=0.5, target_clients=(9,)),))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("num_classes", 4),
            ("samples_per_class", 60),
            ("dim", 8),
            ("num_clients", 4),
            ("local_steps", 5),
            ("batch_size", 16),
            ("rounds", 2),
            ("master_seed", 3),
        ],
    )
    def test_integer_fields_accept_integral_floats_only(self, name, value):
        """An integral float is stored as the int, so the two hash alike."""
        cfg = fast_config(**{name: float(value)})
        assert type(getattr(cfg, name)) is int
        assert config_hash(cfg) == config_hash(fast_config(**{name: value}))
        with pytest.raises(ConfigurationError, match=name):
            fast_config(**{name: value + 0.5})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("separation", 3),
            ("alpha", 1),
            ("participation_fraction", 1),
            ("standardize_e", 1),
            ("learning_rate", np.float32(0.5)),
        ],
    )
    def test_equal_values_share_the_default_hash(self, name, value):
        """Each field is stored as its annotated type, so equal values hash alike."""
        cfg = ExperimentConfig(**{name: value})
        assert config_hash(cfg) == config_hash(ExperimentConfig())
        assert type(getattr(cfg, name)) is type(getattr(ExperimentConfig(), name))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("learning_rate", "0.5"),
            ("alpha", "1"),
            ("benchmark_fraction", "0.2"),
            ("participation_fraction", "1"),
            ("standardize_e", "no"),
            ("hidden_dims", 5),
            ("hidden_dims", "64"),
            ("hidden_dims", {64: 1}),
            ("client_proportions", 0.5),
            ("noise", NoiseSpec(kind="randomize", fraction=0.5, target_clients=(0,))),
        ],
    )
    def test_values_of_the_wrong_type_are_configuration_errors(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be .*, got {re.escape(repr(value))}"):
            ExperimentConfig(**{name: value})

    def test_equal_noise_fractions_share_a_hash(self):
        def noisy(fraction):
            return ExperimentConfig(noise=(NoiseSpec(kind="randomize", fraction=fraction, target_clients=(0,)),))

        assert config_hash(noisy(1)) == config_hash(noisy(1.0))
        assert config_hash(noisy(np.float32(0.5))) == config_hash(noisy(0.5))

    def test_integer_dataset_file_is_rejected_not_read_as_a_descriptor(self, tmp_path):
        fd = os.open(tmp_path / "data.csv", os.O_RDONLY | os.O_CREAT)
        try:
            with pytest.raises(ConfigurationError, match="dataset_file must be a string"):
                ExperimentConfig(dataset_file=fd)
            os.fstat(fd)  # the caller's descriptor is still open
        finally:
            os.close(fd)

    def test_every_field_type_has_a_storage_rule(self):
        """Each annotated field type maps to the rule that checks and stores its value."""
        hints = get_type_hints(ExperimentConfig)
        assert {name: tp for name, tp in hints.items() if tp not in harness._FIELD_RULES} == {}

    def test_dataset_file_config_ignores_synthetic_shape_fields(self):
        """The file decides dim and num_classes, so their values are not checked."""
        cfg = ExperimentConfig(dataset_file="data.csv", dim=1, num_classes=9, hidden_dims=(4,))
        assert cfg.dim == 1

    def test_construction_never_runs_the_generator(self, monkeypatch):
        """The source's numbers are checked by rule, so a wide dim costs no dim x dim draw."""
        monkeypatch.setattr(harness, "synth_blobs", lambda *args, **kwargs: pytest.fail("the generator ran"))
        cfg = ExperimentConfig(dim=2000)
        assert replace(cfg, num_classes=9).num_classes == 9

    @pytest.mark.parametrize("size", [2**32, 2**32 - 1])
    def test_a_source_numpy_cannot_hold_is_a_configuration_error(self, size):
        with pytest.raises(ConfigurationError, match="num_classes"):
            ExperimentConfig(num_classes=size, dim=size)

    def test_derive_seeds_is_deterministic_and_spread(self):
        a = derive_seeds(123)
        b = derive_seeds(123)
        assert a == b
        assert len(set(a.values())) == len(a)
        assert set(a) == {"data", "partition", "init", "sgd", "participation"}
        assert derive_seeds(124) != a


class TestBuildScenario:
    def test_default_partition_sizes(self):
        server, clients, test = build_scenario(ExperimentConfig())
        assert test.n == 200
        assert server.benchmark.n == 200
        assert [c.n_k for c in clients] == [200, 200, 200, 200]

    def test_same_master_seed_gives_identical_data_across_aggregators(self):
        """Paired comparisons rely on the aggregator leaving data, init, and
        batching untouched."""
        a_server, a_clients, a_test = build_scenario(fast_config(aggregator="focus"))
        b_server, b_clients, b_test = build_scenario(fast_config(aggregator="fedavg"))
        assert np.array_equal(a_test.features, b_test.features)
        assert np.array_equal(a_server.benchmark.features, b_server.benchmark.features)
        assert np.array_equal(
            a_server.global_model.values, b_server.global_model.values
        )
        for ca, cb in zip(a_clients, b_clients):
            assert np.array_equal(ca.data.features, cb.data.features)
            assert np.array_equal(ca.data.labels, cb.data.labels)

    def test_noise_touches_only_target_clients(self):
        noise = (NoiseSpec(kind="randomize", fraction=1.0, target_clients=(1,), seed=3),)
        _, clean_clients, _ = build_scenario(fast_config())
        _, noisy_clients, _ = build_scenario(fast_config(noise=noise))
        for k in range(4):
            same = np.array_equal(noisy_clients[k].data.labels, clean_clients[k].data.labels)
            assert same == (k != 1)
        assert np.array_equal(noisy_clients[1].data.features, clean_clients[1].data.features)

    def test_one_spec_on_two_clients_uses_different_streams(self):
        noise = (NoiseSpec(kind="randomize", fraction=1.0, target_clients=(0, 1), seed=3),)
        _, clients, _ = build_scenario(fast_config(noise=noise))
        _, clean, _ = build_scenario(fast_config())
        flips0 = clients[0].data.labels != clean[0].data.labels
        flips1 = clients[1].data.labels != clean[1].data.labels
        assert not np.array_equal(flips0, flips1)

    def test_noise_target_out_of_range_is_rejected(self):
        noise = (NoiseSpec(kind="randomize", fraction=0.5, target_clients=(4,), seed=0),)
        with pytest.raises(ConfigurationError):
            build_scenario(fast_config(noise=noise))
        with pytest.raises(ConfigurationError):
            build_scenario(fast_config(noise=(NoiseSpec(kind="randomize", fraction=0.5),)))

    def test_dataset_file_round_trip(self, tmp_path):
        from focusfl.data import save_binary, save_csv, synth_blobs

        d = synth_blobs(num_classes=3, samples_per_class=80, dim=4, separation=3.0, seed=1)
        csv_path = tmp_path / "d.csv"
        bin_path = tmp_path / "d.bin"
        save_csv(d, str(csv_path))
        save_binary(d, str(bin_path))
        for path in (csv_path, bin_path):
            cfg = fast_config(dataset_file=str(path), num_clients=2)
            server, clients, test = build_scenario(cfg)
            total = test.n + server.benchmark.n + sum(c.n_k for c in clients)
            assert total == d.n
            assert server.global_model.arch.input_dim == 4
            assert server.global_model.arch.num_classes == 3


    def test_missing_dataset_file_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "missing.csv"
        cfg = fast_config(dataset_file=str(path))
        for call in (build_scenario, config_hash):
            with pytest.raises(ConfigurationError, match=f"cannot read dataset_file {path}") as excinfo:
                call(cfg)
            assert isinstance(excinfo.value.__cause__, FileNotFoundError)
            assert str(excinfo.value).count(str(path)) == 1, call.__name__

    def test_malformed_dataset_file_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n0.5,x\n")
        with pytest.raises(ConfigurationError, match=f"cannot read dataset_file {path}") as excinfo:
            build_scenario(fast_config(dataset_file=str(path)))
        assert isinstance(excinfo.value.__cause__, InvalidInputError)
        # The loader already names the file, so the message names it once.
        short = tmp_path / "short.bin"
        short.write_bytes(DATASET_MAGIC + b"\0")
        with pytest.raises(ConfigurationError) as excinfo:
            build_scenario(fast_config(dataset_file=str(short)))
        assert str(excinfo.value) == f"cannot read dataset_file {short}: truncated dataset file"


class TestRun:
    def test_metrics_cover_every_round_in_order(self):
        result = run(fast_config())
        assert [m.round for m in result.metrics] == [1, 2, 3, 4]
        for m in result.metrics:
            assert 0.0 <= m.test_accuracy <= 1.0
            assert np.isfinite(m.fl_loss)
            assert m.cred is not None
        assert result.final_accuracy == result.metrics[-1].test_accuracy

    def test_fedavg_rounds_produce_no_cred_reports(self):
        result = run(fast_config(aggregator="fedavg"))
        assert all(m.cred is None for m in result.metrics)
        np.testing.assert_allclose(result.final_weights, [0.25] * 4, atol=1e-12)

    def test_rerun_is_bitwise_identical(self):
        a = run(fast_config())
        b = run(fast_config())
        for ma, mb in zip(a.metrics, b.metrics):
            assert ma.test_accuracy == mb.test_accuracy
            assert ma.fl_loss == mb.fl_loss
            assert np.array_equal(ma.cred.w, mb.cred.w)
        assert np.array_equal(a.final_model.values, b.final_model.values)

    def test_different_seeds_differ(self):
        a = run(fast_config())
        b = run(fast_config(master_seed=1))
        assert a.final_model.values.tolist() != b.final_model.values.tolist()

    def test_message_accounting_focus(self):
        result = run(fast_config())
        assert all(m.participants == (0, 1, 2, 3) for m in result.metrics)
        assert result.messages_per_round == 8.0
        by_round = {}
        for m in result.messages:
            by_round.setdefault(m.round, []).append(m)
        assert set(by_round) == {1, 2, 3, 4}
        for records in by_round.values():
            assert len(records) == 8

    def test_messages_two_per_client_with_one_uplink_scalar(self):
        """Under ``focus`` every participant gets the model and sends it back
        with one scalar, and the participants are the clients scored."""
        result = run(fast_config(participation_fraction=0.5))
        pcount = result.final_model.arch.parameter_count()
        for m in result.metrics:
            assert len(m.participants) == 2 and m.participants == m.cred.client_ids
            records = [r for r in result.messages if r.round == m.round]
            expected = [("down", k, pcount, 0) for k in m.participants] + [("up", k, pcount, 1) for k in m.participants]
            assert [(r.direction, r.client, r.param_count, r.scalar_count) for r in records] == expected
        assert len(result.messages) == 2 * 2 * len(result.metrics)

    def test_uplink_carries_no_extra_scalar(self):
        result = run(fast_config(aggregator="fedavg", participation_fraction=0.5))
        rounds = {m.round: m.participants for m in result.metrics}
        for t, participants in rounds.items():
            records = [r for r in result.messages if r.round == t]
            assert len(records) == 2 * len(participants) == 4
            assert sorted(r.client for r in records if r.direction == "up") == list(participants)
            assert all(r.scalar_count == 0 for r in records)
        assert len(set(rounds.values())) > 1  # the draw varies by round

    def test_fl_training_loss_averages_local_models_on_own_shards(self):
        cfg = fast_config(rounds=1)
        result = run(cfg)
        server, clients, _ = build_scenario(cfg)
        seeds = derive_seeds(cfg.master_seed)
        from focusfl.federation import focus_round

        _, trained_clients, _ = focus_round(server, clients, cfg.sgd_config(seeds["sgd"]))
        manual = float(np.mean([model_test(c.local_model, c.data, "mean") for c in trained_clients]))
        assert result.metrics[0].fl_loss == manual
        assert fl_training_loss(trained_clients) == manual

    def test_fl_loss_rescores_only_clients_whose_model_changed(self, monkeypatch):
        """A client that sat a round out keeps its model, so its loss is reused."""
        from focusfl import federation

        scored = []
        real_scores = federation._scores

        def counting_scores(models, datasets, reduction):
            scored.extend(models)
            return real_scores(models, datasets, reduction)

        monkeypatch.setattr(federation, "_scores", counting_scores)
        run(fast_config(aggregator="fedavg", participation_fraction=0.5, rounds=5))
        # FedAvg scores no LL, so every pair is for the FL loss: each round's
        # two participants as the round makes their states, and the two
        # initial models that sat round 1 out, when round 1's loss reads them.
        assert len(scored) == 5 * 2 + 2

    def test_partial_participation_runs_and_keeps_simplex(self):
        result = run(fast_config(participation_fraction=0.5, rounds=6))
        for m in result.metrics:
            assert m.cred is not None
            assert len(m.cred.client_ids) == 2
        np.testing.assert_allclose(sum(result.final_weights), 1.0, atol=1e-9)

    def test_round_failure_carries_partial_metrics(self):
        with pytest.raises(RoundError) as excinfo:
            run(fast_config(learning_rate=1e308, hidden_dims=(), rounds=3))
        assert excinfo.value.round_index >= 1
        assert isinstance(excinfo.value.partial_metrics, tuple)
        assert len(excinfo.value.partial_metrics) == excinfo.value.round_index - 1


    def test_overflowing_credibility_fails_the_round(self):
        """A sum-reduced score times a huge alpha overflows float64 in round 1."""
        cfg = ExperimentConfig(
            alpha=1e308, standardize_e=False, reduction="sum", rounds=2, samples_per_class=30, local_steps=3
        )
        with pytest.raises(RoundError, match="round 1 failed") as excinfo:
            run(cfg)
        assert excinfo.value.round_index == 1
        assert excinfo.value.partial_metrics == ()
        assert isinstance(excinfo.value.__cause__, DegenerateCredibilityError)

    def test_training_divergence_in_round_2_carries_round_1_metrics(self, monkeypatch):
        """Four clients train per round, so the sixth update falls in round 2."""
        real_update, calls = harness.learner.client_update, []

        def diverge_on_sixth(m, d, sgd, *rest):
            calls.append(m)
            if len(calls) == 6:
                raise TrainingDivergenceError("non-finite loss", step=1)
            return real_update(m, d, sgd, *rest)

        monkeypatch.setattr(harness.learner, "client_update", diverge_on_sixth)
        with pytest.raises(RoundError, match="round 2 failed") as excinfo:
            run(fast_config(aggregator="fedavg"))
        assert excinfo.value.round_index == 2
        assert [m.round for m in excinfo.value.partial_metrics] == [1]
        assert isinstance(excinfo.value.__cause__, TrainingDivergenceError)


class TestCompare:
    def test_rejects_configs_differing_beyond_aggregator_and_noise(self):
        with pytest.raises(InvalidInputError):
            compare(fast_config(), fast_config(master_seed=5))
        with pytest.raises(InvalidInputError):
            compare(fast_config(), fast_config(rounds=5))

    def test_an_argument_that_is_not_a_config_is_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(harness, "_run", lambda cfg: pytest.fail("a run started"))
        monkeypatch.setattr(harness, "_workers", lambda jobs, cpus: pytest.fail("a fan-out started"))
        for call, name in [
            (lambda: run("x"), "cfg"),
            (lambda: harness.run_many(["x"]), "cfgs"),
            (lambda: harness.run_many([fast_config(), "x"]), "cfgs"),
            (lambda: harness.run_many(None), "cfgs"),
            (lambda: compare(fast_config(), "x"), "cfg_b"),
            (lambda: compare("x", fast_config()), "cfg_a"),
            (lambda: harness.build_scenario(None), "cfg"),
        ]:
            with pytest.raises(InvalidInputError, match=rf"^{name}\b"):
                call()

    def test_alignment_and_delta(self):
        noise = (NoiseSpec(kind="randomize", fraction=1.0, target_clients=(0,), seed=1),)
        cfg_a, cfg_b = fast_config(noise=noise), fast_config(aggregator="fedavg", noise=noise)
        report = compare(cfg_a, cfg_b)
        assert (report.result_a.config, report.result_b.config) == (cfg_a, cfg_b)
        assert report.result_a.final_weights != report.result_b.final_weights
        assert report.result_b.final_weights == (0.25, 0.25, 0.25, 0.25)

    def test_same_aggregator_with_different_noise_is_accepted_in_order(self):
        noise = (NoiseSpec(kind="randomize", fraction=0.5, target_clients=(0,), seed=1),)
        cfg_a, cfg_b = fast_config(), fast_config(noise=noise)
        report = compare(cfg_a, cfg_b)
        assert (report.result_a.config, report.result_b.config) == (cfg_a, cfg_b)


def fail_to_save(model, path):
    raise OSError("disk full")


class TestRunOutput:
    def test_config_hash_is_stable_and_sensitive(self):
        a = config_hash(fast_config())
        assert a == config_hash(fast_config())
        assert len(a) == 12 and set(a) <= set("0123456789abcdef")
        assert a != config_hash(fast_config(master_seed=1))
        assert a != config_hash(fast_config(aggregator="fedavg"))
        # Configs without a dataset file keep the hash (and run dir) they had
        # before file contents were folded in.
        assert config_hash(ExperimentConfig()) == "538274c35f1e"

    def test_config_hash_covers_dataset_file_content(self, tmp_path):
        path = tmp_path / "data.csv"
        cfg = fast_config(dataset_file=str(path))
        path.write_text("f0,label\n0.0,0\n1.0,1\n")
        first = config_hash(cfg)
        path.write_text("f0,label\n0.0,1\n1.0,0\n")
        assert config_hash(cfg) != first

    def test_written_files_round_trip(self, tmp_path):
        result = run(fast_config())
        out = tmp_path / "rundir"
        write_run_result(result, out)
        metrics = load_metrics_csv(out / "metrics.csv")
        assert len(metrics) == 4
        for (rnd, acc, loss), m in zip(metrics, result.metrics):
            assert rnd == m.round
            assert acc == m.test_accuracy  # repr round-trips exactly
            assert loss == m.fl_loss
        cred = load_credibility_csv(out / "credibility.csv")
        assert len(cred) == 4 * 4
        first = [row for row in cred if row[0] == 1]
        np.testing.assert_array_equal(
            [row[6] for row in first], result.metrics[0].cred.w
        )
        payload = json.loads((out / "result.json").read_text())
        assert payload["config_hash"] == config_hash(result.config)
        assert payload["final_accuracy"] == result.final_accuracy
        assert payload["rounds_completed"] == 4
        assert payload["checkpoint"] == "model.bin"
        assert payload["messages_per_round"] == 8.0
        restored = load_model(str(out / "model.bin"))
        assert np.array_equal(restored.values, result.final_model.values)

    def test_fedavg_run_writes_no_credibility_file(self, tmp_path):
        result = run(fast_config(aggregator="fedavg"))
        out = tmp_path / "fedavg_run"
        write_run_result(result, out)
        assert not (out / "credibility.csv").exists()
        assert (out / "metrics.csv").exists()

    def test_rewrite_replaces_the_whole_run_dir(self, tmp_path, capsys):
        """A fedavg run written over a focus run keeps none of its files."""
        out = tmp_path / "rundir"
        write_run_result(run(fast_config()), out)
        write_run_result(run(fast_config(aggregator="fedavg")), out)
        assert not (out / "credibility.csv").exists()
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "w_client" not in capsys.readouterr().out

    def test_failed_write_leaves_no_run_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(federation, "save_model", fail_to_save)
        out = tmp_path / "rundir"
        with pytest.raises(OSError, match="disk full"):
            write_run_result(run(fast_config()), out)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_the_old_run(self, tmp_path, monkeypatch):
        result = run(fast_config())
        out = tmp_path / "rundir"
        write_run_result(result, out)
        # A rewrite of the same result writes the same bytes, so mark the old run.
        with open(out / "metrics.csv", "a") as fh:
            fh.write("old run\n")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        monkeypatch.setattr(federation, "save_model", fail_to_save)
        with pytest.raises(OSError, match="disk full"):
            write_run_result(result, out)
        assert list(tmp_path.iterdir()) == [out]
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_missing_parent_dirs_are_created(self, tmp_path):
        out = tmp_path / "a" / "b" / "rundir"
        write_run_result(run(fast_config(rounds=1)), out)
        assert (out / "result.json").exists()
        assert list((tmp_path / "a" / "b").iterdir()) == [out]

    def test_malformed_metrics_file_is_rejected(self, tmp_path):
        bad = tmp_path / "metrics.csv"
        bad.write_text("not,the,header\n1,2,3\n")
        with pytest.raises(InvalidInputError):
            load_metrics_csv(bad)
        for row in ("1,0.5", "1,0.5,0.25,7", "1,half,0.25"):
            bad.write_text(f"round,accuracy,fl_loss\n{row}\n")
            with pytest.raises(InvalidInputError, match="malformed row"):
                load_metrics_csv(bad)


def _write_cred_report(run_dir, round_index, report):
    """Write a one-round run carrying ``report`` and return credibility.csv's lines."""
    result = RunResult(
        config=ExperimentConfig(),
        metrics=(RoundMetrics(round_index, 0.5, 1.0, report),),
        final_model=init_params(ArchSpec(8, (64,), 4), seed=0),
        final_weights=(1.0,),
        duration_seconds=0.0,
    )
    write_run_result(result, run_dir)
    return (run_dir / "credibility.csv").read_text(encoding="utf-8").splitlines()


class TestCredCsv:
    def test_rows_follow_the_header_layout(self, tmp_path):
        report = CredReport(
            (0, 1),
            np.array([1.0, 2.0]),
            np.array([0.5, 0.75]),
            np.array([1.5, 2.75]),
            np.array([0.6, 0.4]),
            np.array([0.7, 0.3]),
        )
        lines = _write_cred_report(tmp_path, 3, report)
        assert CRED_CSV_HEADER == "round,client,ls,ll,e,c,w"
        assert lines == [CRED_CSV_HEADER, "3,0,1.0,0.5,1.5,0.6,0.7", "3,1,2.0,0.75,2.75,0.4,0.3"]

    def test_values_round_trip_through_repr(self, tmp_path):
        report = CredReport(
            (5,),
            np.array([1.2345678901234567]),
            np.array([0.1]),
            np.array([1.2345678901234567 + 0.1]),
            np.array([0.3333333333333333]),
            np.array([1.0]),
        )
        _write_cred_report(tmp_path, 7, report)
        (row,) = load_credibility_csv(tmp_path / "credibility.csv")
        assert row == (7, 5, report.ls[0], report.ll[0], report.e[0], report.c[0], report.w[0])


class TestKnownLimits:
    def test_credibility_loses_its_effect_as_noisy_clients_multiply(self):
        """Characterizes the paper's ``1 - softmax`` credibility (README,
        "Known limits"): at K=8, 30 rounds, seed 0, one randomized client
        ends with 0.137x a clean client's weight, but three end with 0.788x,
        because the softmax mass is shared among all the high-E clients."""
        ratios = []
        for noisy in (1, 3):
            noise = NoiseSpec(kind="randomize", fraction=1.0, target_clients=tuple(range(noisy)))
            w = np.array(run(ExperimentConfig(num_clients=8, rounds=30, noise=(noise,))).final_weights)
            ratios.append(w[:noisy].mean() / w[noisy:].mean())
        assert ratios == [pytest.approx(0.137, abs=5e-4), pytest.approx(0.788, abs=5e-4)]
