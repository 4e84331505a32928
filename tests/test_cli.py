"""Tests for the command-line interface and its config file format."""

import json
import struct
import subprocess
import sys

import pytest

from focusfl import federation, harness
from focusfl.cli import _scenario_runs, main, parse_config_text
from focusfl.data import DATASET_MAGIC, save_csv, synth_blobs
from focusfl.errors import ConfigurationError

FAST_CONFIG = """\
# small scenario used by the CLI tests
samples_per_class = 60
test_fraction = 0.25
benchmark_fraction = 0.2
hidden_dims = 8
learning_rate = 0.3
local_steps = 5
rounds = 3
aggregator = focus
master_seed = 0
"""


def fail_to_save(model, path):
    raise OSError("disk full")


def write_config(tmp_path, text=FAST_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_full_document_round_trips_into_config(self):
        cfg = parse_config_text(
            """
            num_classes = 3
            samples_per_class = 90
            dim = 5
            separation = 2.5
            num_clients = 2
            benchmark_fraction = 0.2
            test_fraction = 0.25
            hidden_dims = 16,8
            learning_rate = 0.05
            local_steps = 12
            batch_size = 32
            aggregator = fedavg
            rounds = 7
            alpha = 1.5
            reduction = sum
            standardize_e = false
            participation_fraction = 0.5
            master_seed = 11
            """
        )
        assert cfg.num_classes == 3
        assert cfg.hidden_dims == (16, 8)
        assert cfg.batch_size == 32
        assert cfg.aggregator == "fedavg"
        assert cfg.standardize_e is False
        assert cfg.participation_fraction == 0.5
        assert cfg.reduction == "sum"

    def test_comments_and_blank_lines_are_ignored(self):
        cfg = parse_config_text("# a comment\n\nrounds = 2  # trailing note\n")
        assert cfg.rounds == 2

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigurationError, match=r":3: unknown key 'lr'"):
            parse_config_text("rounds = 2\nalpha = 1.0\nlr = 0.5\n")

    def test_duplicate_key_is_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate key"):
            parse_config_text("rounds = 2\nrounds = 3\n")

    def test_bad_value_names_the_key_and_line(self):
        with pytest.raises(ConfigurationError, match=r":1: bad value for 'rounds'"):
            parse_config_text("rounds = soon\n")

    def test_missing_equals_is_rejected(self):
        with pytest.raises(ConfigurationError, match="expected 'key = value'"):
            parse_config_text("rounds 2\n")

    def test_empty_hidden_dims_means_softmax_regression(self):
        cfg = parse_config_text("hidden_dims =\n")
        assert cfg.hidden_dims == ()

    def test_batch_size_full_keyword(self):
        assert parse_config_text("batch_size = full\n").batch_size == "full"

    def test_noise_block_builds_a_spec(self):
        cfg = parse_config_text(
            "noise_kind = pairwise_flip\n"
            "noise_fraction = 0.5\n"
            "noise_clients = 0,2\n"
            "noise_seed = 7\n"
            "noise_flip_map = 0:1,1:0\n"
        )
        (spec,) = cfg.noise
        assert spec.kind == "pairwise_flip"
        assert spec.target_clients == (0, 2)
        assert spec.flip_map == {0: 1, 1: 0}

    def test_flip_map_rejects_a_repeated_source(self):
        with pytest.raises(ConfigurationError, match=":4: .*source class 0 is mapped twice"):
            parse_config_text(
                "noise_kind = pairwise_flip\n"
                "noise_fraction = 1.0\n"
                "noise_clients = 0\n"
                "noise_flip_map = 0:2,0:1,1:0\n"
            )

    def test_empty_flip_map_means_none(self):
        cfg = parse_config_text(
            "noise_kind = randomize\n"
            "noise_fraction = 0.5\n"
            "noise_clients = 1\n"
            "noise_flip_map =\n"
        )
        (spec,) = cfg.noise
        assert spec.kind == "randomize"
        assert spec.flip_map is None

    def test_partial_noise_block_is_rejected(self):
        with pytest.raises(ConfigurationError, match="noise settings require"):
            parse_config_text("noise_kind = randomize\n")

    def test_semantic_config_errors_carry_the_source_name(self):
        with pytest.raises(ConfigurationError, match="bad.cfg"):
            parse_config_text("rounds = 0\n", source="bad.cfg")


class TestCmdRun:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        run_dirs = list(out.iterdir())
        assert len(run_dirs) == 1
        run_dir = run_dirs[0]
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "credibility.csv").exists()
        assert (run_dir / "result.json").exists()
        assert (run_dir / "model.bin").exists()
        assert "final accuracy" in capsys.readouterr().out

    def test_stdout_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.replace(str(out), "<out>") == (
            "focus: 3 rounds, final accuracy 0.7167, final fl_loss 0.640488 -> <out>/d735620d763c\n"
            "focus: final client weights [0.2460 0.2576 0.2458 0.2507]\n"
        )

    def test_rerun_refuses_without_force(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "--force" in capsys.readouterr().err
        assert main(["run", "--config", config, "--out", str(out), "--force"]) == 0

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_dataset_file_exits_two_and_leaves_no_run_dir(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        config = write_config(tmp_path, text=FAST_CONFIG + f"dataset_file = {missing}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read dataset_file {missing}" in err
        assert err.count(str(missing)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["csv", "binary"])
    def test_dataset_file_with_no_feature_column_exits_two(self, tmp_path, capsys, kind):
        data = tmp_path / f"labels-only.{kind}"
        if kind == "csv":
            data.write_text("label\n0\n1\n0\n1\n")
        else:  # FOCUSDS1 header: n=4, dim=0, 2 classes; then four u32 labels
            data.write_bytes(DATASET_MAGIC + struct.pack("<III4I", 4, 0, 2, 0, 1, 0, 1))
        config = write_config(tmp_path, text=FAST_CONFIG + f"dataset_file = {data}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read dataset_file {data}" in err and "at least one column" in err
        assert not out.exists()

    def test_dataset_file_with_a_label_beyond_int64_exits_two(self, tmp_path, capsys):
        data = tmp_path / "huge-label.csv"
        data.write_text("f0,label\n0.0,100000000000000000000\n1.0,0\n")
        config = write_config(tmp_path, text=FAST_CONFIG + f"dataset_file = {data}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read dataset_file {data}" in err and "labels must lie in" in err
        assert not out.exists()

    def test_bad_config_exits_two(self, tmp_path, capsys):
        config = write_config(tmp_path, text="rounds = 0\n")
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "extra",
        [
            "alpha = nan\n",
            "alpha = inf\n",
            "hidden_dims = 0\ndataset_file = {data}\n",
            "noise_kind = randomize\nnoise_fraction = 0.5\nnoise_clients = 9\n",
            "noise_kind = randomize\nnoise_fraction = 0.5\nnoise_clients = 0\nnoise_seed = -1\n",
        ],
        ids=[
            "alpha-nan",
            "alpha-inf",
            "zero-width-with-dataset-file",
            "noise-target-out-of-range",
            "noise-seed-negative",
        ],
    )
    def test_values_a_run_would_reject_exit_two_before_running(self, tmp_path, capsys, extra):
        """Bad values that only a run used to reject (exit 3) are config errors."""
        data = tmp_path / "data.csv"
        save_csv(synth_blobs(2, 20, 2, 3.0, seed=0), str(data))
        text = FAST_CONFIG.replace("hidden_dims = 8\n", "") + extra.format(data=data)
        config = write_config(tmp_path, text=text)
        out = tmp_path / "o"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_exits_three(self, tmp_path, capsys):
        config = write_config(
            tmp_path, text=FAST_CONFIG.replace("learning_rate = 0.3", "learning_rate = 1e308").replace("hidden_dims = 8", "hidden_dims ="),
        )
        code = main(["run", "--config", config, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "round" in capsys.readouterr().err

    def test_failed_write_leaves_no_run_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(federation, "save_model", fail_to_save)
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 3
        assert "disk full" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_failed_forced_rewrite_keeps_the_old_run(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        (run_dir,) = out.iterdir()
        # A rerun writes the same bytes, so mark the old run to tell them apart.
        with open(run_dir / "metrics.csv", "a") as fh:
            fh.write("old run\n")
        before = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        monkeypatch.setattr(federation, "save_model", fail_to_save)
        assert main(["run", "--config", config, "--out", str(out), "--force"]) == 3
        assert list(out.iterdir()) == [run_dir]
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before

    def test_forced_rewrite_replaces_the_old_run(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        (run_dir,) = out.iterdir()
        fresh = (run_dir / "metrics.csv").read_bytes()
        (run_dir / "metrics.csv").write_bytes(fresh + b"old run\n")
        (run_dir / "stale.txt").write_text("left by the old run")
        assert main(["run", "--config", config, "--out", str(out), "--force"]) == 0
        assert list(out.iterdir()) == [run_dir]
        assert (run_dir / "metrics.csv").read_bytes() == fresh
        assert not (run_dir / "stale.txt").exists()

    def test_env_seed_overrides_master_seed(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        monkeypatch.setenv("FOCUS_SEED", "31")
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        (run_dir,) = out.iterdir()
        payload = json.loads((run_dir / "result.json").read_text())
        assert payload["config"]["master_seed"] == 31

    def test_malformed_env_seed_exits_two(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)
        monkeypatch.setenv("FOCUS_SEED", "not-a-seed")
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "FOCUS_SEED" in capsys.readouterr().err


class TestCmdReport:
    def test_report_prints_rounds_and_writes_long_csv(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", config, "--out", str(out)])
        capsys.readouterr()
        (run_dir,) = out.iterdir()
        assert main(["report", str(run_dir)]) == 0
        shown = capsys.readouterr().out
        lines = shown.strip().splitlines()
        assert lines[0].split() == ["round", "accuracy", "fl_loss", "w_client0", "w_client1", "w_client2", "w_client3"]
        # 3 rounds of data plus header plus trailing "wrote" line
        assert len(lines) == 1 + 3 + 1
        long_csv = (run_dir / "report_long.csv").read_text().splitlines()
        assert long_csv[0] == "series,round,value"
        series = {line.split(",")[0] for line in long_csv[1:]}
        assert series == {"accuracy", "fl_loss", "weight_client_0", "weight_client_1", "weight_client_2", "weight_client_3"}
        # every series has one row per round
        assert len(long_csv) - 1 == 6 * 3

    def test_partial_participation_stdout_is_pinned(self, tmp_path, capsys):
        """Clients that sat a round out show ``-`` in that round's weight cells."""
        text = FAST_CONFIG.replace("rounds = 3", "rounds = 4") + "participation_fraction = 0.5\n"
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, text=text), "--out", str(out)]) == 0
        capsys.readouterr()
        (run_dir,) = out.iterdir()
        assert main(["report", str(run_dir)]) == 0
        assert capsys.readouterr().out.replace(str(run_dir), "<run>") == (
            "round    accuracy       fl_loss   w_client0   w_client1   w_client2   w_client3\n"
            "    1    0.416667      1.344957           -    0.258108    0.241892           -\n"
            "    2    0.616667      0.902285    0.246255           -           -    0.253745\n"
            "    3    0.733333      0.706557           -    0.269663    0.230337           -\n"
            "    4    0.716667      0.628637    0.232686    0.283232           -           -\n"
            "wrote <run>/report_long.csv\n"
        )

    def test_report_without_weights_for_fedavg(self, tmp_path, capsys):
        config = write_config(tmp_path, text=FAST_CONFIG.replace("aggregator = focus", "aggregator = fedavg"))
        out = tmp_path / "out"
        main(["run", "--config", config, "--out", str(out)])
        capsys.readouterr()
        (run_dir,) = out.iterdir()
        assert main(["report", str(run_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["round", "accuracy", "fl_loss"]

    def test_empty_directory_exits_nonzero_with_message(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == 2
        assert "no result.json found" in capsys.readouterr().err


class TestCmdRepro:
    def test_multi_tier_scenario_writes_a_run_and_prints_weights(self, tmp_path, capsys):
        assert main(["repro", "multi-tier", "--out", str(tmp_path / "out")]) == 0
        shown = capsys.readouterr().out
        assert "multi-tier" in shown
        assert "final client weights" in shown
        run_dirs = list((tmp_path / "out").iterdir())
        assert len(run_dirs) == 1
        payload = json.loads((run_dirs[0] / "result.json").read_text())
        assert payload["config"]["num_clients"] == 3

    def test_usc_noisy_stdout_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["repro", "usc-noisy", "--out", str(out)]) == 0
        assert capsys.readouterr().out.replace(str(out), "<out>") == (
            "scenario usc-noisy (master_seed 0)\n"
            "focus: 50 rounds, final accuracy 0.7400, final fl_loss 0.038590 -> <out>/eb46a94a59f7\n"
            "focus: final client weights [0.0675 0.3108 0.3108 0.3109]\n"
            "fedavg: 50 rounds, final accuracy 0.6850, final fl_loss 0.019513 -> <out>/925688971243\n"
            "fedavg: final client weights [0.2500 0.2500 0.2500 0.2500]\n"
            "final accuracy delta (focus - fedavg): +0.0550\n"
        )

    def test_existing_run_dir_refuses_before_running_anything(self, tmp_path, capsys):
        """A pair whose second run dir exists writes neither run."""
        out = tmp_path / "out"
        focus_cfg, fedavg_cfg = _scenario_runs("usc-normal")
        fedavg_dir = out / harness.config_hash(fedavg_cfg)
        fedavg_dir.mkdir(parents=True)
        (fedavg_dir / "result.json").write_text("{}")
        assert main(["repro", "usc-normal", "--out", str(out)]) == 2
        assert "--force" in capsys.readouterr().err
        assert not (out / harness.config_hash(focus_cfg)).exists()
        assert sorted(out.iterdir()) == [fedavg_dir]

    def test_help_explains_out_and_force(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["repro", "--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "a run lands in <out>/<config-hash>/" in text
        assert "--force overwrite an existing completed run" in text

    def test_unknown_scenario_is_an_argparse_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["repro", "usc-sideways", "--out", str(tmp_path)])
        assert excinfo.value.code == 2


class TestConsoleScript:
    def test_module_entry_point_shows_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "focusfl.cli", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout and "repro" in proc.stdout and "report" in proc.stdout
