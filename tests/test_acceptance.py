"""Acceptance suite: the eleven gate checks for this package.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL (<detail>)` line
directly to the terminal (bypassing capture) and then asserts, so a plain
`pytest -v` shows the verdict for every criterion.

Criteria 4-9 and 11 share one battery (``run_battery``): for each master
seed 0..9, the default 4-client scenario is run with and without one fully
label-randomized client, under both aggregators, plus one multi-tier run.
Pairing means the two aggregators see byte-identical data, initialization,
and batch schedules.  Gates 05-09 are functions of the battery, so
``scripts/gate_envelope.py`` applies the same rules to other seeds.
"""

import time

import numpy as np
import pytest

from focusfl.cli import main
from focusfl.data import Dataset, NoiseSpec
from focusfl.federation import aggregate, aggregation_weights, credibilities
from focusfl.harness import ExperimentConfig, build_scenario, run_many
from focusfl.learner import ArchSpec, ModelParams, init_params, loss_and_grad

SEEDS = tuple(range(10))


def gate_line(num, name, ok, detail):
    """The one-line verdict of gate ``num``, as this suite and ``scripts/gate_envelope.py`` print it."""
    return f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"


def record(capsys, num, name, ok, detail):
    line = gate_line(num, name, ok, detail)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def rows_in_test_set(make_config):
    """Rows in the test set of a battery scenario, the same for every seed."""
    return build_scenario(make_config(0, "focus"))[2].n


def in_rows(gap, rows):
    """An accuracy gap as a count of test rows; accuracy moves in steps of 1/rows."""
    return f"{round(gap * rows, 1):g} of {rows} rows"


def noisy_config(seed, aggregator):
    """Default 4-client scenario with client 0 fully label-randomized."""
    return ExperimentConfig(
        aggregator=aggregator,
        master_seed=seed,
        noise=(NoiseSpec(kind="randomize", fraction=1.0, target_clients=(0,), seed=seed),),
    )


def normal_config(seed, aggregator):
    return ExperimentConfig(aggregator=aggregator, master_seed=seed)


def multi_tier_config(seed):
    """Three clients with label-noise fractions (0, 0, 0.5); the benchmark
    pool is split into equal benchmark and test halves."""
    return ExperimentConfig(
        aggregator="focus",
        samples_per_class=200,
        num_clients=3,
        test_fraction=0.125,
        benchmark_fraction=1.0 / 7.0,
        noise=(NoiseSpec(kind="randomize", fraction=0.5, target_clients=(2,), seed=seed),),
        master_seed=seed,
    )


def paired_runs(make_config, seeds):
    """``{seed: {"focus": result, "fedavg": result}}``, run through ``run_many``.

    The pair order alternates from seed to seed, so that when ``run_many``
    deals every other config to a worker, each process gets half of the
    slower ``focus`` runs.
    """
    order = [(s, agg) for i, s in enumerate(seeds) for agg in ("focus", "fedavg")[:: 1 - 2 * (i % 2)]]
    results = dict(zip(order, run_many([make_config(s, agg) for s, agg in order])))
    return {s: {agg: results[s, agg] for agg in ("focus", "fedavg")} for s in seeds}


def run_battery(seeds):
    """Every run that gates 04-09 and 11 read, for ``seeds``.

    ``noisy`` and ``normal`` map each seed to its focus/fedavg pair,
    ``multi_tier`` maps it to one focus run, and ``noisy_seconds`` is the
    wall time of the noisy pairs.
    """
    t0 = time.perf_counter()
    noisy = paired_runs(noisy_config, seeds)
    noisy_seconds = time.perf_counter() - t0
    normal = paired_runs(normal_config, seeds)
    multi_tier = dict(zip(seeds, run_many([multi_tier_config(s) for s in seeds])))
    return {"noisy": noisy, "normal": normal, "multi_tier": multi_tier, "noisy_seconds": noisy_seconds}


def noisy_scenario_direction(battery):
    """With one fully randomized client, the credibility-weighted run beats
    the sample-weighted baseline by >= 2 points in >= 9/10 seeds."""
    gaps = [p["focus"].final_accuracy - p["fedavg"].final_accuracy for p in battery["noisy"].values()]
    wins = sum(g >= 0.02 for g in gaps)
    elapsed = battery["noisy_seconds"]
    rows = rows_in_test_set(noisy_config)
    detail = (
        f"{wins}/{len(gaps)} seeds with gap >= 2pp, min {min(gaps):+.3f} ({in_rows(min(gaps), rows)}), "
        f"median {np.median(gaps):+.3f} ({in_rows(np.median(gaps), rows)}), {elapsed:.0f}s"
    )
    return wins >= 9 and elapsed < 300.0, detail


def normal_scenario_parity(battery):
    """Without noise the two aggregators stay within 1 point of each other
    in >= 9/10 seeds."""
    diffs = [abs(p["focus"].final_accuracy - p["fedavg"].final_accuracy) for p in battery["normal"].values()]
    close = sum(d <= 0.01 for d in diffs)
    rows = rows_in_test_set(normal_config)
    detail = f"{close}/{len(diffs)} seeds within 1pp, max |diff| {max(diffs):.3f} ({in_rows(max(diffs), rows)})"
    return close >= 9, detail


def weight_suppression(battery):
    """The randomized client's final weight falls below half the clean mean
    in every seed, while clean clients stay mutually within 20%."""
    weights = [np.array(p["focus"].final_weights) for p in battery["noisy"].values()]
    suppressed = sum(w[0] < 0.5 * w[1:].mean() for w in weights)
    balanced = sum(w[1:].max() <= 1.2 * w[1:].min() for w in weights)
    ratios = [w[0] / w[1:].mean() for w in weights]
    spreads = [w[1:].max() / w[1:].min() for w in weights]
    detail = (
        f"suppressed {suppressed}/{len(weights)} (worst noisy/clean {max(ratios):.3f}), "
        f"balanced {balanced}/{len(weights)} (worst clean max/min {max(spreads):.3f})"
    )
    return bool(suppressed == balanced == len(weights)), detail


def loss_signature(battery):
    """Declining to fit noise leaves a larger final federated training loss
    than averaging it in, in >= 8/10 seeds."""
    diffs = [p["focus"].final_fl_loss - p["fedavg"].final_fl_loss for p in battery["noisy"].values()]
    higher = sum(d > 0 for d in diffs)
    detail = f"{higher}/{len(diffs)} seeds with larger final fl_loss, min focus - fedavg {min(diffs):+.4f}"
    return higher >= 8, detail


def multi_tier_weight_ordering(battery):
    """With noise fractions (0, 0, 0.5), the half-noisy client ends with the
    strictly smallest weight in every seed."""
    weights = [r.final_weights for r in battery["multi_tier"].values()]
    smallest = sum(w[2] < w[0] and w[2] < w[1] for w in weights)
    margins = [min(w[0], w[1]) - w[2] for w in weights]
    return smallest == len(weights), f"{smallest}/{len(weights)} seeds, min margin {min(margins):+.4f}"


# Gates 05-09, each a function of a battery that returns ``(ok, detail)``.
BATTERY_GATES = {
    5: noisy_scenario_direction,
    6: normal_scenario_parity,
    7: weight_suppression,
    8: loss_signature,
    9: multi_tier_weight_ordering,
}


def battery_gate(num, battery):
    """``(num, name, ok, detail)`` of gate ``num`` on ``battery``: the arguments of ``gate_line``."""
    gate = BATTERY_GATES[num]
    return (num, gate.__name__.replace("_", "-"), *gate(battery))


@pytest.fixture(scope="module")
def battery():
    """The battery on seeds 0-9, read by criteria 4-9 and 11."""
    return run_battery(SEEDS)


class TestAcceptance:
    def test_01_gradient_oracle(self, capsys):
        """Analytic gradients match central finite differences (step 1e-4)
        within 1e-5 per coordinate on 100 random (model, batch) pairs."""
        rng = np.random.default_rng(20260815)
        archs = [
            ArchSpec(3, (), 2),
            ArchSpec(4, (5,), 3),
            ArchSpec(2, (4, 3), 2),
            ArchSpec(6, (8,), 4),
        ]
        step = 1e-4
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(100):
            arch = archs[trial % len(archs)]
            m = init_params(arch, seed=int(rng.integers(1 << 30)))
            n = int(rng.integers(2, 16))
            batch = Dataset(
                rng.standard_normal((n, arch.input_dim)),
                rng.integers(0, arch.num_classes, size=n),
                arch.num_classes,
            )
            reduction = "mean" if trial % 2 == 0 else "sum"
            _, grad = loss_and_grad(m, batch, reduction)
            for j in range(arch.parameter_count()):
                up = m.values.copy()
                up[j] += step
                down = m.values.copy()
                down[j] -= step
                lu, _ = loss_and_grad(ModelParams(arch, up), batch, reduction)
                ld, _ = loss_and_grad(ModelParams(arch, down), batch, reduction)
                worst = max(worst, abs(grad[j] - (lu - ld) / (2 * step)))
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-5 and elapsed < 10.0
        record(capsys, 1, "gradient-oracle", ok, f"max |analytic - fd| {worst:.2e}, {elapsed:.1f}s")

    def test_02_fedavg_reduction_oracle(self, capsys):
        """With all credibilities forced equal, credibility-weighted
        aggregation equals an independently coded sample-count average
        within 1e-12 per parameter on 50 random instances."""

        def fedavg_reference(models, sizes):
            # Deliberately plain Python: no shared code with the package.
            total = float(sum(sizes))
            acc = [0.0] * len(models[0].values)
            for m, n_k in zip(models, sizes):
                scale = n_k / total
                for j, v in enumerate(m.values):
                    acc[j] += scale * v
            return np.array(acc)

        rng = np.random.default_rng(7)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(50):
            k = int(rng.integers(1, 9))
            arch = ArchSpec(int(rng.integers(2, 6)), (int(rng.integers(2, 7)),), int(rng.integers(2, 5)))
            models = [init_params(arch, seed=int(rng.integers(1 << 30))) for _ in range(k)]
            sizes = rng.integers(1, 400, size=k).astype(float)
            equal_c = np.full(k, float(rng.uniform(0.05, 0.95)))
            w = aggregation_weights(sizes, equal_c)
            combined = aggregate(models, w)
            reference = fedavg_reference(models, sizes)
            worst = max(worst, float(np.max(np.abs(combined.values - reference))))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-12 and elapsed < 5.0
        record(capsys, 2, "fedavg-reduction-oracle", ok, f"max |diff| {worst:.2e}, {elapsed:.1f}s")

    def test_03_credibility_unit_values(self, capsys):
        """e=(1,2) at alpha=1 gives hand-computed complements of softmax within
        1e-9; equal scores give exactly 1 - 1/K within 1e-12 for any K."""
        c = credibilities(np.array([1.0, 2.0]), alpha=1.0)
        hand = np.array([0.7310585786300049, 0.2689414213699951])
        err_hand = float(np.max(np.abs(c - hand)))
        err_equal = 0.0
        for k in range(2, 11):
            ck = credibilities(np.full(k, 2.5), alpha=1.0)
            err_equal = max(err_equal, float(np.max(np.abs(ck - (1.0 - 1.0 / k)))))
        ok = err_hand <= 1e-9 and err_equal <= 1e-12
        record(capsys, 3, "credibility-unit-values", ok, f"hand err {err_hand:.2e}, equal-E err {err_equal:.2e}")

    def test_04_simplex_invariant(self, capsys, battery):
        """Every round of every acceptance run keeps weights non-negative and
        summing to 1 within 1e-9."""
        audited = 0
        worst = 0.0
        nonneg = True
        results = [r for seed in SEEDS for r in battery["noisy"][seed].values()]
        results += [r for seed in SEEDS for r in battery["normal"][seed].values()]
        results += list(battery["multi_tier"].values())
        for result in results:
            for m in result.metrics:
                if m.cred is not None:
                    audited += 1
                    worst = max(worst, abs(float(m.cred.w.sum()) - 1.0))
                    nonneg = nonneg and bool(np.all(m.cred.w >= 0))
            worst = max(worst, abs(sum(result.final_weights) - 1.0))
            nonneg = nonneg and all(w >= 0 for w in result.final_weights)
        ok = worst <= 1e-9 and nonneg and audited >= 50 * len(SEEDS)
        record(capsys, 4, "simplex-invariant", ok, f"{audited} rounds audited, worst |sum-1| {worst:.2e}")

    def test_05_noisy_scenario_direction(self, capsys, battery):
        record(capsys, *battery_gate(5, battery))

    def test_06_normal_scenario_parity(self, capsys, battery):
        record(capsys, *battery_gate(6, battery))

    def test_07_weight_suppression(self, capsys, battery):
        record(capsys, *battery_gate(7, battery))

    def test_08_loss_signature(self, capsys, battery):
        record(capsys, *battery_gate(8, battery))

    def test_09_multi_tier_weight_ordering(self, capsys, battery):
        record(capsys, *battery_gate(9, battery))

    def test_10_byte_identical_reruns(self, capsys, tmp_path, monkeypatch):
        """Running the CLI twice on one config yields byte-identical
        metrics.csv and credibility.csv."""
        monkeypatch.delenv("FOCUS_SEED", raising=False)
        config = tmp_path / "exp.cfg"
        config.write_text(
            "aggregator = focus\n"
            "master_seed = 0\n"
            "noise_kind = randomize\n"
            "noise_fraction = 1.0\n"
            "noise_clients = 0\n"
            "noise_seed = 0\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a = main(["run", "--config", str(config), "--out", str(out_a)])
        code_b = main(["run", "--config", str(config), "--out", str(out_b)])
        (dir_a,) = out_a.iterdir()
        (dir_b,) = out_b.iterdir()
        metrics_same = (dir_a / "metrics.csv").read_bytes() == (dir_b / "metrics.csv").read_bytes()
        cred_same = (dir_a / "credibility.csv").read_bytes() == (dir_b / "credibility.csv").read_bytes()
        ok = code_a == 0 and code_b == 0 and metrics_same and cred_same
        record(
            capsys,
            10,
            "byte-identical-reruns",
            ok,
            f"metrics.csv identical: {metrics_same}, credibility.csv identical: {cred_same}",
        )

    def test_11_message_accounting(self, capsys, battery):
        """Each round logs exactly 2K messages, and the uplink beyond model
        parameters is exactly one scalar per client."""
        result = battery["noisy"][0]["focus"]
        k = result.config.num_clients
        pcount = result.final_model.arch.parameter_count()
        by_round = {}
        for m in result.messages:
            by_round.setdefault(m.round, []).append(m)
        counts_ok = all(len(v) == 2 * k for v in by_round.values()) and len(by_round) == result.config.rounds
        uplink_ok = True
        downlink_ok = True
        for records in by_round.values():
            ups = [m for m in records if m.direction == "up"]
            downs = [m for m in records if m.direction == "down"]
            uplink_ok = uplink_ok and sorted(m.client for m in ups) == list(range(k))
            downlink_ok = downlink_ok and sorted(m.client for m in downs) == list(range(k))
            uplink_ok = uplink_ok and all(m.scalar_count == 1 and m.param_count == pcount for m in ups)
            downlink_ok = downlink_ok and all(m.scalar_count == 0 and m.param_count == pcount for m in downs)
        ok = counts_ok and uplink_ok and downlink_ok
        record(
            capsys,
            11,
            "message-accounting",
            ok,
            f"{len(result.messages)} messages over {result.config.rounds} rounds = 2x{k} per round, "
            f"uplink extra = 1 scalar",
        )
