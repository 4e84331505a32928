"""Independent runs in parallel: ``harness.run_many`` and what crosses its process boundary.

A pool worker hands its ``RunResult`` (or its exception) back by pickling, so
the values a run produces must come back from ``pickle`` intact: frozen
arrays frozen, and ``RoundError`` with its round index and partial metrics.
"""

import concurrent.futures
import multiprocessing
import pickle
import threading
from dataclasses import replace

import numpy as np
import pytest

from focusfl import federation, harness
from focusfl.data import Dataset, NoiseSpec
from focusfl.errors import ConfigurationError, RoundError, TrainingDivergenceError
from focusfl.federation import CredReport
from focusfl.harness import ExperimentConfig, RoundMetrics, run, run_many
from focusfl.learner import ArchSpec, init_params

# Small runs so the parallel path stays cheap: four 36-row shards, 4 rounds.
FAST = dict(
    samples_per_class=60,
    test_fraction=0.25,
    benchmark_fraction=0.2,
    hidden_dims=(8,),
    learning_rate=0.3,
    local_steps=5,
    rounds=4,
)
GOOD = ExperimentConfig(**FAST)
# A learning rate this large makes local training diverge.
DIVERGING = ExperimentConfig(**{**FAST, "learning_rate": 1e308, "hidden_dims": (), "rounds": 3})
# Wide enough that OpenBLAS splits its products across threads, which
# changes their rounding: computed at 1 and at 2 threads, this config's
# final model and scores differ (NumPy 2.4.6, OpenBLAS 0.3.31).
BLAS_SENSITIVE = ExperimentConfig(num_clients=2, samples_per_class=650, dim=32, hidden_dims=(256,), local_steps=2, rounds=1)
# One round of each benchmark workload's shape.  Rows per step times the
# widest layer: 833 x 256 (wide shards), 200 x 64 (the paper's default size)
# and 16 x 64 (many clients in mini-batches).
WIDE = ExperimentConfig(num_clients=8, samples_per_class=2500, dim=32, hidden_dims=(256,), local_steps=1, rounds=1)
PAPER_SHAPED = ExperimentConfig(local_steps=1, rounds=1)
MANY_SHAPED = ExperimentConfig(
    num_clients=64, samples_per_class=1000, batch_size=16, local_steps=2, rounds=1, participation_fraction=0.5
)


def round_trip(value):
    return pickle.loads(pickle.dumps(value))


def run_result_bytes(result):
    """Everything a run computed, as bytes; ``duration_seconds`` is left out."""
    parts = [repr(result.config), repr(result.final_weights), repr(result.messages_per_round), repr(result.messages)]
    if result.final_model is not None:
        parts.append(result.final_model.values.tobytes().hex())
    for m in result.metrics:
        parts.append(repr((m.round, m.test_accuracy, m.fl_loss)))
        if m.cred is not None:
            parts.append(repr(m.cred.client_ids))
            parts.extend(getattr(m.cred, name).tobytes().hex() for name in ("ls", "ll", "e", "c", "w"))
    return "\n".join(parts)


class TestPickling:
    def test_round_error_keeps_round_index_and_partial_metrics(self):
        partial = (RoundMetrics(1, 0.5, 1.25), RoundMetrics(2, 0.625, 1.0))
        err = round_trip(RoundError("round 3 failed: boom", round_index=3, partial_metrics=partial))
        assert type(err) is RoundError
        assert str(err) == "round 3 failed: boom"
        assert err.round_index == 3
        assert err.partial_metrics == partial

    def test_round_error_without_partial_metrics(self):
        err = round_trip(RoundError("x", round_index=3))
        assert err.round_index == 3 and err.partial_metrics is None

    def test_frozen_arrays_stay_frozen(self):
        model = init_params(ArchSpec(3, (4,), 2), seed=0)
        report = CredReport(
            client_ids=(0, 2),
            ls=[0.5, 1.5],
            ll=[0.25, 0.75],
            e=[0.75, 2.25],
            c=[0.8, 0.2],
            w=[0.7, 0.3],
        )
        data = Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 1]), 2)
        arrays = {
            "ModelParams.values": (model.values, round_trip(model).values),
            "Dataset.features": (data.features, round_trip(data).features),
            "Dataset.labels": (data.labels, round_trip(data).labels),
        }
        copy = round_trip(report)
        assert copy.client_ids == report.client_ids
        arrays.update({f"CredReport.{n}": (getattr(report, n), getattr(copy, n)) for n in ("ls", "ll", "e", "c", "w")})
        for name, (before, after) in arrays.items():
            assert after.dtype == before.dtype and after.tobytes() == before.tobytes(), name
            assert not after.flags.writeable, name

    def test_a_run_result_comes_back_equal_and_frozen(self):
        result = run(ExperimentConfig(**{**FAST, "rounds": 2}))
        copy = round_trip(result)
        assert run_result_bytes(copy) == run_result_bytes(result)
        assert not copy.final_model.values.flags.writeable
        assert not copy.metrics[-1].cred.w.flags.writeable


class TestWorkers:
    def test_never_more_processes_than_cores_or_configs(self):
        assert harness._workers(1, 2) == 1
        assert harness._workers(2, 2) == 2
        assert harness._workers(50, 2) == 2
        assert harness._workers(3, 4096) == 3
        assert harness._workers(10_000, 1) == 1

    def test_at_least_one_process(self):
        assert harness._workers(0, 2) == 1
        assert harness._workers(5, 0) == 1


@pytest.fixture
def two_workers(monkeypatch):
    """Force the parallel path: this process plus one pool worker."""
    monkeypatch.setattr(harness, "_workers", lambda jobs, cpus: 2)


class FakeBlas:
    """Stands in for the bundled OpenBLAS's thread-count getter and setter."""

    def __init__(self, threads):
        self.threads = threads
        self.history = []

    def get(self):
        return self.threads

    def set(self, n):
        self.history.append(n)
        self.threads = n


@pytest.fixture
def fake_blas(monkeypatch):
    """A FakeBlas at 7 threads, and the thread counts the scenario build and each accuracy call saw."""
    blas, seen = FakeBlas(threads=7), []
    monkeypatch.setattr(harness, "_blas_threads", lambda: (blas.get, blas.set))

    def spy(module, name):
        real = getattr(module, name)

        def call(*args):
            seen.append(blas.threads)
            return real(*args)

        monkeypatch.setattr(module, name, call)

    spy(harness, "build_scenario")
    spy(harness.learner, "accuracy")
    return blas, seen


@pytest.fixture
def two_blas_threads():
    """The real OpenBLAS at 2 threads for the test, and its old count restored after."""
    blas = harness._blas_threads()
    if blas is None:
        pytest.skip("the bundled OpenBLAS thread count cannot be set")
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(2)
    yield
    set_threads(threads)


class TestRunMany:
    def test_results_equal_serial_runs_in_input_order(self, two_workers):
        cfgs = [
            ExperimentConfig(**{**FAST, "master_seed": 1}),
            ExperimentConfig(**{**FAST, "master_seed": 1, "aggregator": "fedavg"}),
            ExperimentConfig(**{**FAST, "aggregator": "local_baseline"}),
        ]
        results = run_many(cfgs)
        assert multiprocessing.active_children() == []  # the pool is gone
        assert [r.config for r in results] == cfgs
        assert [run_result_bytes(r) for r in results] == [run_result_bytes(run(c)) for c in cfgs]
        assert not results[1].final_model.values.flags.writeable

    def test_this_process_runs_every_nth_config_itself(self, two_workers, monkeypatch):
        # In-process hooks (a profiler, a tracer) must see whole runs,
        # starting with the first config: the focus run of a compare pair.
        seen = []
        real = harness.run

        def spy(cfg):
            seen.append(cfg.master_seed)
            return real(cfg)

        monkeypatch.setattr(harness, "run", spy)
        run_many([ExperimentConfig(**{**FAST, "rounds": 1, "master_seed": s}) for s in range(5)])
        assert seen == [0, 2, 4]

    def test_empty_input_gives_no_results(self):
        assert run_many([]) == ()

    def test_first_failure_in_input_order_raises_like_run(self, two_workers):
        with pytest.raises(RoundError) as serial:
            run(DIVERGING)
        # The diverging config runs in the pool worker, both good ones here.
        with pytest.raises(RoundError) as parallel:
            run_many([GOOD, DIVERGING, GOOD])
        assert multiprocessing.active_children() == []
        assert type(parallel.value) is type(serial.value)
        assert str(parallel.value) == str(serial.value)
        assert parallel.value.round_index == serial.value.round_index
        assert parallel.value.partial_metrics == serial.value.partial_metrics
        # The pool rebuilds an exception with its own cause; the run's cause must survive.
        assert type(parallel.value.__cause__) is type(serial.value.__cause__) is TrainingDivergenceError
        assert parallel.value.__cause__.step == serial.value.__cause__.step

    def test_a_pool_failure_before_a_local_one_wins(self, two_workers, tmp_path):
        missing = ExperimentConfig(**FAST, dataset_file=str(tmp_path / "missing.csv"))
        # Index 1 fails in the pool worker, index 2 fails here; index 1 is first.
        with pytest.raises(RoundError):
            run_many([GOOD, DIVERGING, missing])

    def test_a_local_failure_before_a_pool_one_wins(self, two_workers, tmp_path):
        missing = ExperimentConfig(**FAST, dataset_file=str(tmp_path / "missing.csv"))
        with pytest.raises(ConfigurationError) as excinfo:
            run_many([missing, DIVERGING])
        assert isinstance(excinfo.value.__cause__, FileNotFoundError)

    def test_three_processes_split_the_configs_and_raise_the_first_failure(self, monkeypatch, tmp_path):
        if harness._blas_threads() is None:
            pytest.skip("without an adjustable OpenBLAS, run_many runs serially")
        monkeypatch.setattr(harness, "_workers", lambda jobs, cpus: 3)
        cfgs = [ExperimentConfig(**{**FAST, "rounds": 1, "master_seed": s}) for s in range(7)]
        results = run_many(cfgs)
        assert multiprocessing.active_children() == []
        assert [r.config for r in results] == cfgs
        assert [run_result_bytes(r) for r in results] == [run_result_bytes(run(c)) for c in cfgs]
        with pytest.raises(RoundError) as serial:
            run(DIVERGING)
        missing = ExperimentConfig(**FAST, dataset_file=str(tmp_path / "missing.csv"))
        # Index 4 diverges on lane 1; index 5, on lane 2, fails first in time,
        # since its dataset file is missing, but comes later in input order.
        with pytest.raises(RoundError) as parallel:
            run_many([GOOD, GOOD, GOOD, GOOD, DIVERGING, missing, GOOD])
        assert multiprocessing.active_children() == []
        assert str(parallel.value) == str(serial.value)
        assert parallel.value.round_index == serial.value.round_index
        assert type(parallel.value.__cause__) is TrainingDivergenceError
        assert parallel.value.__cause__.step == serial.value.__cause__.step

    def test_blas_threads_pinned_to_one_and_restored_after_return(self, fake_blas):
        # run holds the pin itself, so a lone run and run_many's runs compute alike.
        blas, seen = fake_blas
        run(GOOD)
        assert blas.history == [1, 7]
        assert seen == [1] * (1 + GOOD.rounds)  # the scenario build, then each round's accuracy

    def test_blas_threads_restored_after_raise(self, fake_blas):
        blas, seen = fake_blas
        with pytest.raises(RoundError):
            run(DIVERGING)
        assert blas.history == [1, 7]
        assert seen and set(seen) == {1}

    def test_a_lone_run_writes_the_bytes_of_a_parallel_one(self, two_workers, two_blas_threads):
        alone = run(BLAS_SENSITIVE)
        paired, _ = run_many([BLAS_SENSITIVE, GOOD])  # at most one extra process
        assert run_result_bytes(alone) == run_result_bytes(paired)

    def test_the_real_blas_thread_count_is_unchanged(self, two_workers):
        blas = harness._blas_threads()
        before = blas[0]() if blas else None
        run_many([GOOD, GOOD])
        assert (blas[0]() if blas else None) == before

    def test_runs_serially_without_an_adjustable_blas(self, two_workers, monkeypatch):
        monkeypatch.setattr(harness, "_blas_threads", lambda: None)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", lambda *a, **k: pytest.fail("forked"))
        results = run_many([GOOD, GOOD])
        assert run_result_bytes(results[0]) == run_result_bytes(results[1])

    def test_runs_serially_while_another_thread_is_alive(self, two_workers, monkeypatch):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", lambda *a, **k: pytest.fail("forked"))
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            results = run_many([GOOD, GOOD])
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert run_result_bytes(results[0]) == run_result_bytes(results[1])

    def test_one_config_runs_in_this_process(self, monkeypatch):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", lambda *a, **k: pytest.fail("one config needs no pool"))
        (result,) = run_many([GOOD])
        assert run_result_bytes(result) == run_result_bytes(run(GOOD))

    def test_compare_goes_through_run_many(self, monkeypatch):
        calls = []
        real = harness.run_many

        def spy(cfgs):
            cfgs = tuple(cfgs)
            calls.append(cfgs)
            return real(cfgs)

        monkeypatch.setattr(harness, "run_many", spy)
        noise = (NoiseSpec(kind="randomize", fraction=1.0, target_clients=(0,), seed=1),)
        focus = ExperimentConfig(**FAST, noise=noise)
        fedavg = ExperimentConfig(**FAST, noise=noise, aggregator="fedavg")
        harness.compare(focus, fedavg)
        assert calls == [(focus, fedavg)]


@pytest.fixture
def lanes_seen(monkeypatch):
    """Four usable cores, and the lane count of every ``federation.fan_out`` call this process makes."""
    monkeypatch.setattr(harness, "_usable_cores", lambda: 4)
    seen, real = [], federation.fan_out

    def spy(work, count, n, pool=None):
        seen.append(n)
        return real(work, count, n, pool)

    monkeypatch.setattr(federation, "fan_out", spy)
    return seen


class TestLanes:
    def test_a_lone_wide_run_trains_on_a_lane_per_core_or_participant(self, lanes_seen):
        if harness._blas_threads() is None:
            pytest.skip("the bundled OpenBLAS thread count cannot be set")
        run(WIDE)
        run(replace(WIDE, participation_fraction=0.25))
        assert lanes_seen == [4, 2]

    @pytest.mark.parametrize("cfg", [PAPER_SHAPED, MANY_SHAPED], ids=["paper-sweep", "many-clients"])
    def test_short_steps_train_on_one_lane(self, lanes_seen, cfg):
        run(cfg)
        assert lanes_seen == [1]

    def test_a_wide_run_without_the_blas_pin_trains_on_one_lane(self, lanes_seen, monkeypatch):
        monkeypatch.setattr(harness, "_blas_threads", lambda: None)
        run(WIDE)
        assert lanes_seen == [1]

    def test_run_many_runs_train_on_one_lane(self, lanes_seen):
        if harness._blas_threads() is None:
            pytest.skip("without an adjustable OpenBLAS, run_many runs serially")
        run_many([WIDE, WIDE])  # two processes; the second config runs in the pool worker
        harness._run_sharing_cores((WIDE,), 1, 0)
        run(WIDE)  # a lone run again
        # run_many's own fan-out over its two processes, then one round each.
        assert lanes_seen == [2, 1, 1, 4]

    def test_lanes_leave_no_thread_behind_and_run_many_still_forks(self, two_workers, lanes_seen, monkeypatch):
        threads = threading.active_count()
        server, clients, _ = harness.build_scenario(GOOD)
        monkeypatch.setattr(federation, "LANE_MIN_WORK", 1)  # GOOD's shards are far below the line
        token = federation._CORES.set(3)
        try:
            harness.focus_round(server, clients, GOOD.sgd_config(seed=0))
        finally:
            federation._CORES.reset(token)
        assert lanes_seen == [3]
        assert threading.active_count() == threads
        pools, real_pool = [], concurrent.futures.ProcessPoolExecutor

        def counted_pool(*args, **kwargs):
            pools.append(args)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", counted_pool)
        results = run_many([GOOD, GOOD])
        assert len(pools) == 1
        assert run_result_bytes(results[0]) == run_result_bytes(results[1])
