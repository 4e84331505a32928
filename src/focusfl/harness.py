"""Experiment harness: scenario assembly, training loops, runs on disk.

A scenario is described by one flat :class:`ExperimentConfig`.  All
randomness derives from ``master_seed`` through named sub-seeds (data
synthesis, partitioning, model init, SGD batching, participation), so two
runs that differ only in aggregator see byte-identical data, initial models,
and batch schedules.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union, get_type_hints

import numpy as np

from . import federation, learner
from .data import (
    DATASET_MAGIC,
    Dataset,
    NoiseSpec,
    PartitionPlan,
    blob_args,
    inject_noise,
    load_binary,
    load_csv,
    partition,
    read_csv,
    synth_blobs,
    write_csv,
)
from .errors import ConfigurationError, InvalidInputError, RoundError
from .errors import as_bool, as_int, as_items, as_positive, as_real, as_str
from .federation import (
    AGGREGATORS,
    ClientState,
    CredReport,
    MessageRecord,
    ServerState,
    fedavg_round,
    focus_round,
)
from .learner import ArchSpec, ModelParams, SgdConfig

METRICS_CSV_HEADER = "round,accuracy,fl_loss"
CRED_CSV_HEADER = "round,client,ls,ll,e,c,w"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs, in flat key=value form.

    Synthetic data is the default source; ``dataset_file`` (CSV or the binary
    container) overrides it, in which case the class count and feature width
    come from the file.  ``noise`` lists label corruptions applied to client
    shards after partitioning.
    """

    # data source
    num_classes: int = 4
    samples_per_class: int = 300
    dim: int = 8
    separation: float = 3.0
    dataset_file: Optional[str] = None
    # partitioning
    num_clients: int = 4
    benchmark_fraction: float = 0.2
    test_fraction: float = 1.0 / 6.0
    client_proportions: Optional[Tuple[float, ...]] = None
    # label noise
    noise: Tuple[NoiseSpec, ...] = ()
    # model and local optimizer
    hidden_dims: Tuple[int, ...] = (64,)
    learning_rate: float = 0.5
    local_steps: int = 50
    batch_size: Union[int, str] = "full"
    # protocol
    aggregator: str = "focus"
    rounds: int = 50
    alpha: float = 1.0
    reduction: str = "mean"
    standardize_e: bool = True
    participation_fraction: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        # Store every field as its annotated type, then surface bad nested
        # values now, as configuration errors, rather than midway through a run.
        try:
            for name, tp in _FIELD_TYPES.items():
                object.__setattr__(self, name, _FIELD_RULES[tp](name, getattr(self, name)))
            self.partition_plan(seed=0)
            self.sgd_config(seed=0)
            as_positive("alpha", self.alpha)
            learner.check_reduction(self.reduction)
            if self.dataset_file is None:  # else the file decides dim and num_classes
                blob_args(self.num_classes, self.samples_per_class, self.dim, self.separation)
        except InvalidInputError as exc:
            raise ConfigurationError(str(exc)) from exc
        if self.aggregator not in AGGREGATORS:
            raise ConfigurationError(f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}")
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be an integer >= 1, got {self.rounds}")
        if not (0.0 < self.participation_fraction <= 1.0):
            raise ConfigurationError(
                f"participation_fraction must lie in (0, 1], got {self.participation_fraction}"
            )
        for ns in self.noise:
            if not ns.target_clients:
                raise ConfigurationError("a noise spec must name at least one target client")
            for k in ns.target_clients:
                if k >= self.num_clients:
                    raise ConfigurationError(
                        f"noise targets client {k} but there are only {self.num_clients} clients"
                    )

    def partition_plan(self, seed: int) -> PartitionPlan:
        return PartitionPlan(
            num_clients=self.num_clients,
            benchmark_fraction=self.benchmark_fraction,
            test_fraction=self.test_fraction,
            seed=seed,
            client_proportions=self.client_proportions,
        )

    def sgd_config(self, seed: int) -> SgdConfig:
        return SgdConfig(
            learning_rate=self.learning_rate,
            local_steps=self.local_steps,
            batch_size=self.batch_size,
            seed=seed,
        )


def _instance_of(kind: type):
    """The value rule for a ``kind`` instance, which is stored as given."""

    def rule(name: str, value):
        if isinstance(value, kind):
            return value
        raise InvalidInputError(f"{name}: expected {kind.__name__}, got {value!r}")

    return rule


_as_config, _as_noise_spec = _instance_of(ExperimentConfig), _instance_of(NoiseSpec)


_FIELD_TYPES = get_type_hints(ExperimentConfig)

# How ExperimentConfig stores a value of each annotated field type, so that
# equal values share one config hash.  Ranges are left to the nested probes
# and the checks after them; only the hidden widths have no probe of their own.
_FIELD_RULES = {
    int: as_int,
    Union[int, str]: lambda name, value: value if isinstance(value, str) else as_int(name, value, 0),
    float: as_real,
    bool: as_bool,
    str: as_str,
    Optional[str]: lambda name, value: None if value is None else as_str(name, value),
    Tuple[int, ...]: lambda name, value: as_items(name, value, learner._as_width),
    Optional[Tuple[float, ...]]: lambda name, value: None if value is None else as_items(name, value, as_real),
    Tuple[NoiseSpec, ...]: lambda name, value: as_items(name, value, _as_noise_spec),
}


@dataclass(frozen=True)
class RoundMetrics:
    """What gets recorded after each round; ``participants`` are the clients that trained, sorted."""

    round: int
    test_accuracy: float
    fl_loss: float
    cred: Optional[CredReport] = None
    participants: Tuple[int, ...] = ()


@dataclass(frozen=True)
class RunResult:
    """Outcome of one full run: its per-round metrics, the final global model and the server's final weights."""

    config: ExperimentConfig
    metrics: Tuple[RoundMetrics, ...]
    final_model: ModelParams
    final_weights: Tuple[float, ...]
    duration_seconds: float

    @property
    def messages(self) -> Tuple[MessageRecord, ...]:
        """Per round, the model down to each participant, then each one's model up (plus ``LL`` under focus)."""
        pcount = self.final_model.arch.parameter_count()
        up_scalars = int(self.config.aggregator == "focus")
        return tuple(
            MessageRecord(m.round, direction, k, pcount, scalars)
            for m in self.metrics
            for direction, scalars in (("down", 0), ("up", up_scalars))
            for k in m.participants
        )

    @property
    def final_accuracy(self) -> float:
        return self.metrics[-1].test_accuracy

    @property
    def messages_per_round(self) -> float:
        return len(self.messages) / len(self.metrics)

    @property
    def final_fl_loss(self) -> float:
        return self.metrics[-1].fl_loss


def derive_seeds(master_seed: int) -> Dict[str, int]:
    """Named independent sub-seeds for every random stage of a run."""
    ss = np.random.SeedSequence(int(master_seed))
    names = ("data", "partition", "init", "sgd", "participation")
    state = ss.generate_state(len(names), dtype=np.uint64)
    return {name: int(value) for name, value in zip(names, state)}


def _dataset_file_error(path: str, exc: Exception) -> ConfigurationError:
    """An unreadable ``dataset_file``'s error, naming the path once: an ``OSError`` adds only its ``strerror``."""
    reason = getattr(exc, "strerror", None) or str(exc)
    return ConfigurationError(f"cannot read dataset_file {path}: {reason}")


def _load_dataset_file(path: str) -> Dataset:
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(DATASET_MAGIC))
        return load_binary(path) if head == DATASET_MAGIC else load_csv(path)
    except InvalidInputError as exc:  # the loaders name the file in their own errors
        raise ConfigurationError(f"cannot read dataset_file {exc}") from exc
    except (OSError, ValueError) as exc:  # a bad text encoding is a ValueError
        raise _dataset_file_error(path, exc) from exc


def build_scenario(cfg: ExperimentConfig) -> Tuple[ServerState, Tuple[ClientState, ...], Dataset]:
    """Materialize (server, clients, test set) for a config.

    Applies, in order: data synthesis or load, partitioning, label noise on
    the targeted client shards, model init, and the server, with
    sample-proportional initial weights.  Noise seeds are
    decorrelated per client so one spec aimed at several clients does not
    reuse one random stream.
    """
    cfg = _as_config("cfg", cfg)
    seeds = derive_seeds(cfg.master_seed)
    if cfg.dataset_file is not None:
        source = _load_dataset_file(cfg.dataset_file)
    else:
        source = synth_blobs(
            num_classes=cfg.num_classes,
            samples_per_class=cfg.samples_per_class,
            dim=cfg.dim,
            separation=cfg.separation,
            seed=seeds["data"],
        )
    shards, bench, test = partition(source, cfg.partition_plan(seed=seeds["partition"]))
    shards = list(shards)
    for ns in cfg.noise:
        for k in ns.target_clients:
            child_seed = int(np.random.SeedSequence([ns.seed, k]).generate_state(1, dtype=np.uint64)[0])
            try:
                shards[k] = inject_noise(shards[k], replace(ns, target_clients=(), seed=child_seed))
            except InvalidInputError as exc:
                raise ConfigurationError(f"noise spec for client {k}: {exc}") from exc
    arch = ArchSpec(source.dim, cfg.hidden_dims, source.num_classes)
    global0 = learner.init_params(arch, seeds["init"])
    clients = tuple(
        ClientState(id=k, data=shard, local_model=global0) for k, shard in enumerate(shards)
    )
    n = np.array([shard.n for shard in shards], dtype=np.float64)
    server = ServerState(
        global_model=global0,
        benchmark=bench,
        weights=n / n.sum(),
        alpha=cfg.alpha,
        reduction=cfg.reduction,
        standardize_e=cfg.standardize_e,
    )
    return server, clients, test


def fl_training_loss(clients: Sequence[ClientState]) -> float:
    """Mean over clients of each local model's mean cross-entropy on its shard
    (:attr:`ClientState.loss`)."""
    return float(np.mean([c.loss for c in clients]))


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute a full experiment and return its metrics and final model.

    The run computes on one OpenBLAS thread, since the thread count changes
    how wide matrix products round; the caller's (process-wide) count is
    restored afterwards.  With that pin in place, a run that is not one of
    :func:`run_many`'s parallel runs lets a round train on one thread per
    usable core (see :func:`federation.focus_round`).  The lane count
    changes no output.  A failed round is re-raised as :class:`RoundError`
    carrying the metrics of all completed rounds in ``partial_metrics``.
    """
    cfg = _as_config("cfg", cfg)
    blas = _blas_threads()
    if blas is None:
        return _run(cfg)
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    # A budget already set is run_many's one core for each of its parallel runs.
    token = federation._CORES.set(federation._CORES.get(_usable_cores()))
    try:
        return _run(cfg)
    finally:
        federation._CORES.reset(token)
        set_threads(threads)


def _run(cfg: ExperimentConfig) -> RunResult:
    """:func:`run`'s body.  A round's ``fl_loss`` covers every client; one that
    sat the round out keeps its state, so its loss is not scored again."""
    seeds = derive_seeds(cfg.master_seed)
    server, clients, test = build_scenario(cfg)
    sgd = cfg.sgd_config(seed=seeds["sgd"])
    # Looked up in this module per run, so that a round function wrapped here is the one called.
    round_fn = {"focus": focus_round, "fedavg": fedavg_round}[cfg.aggregator]
    k = len(clients)
    size = max(1, int(round(cfg.participation_fraction * k)))
    prng = np.random.default_rng(seeds["participation"])
    metrics: List[RoundMetrics] = []
    start = time.perf_counter()
    try:
        for t in range(1, cfg.rounds + 1):
            participants = tuple(np.sort(prng.choice(k, size=size, replace=False)).tolist())
            server, clients, cred = round_fn(server, clients, sgd, participants)
            acc = learner.accuracy(server.global_model, test)
            metrics.append(RoundMetrics(t, acc, fl_training_loss(clients), cred, participants))
    except RoundError as exc:
        exc.partial_metrics = tuple(metrics)
        raise
    duration = time.perf_counter() - start
    return RunResult(
        config=cfg,
        metrics=tuple(metrics),
        final_model=server.global_model,
        final_weights=tuple(float(w) for w in server.weights),
        duration_seconds=duration,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """The runs of the two configs given to :func:`compare`, in that order."""

    result_a: RunResult
    result_b: RunResult


def compare(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig) -> ComparisonReport:
    """Run two configs that differ only in aggregator and/or noise.

    Anything else differing between the configs would confound the
    comparison, so it is rejected.
    """
    cfg_a, cfg_b = _as_config("cfg_a", cfg_a), _as_config("cfg_b", cfg_b)
    a, b = asdict(cfg_a), asdict(cfg_b)
    diff = sorted(key for key in a if a[key] != b[key] and key not in ("aggregator", "noise"))
    if diff:
        raise InvalidInputError(f"configs may differ only in aggregator and noise; they also differ in {diff}")
    return ComparisonReport(*run_many((cfg_a, cfg_b)))


# ---------------------------------------------------------------------------
# Independent runs in parallel
# ---------------------------------------------------------------------------


def _workers(jobs: int, cpus: int) -> int:
    """Processes or threads for ``jobs`` independent jobs on ``cpus`` cores: at most one per job and per core."""
    return max(1, min(jobs, cpus))


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity mask, or 1 off Linux."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@functools.cache
def _blas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS bundled with NumPy, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def _run_sharing_cores(cfgs: Sequence[ExperimentConfig], lane: int, j: int) -> RunResult:
    """``run(cfgs[j])`` as one of :func:`run_many`'s parallel runs, which train on one lane each."""
    token = federation._CORES.set(1)
    try:
        # Looked up per call: ``run`` may have been wrapped.
        return run(cfgs[j])
    finally:
        federation._CORES.reset(token)


def run_many(cfgs: Sequence[ExperimentConfig]) -> Tuple[RunResult, ...]:
    """Run independent configs, several at a time where the host allows.

    With ``n`` usable cores (at most one per config), the configs run on
    ``n`` lanes of :func:`federation.fan_out`: this process runs
    ``cfgs[0::n]`` itself, and forked process ``i``, for ``i`` from 1 to
    ``n - 1``, runs ``cfgs[i::n]``.  Every :func:`run` holds OpenBLAS at
    one thread, and these runs train on one lane each, so the processes do
    not oversubscribe the cores.  The configs run one after another in this
    process instead, as lone runs, when there is one core, no CPU affinity
    mask (off Linux), no OpenBLAS thread count to set, or another live
    Python thread, which would make forking unsafe.  Either way the results
    come back in input order, and a failure surfaces as in a serial loop:
    once every lane is done, the first failing config in input order raises
    its own exception.
    """
    cfgs = as_items("cfgs", cfgs, _as_config)
    n = _workers(len(cfgs), _usable_cores())
    if n == 1 or threading.active_count() > 1 or _blas_threads() is None:
        return tuple(run(cfg) for cfg in cfgs)

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(n - 1, mp_context=multiprocessing.get_context("fork"))
    return tuple(federation.fan_out(functools.partial(_run_sharing_cores, cfgs), len(cfgs), n, pool))


# ---------------------------------------------------------------------------
# Runs on disk
# ---------------------------------------------------------------------------


def config_hash(cfg: ExperimentConfig) -> str:
    """Short stable fingerprint of a run's inputs (12 hex chars of sha256).

    It covers every config field and, when ``dataset_file`` is set, the
    sha256 of that file's bytes, so two different files at one path do not
    share a hash or a run directory.
    """
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    if cfg.dataset_file is not None:
        try:
            canonical += hashlib.sha256(Path(cfg.dataset_file).read_bytes()).hexdigest()
        except OSError as exc:
            raise _dataset_file_error(cfg.dataset_file, exc) from exc
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def write_run_result(result: RunResult, run_dir) -> None:
    """Write metrics.csv, credibility.csv, result.json, and the checkpoint.

    The files go to ``<run_dir>.tmp/``, renamed to ``run_dir`` once all are
    written, so ``run_dir`` holds the whole run or what it held before.  An
    old directory there is replaced whole, and deleted only after the rename.
    CSV floats use ``repr``, so rerunning an identical config reproduces the
    files byte for byte.  ``credibility.csv`` is only written when at least
    one round produced a scoring report.
    """
    run_dir = Path(run_dir)
    tmp, old = (run_dir.with_name(run_dir.name + suffix) for suffix in (".tmp", ".old"))
    for stale in (tmp, old):  # left by a write that was killed
        shutil.rmtree(stale, ignore_errors=True)
    try:
        _write_run_files(result, tmp)
        if run_dir.exists():
            run_dir.rename(old)
        tmp.rename(run_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)


def _write_run_files(result: RunResult, run_dir: Path) -> None:
    run_dir.mkdir(parents=True)

    metrics_rows = [(m.round, m.test_accuracy, m.fl_loss) for m in result.metrics]
    write_csv(run_dir / "metrics.csv", METRICS_CSV_HEADER, metrics_rows)
    cred_rows = [
        (m.round, k, m.cred.ls[j], m.cred.ll[j], m.cred.e[j], m.cred.c[j], m.cred.w[j])
        for m in result.metrics
        if m.cred is not None
        for j, k in enumerate(m.cred.client_ids)
    ]
    if cred_rows:
        write_csv(run_dir / "credibility.csv", CRED_CSV_HEADER, cred_rows)

    federation.save_model(result.final_model, str(run_dir / "model.bin"))

    summary = {
        "config": asdict(result.config),
        "config_hash": config_hash(result.config),
        "rounds_completed": len(result.metrics),
        "final_accuracy": result.final_accuracy,
        "final_fl_loss": result.final_fl_loss,
        "final_weights": list(result.final_weights),
        "messages_per_round": result.messages_per_round,
        "duration_seconds": result.duration_seconds,
        "checkpoint": "model.bin",
    }
    (run_dir / "result.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_metrics_csv(path) -> List[Tuple[int, float, float]]:
    """Read a metrics.csv back into (round, accuracy, fl_loss) tuples."""
    return read_csv(path, METRICS_CSV_HEADER)


def load_credibility_csv(path) -> List[Tuple[int, int, float, float, float, float, float]]:
    """Read a credibility.csv back into (round, client, ls, ll, e, c, w) tuples."""
    return read_csv(path, CRED_CSV_HEADER)
