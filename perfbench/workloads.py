"""The benchmark's workloads: the scenarios each experiment runs, made from a seed.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
imports ``focusfl`` from there, so the benchmark always measures the source
tree it sits in and never an installed copy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import focusfl  # noqa: E402
from focusfl import ExperimentConfig, NoiseSpec  # noqa: E402

if Path(focusfl.__file__).resolve().parent != SRC / "focusfl":
    raise ImportError(f"focusfl was imported from {focusfl.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``configs(seed)`` gives the runs of one experiment: two configs are run as
    a ``focusfl.compare`` pair, one as a single ``run``.  The first config is
    always the credibility-weighted ("focus") run.  ``noisy`` names the
    clients whose labels are corrupted.  The first ``core`` experiments of
    every benchmark run are always completed; the quality metrics, the exact
    counts and the artifact digest are taken from them alone, so they depend
    only on the workload seed and not on how many experiments fit in the time.
    """

    name: str
    core: int
    noisy: Tuple[int, ...]
    configs: Callable[[int], Tuple[ExperimentConfig, ...]]


def experiment_seed(workload_seed: int, index: int) -> int:
    """``master_seed`` of experiment ``index`` of a run with ``workload_seed``."""
    return int(np.random.SeedSequence([int(workload_seed), int(index)]).generate_state(1)[0])


def _paper_sweep(seed: int) -> Tuple[ExperimentConfig, ...]:
    # The paper's usc-noisy pair at the default size: K=4, 200-row shards,
    # an 836-parameter tanh-MLP, full batch, 50 local steps, 50 rounds.
    focus = ExperimentConfig(
        noise=(NoiseSpec(kind="randomize", fraction=1.0, target_clients=(0,), seed=seed),),
        master_seed=seed,
    )
    return focus, replace(focus, aggregator="fedavg")


def _wide_shards(seed: int) -> Tuple[ExperimentConfig, ...]:
    # 834-row shards and a 9,476-parameter model: each step is BLAS-bound.
    return (
        ExperimentConfig(
            num_clients=8,
            samples_per_class=2500,
            dim=32,
            hidden_dims=(256,),
            local_steps=20,
            rounds=5,
            noise=(NoiseSpec(kind="randomize", fraction=1.0, target_clients=(0, 1), seed=seed),),
            master_seed=seed,
        ),
    )


def _many_clients(seed: int) -> Tuple[ExperimentConfig, ...]:
    # 42-row shards, half the clients per round, 2 minibatch steps: scoring
    # and per-round bookkeeping dominate, not local SGD.
    return (
        ExperimentConfig(
            num_clients=64,
            samples_per_class=1000,
            batch_size=16,
            local_steps=2,
            rounds=100,
            participation_fraction=0.5,
            noise=(
                NoiseSpec(
                    kind="pairwise_flip",
                    fraction=0.8,
                    target_clients=tuple(range(8)),
                    seed=seed,
                    flip_map={0: 1, 1: 0, 2: 3, 3: 2},
                ),
            ),
            master_seed=seed,
        ),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-sweep", core=8, noisy=(0,), configs=_paper_sweep),
        Workload("wide-shards", core=3, noisy=(0, 1), configs=_wide_shards),
        Workload("many-clients", core=4, noisy=tuple(range(8)), configs=_many_clients),
    )
}
