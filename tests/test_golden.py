"""Golden pins: sha256 of the artifacts of fixed runs at master_seed 0.

A refactor or speed-up must leave every digest here unchanged.  A change
that alters numerics on purpose updates the pins and says why.

``report_long.csv`` is what ``focusfl report`` writes from a run dir; it is
pinned for the usc-noisy pair, one run with client weights and one without.
The message log is pinned too, as the sha256 of ``repr(result.messages)``:
``mixed/fedavg`` covers partial-participation FedAvg and
``mixed/local_baseline`` the empty log.
"""

import hashlib
from dataclasses import replace

import pytest

from focusfl import harness
from focusfl.cli import _scenario_runs, main
from focusfl.data import NoiseSpec
from focusfl.harness import ExperimentConfig, run, run_many, write_run_result

# Minibatch, partial participation and pairwise-flip noise in one small
# config.  Uneven client proportions make FedAvg's per-round renormalised
# weights differ from the stored n/sum(n) weights divided by their mass.
MIXED = ExperimentConfig(
    samples_per_class=60,
    num_clients=6,
    client_proportions=(0.1, 0.13, 0.17, 0.19, 0.2, 0.21),
    noise=(
        NoiseSpec(
            kind="pairwise_flip",
            fraction=0.8,
            target_clients=(0, 1),
            seed=7,
            flip_map={0: 1, 1: 0, 2: 3, 3: 2},
        ),
    ),
    hidden_dims=(8,),
    local_steps=3,
    batch_size=16,
    rounds=20,
    participation_fraction=0.5,
    master_seed=0,
)

# case -> {artifact: sha256, or None when the run does not write it}
PINS = {
    "usc-noisy/focus": {
        "metrics.csv": "5770acbef7196572d144e4fc5ca88a57821806e0bdd4273518e598a48d6f38ce",
        "credibility.csv": "e72de72a46947eb54c2f2eed8ed710fee8fd8337fd40b7ff45a66aae461de05e",
        "model.bin": "32b6d30ecef6dee0db9a30c8755049304a10f94717de674291b7ef3f5ddf9827",
        "report_long.csv": "9d63c3c99ba86566c86ffe6f83d4dc65c4e99d408f0c6660c520565736691ed1",
    },
    "usc-noisy/fedavg": {
        "metrics.csv": "d7d212fa3568a8911e24a5a892a2daf90a1af570c9c0c131dee59e0f4cfd75b7",
        "credibility.csv": None,
        "model.bin": "c09824be1aa659a143b7aa854d42e680320b3891afc787043f967e3428fda195",
        "report_long.csv": "3227ae3df62a1b4649e99d9942e7ac866eb3d0ff12c70bcaa0acccaa52b3aef7",
    },
    "usc-normal/focus": {
        "metrics.csv": "4cb592bedfb8adec6bf582a977d2241e30d6184c291073f7dd626539900d5489",
        "credibility.csv": "886b5a8275ccfc30bec8cfcf18e4ff120da547ed649b9a9aa01b6955f0a8a709",
        "model.bin": "02e151a1da106d3d21a06af0ba905971b7fdf03c4681ded2ba5a6f36104b1d08",
    },
    "usc-normal/fedavg": {
        "metrics.csv": "d834d8deaec2b08ebd6346659e8e5fb27ea541a1ef96be672b4fb596b9fc3c07",
        "credibility.csv": None,
        "model.bin": "7637f56dc8fd6d078505ba96d376ab95060155355f9ecd9b6ad93017360497a1",
    },
    "multi-tier/focus": {
        "metrics.csv": "0e913f03ed0bbea90b5679e3dfd7a2a5d98100cd46a00c2ef309033cf071f402",
        "credibility.csv": "6da61f5929ad86aa18f204fbe689563fcb504579aae1a56f853b5d78a6ee7b00",
        "model.bin": "822872d7fa2e26fa98a464965c0c85f93dac2c4bb2f360d90e2d61e506a1a14d",
    },
    "mixed/focus": {
        "metrics.csv": "ee710e32e63569d0904f55564a13ba4fe407f5482a352f0efa2cd20d55d52497",
        "credibility.csv": "948867a8c4c99711d317bceb7b73d070d9720cea4ee56d0debc0361fe08d5cfe",
        "model.bin": "8fc207535cfd04af39ea6f25f3f78e7632568333c346d508756a08c332907d46",
    },
    "mixed/fedavg": {
        "metrics.csv": "adb89f9199bf0420b0eb1be560a1594ace15f659b9d883c91c84422b980015f3",
        "credibility.csv": None,
        "model.bin": "be30f85e2252a8ae32253dc10938cd97710bf28b1deac8fe0c3d241120b13f0b",
    },
    "mixed/local_baseline": {
        "metrics.csv": "8e5ea13b54b33fb8fa56a7aca82e480a85dc5d060aa651d06337ce17ff8de455",
        "credibility.csv": None,
        "model.bin": None,
    },
}

# case -> sha256 of repr(result.messages)
MESSAGE_LOG_PINS = {
    "usc-noisy/focus": "5b50988fb1fbe617f9c4fa4d0509db69ec4e673dcd1586337b643d7fe8a706d0",
    "usc-noisy/fedavg": "6f5cf53227d8c16146cd6b4e44301258154666bf6e3882282532d180d41f691a",
    "usc-normal/focus": "5b50988fb1fbe617f9c4fa4d0509db69ec4e673dcd1586337b643d7fe8a706d0",
    "usc-normal/fedavg": "6f5cf53227d8c16146cd6b4e44301258154666bf6e3882282532d180d41f691a",
    "multi-tier/focus": "d286f94e9f4f753412c35d2fc1875ec9720d44a144f3577a8d65944e5f3eef26",
    "mixed/focus": "ece93f17c87050e7f03d848180c892809b4d756c3584384fae64b046c9574ec6",
    "mixed/fedavg": "e9c972ba7b38b18e7d5528730bbe7e57ebbbca3e4f955127e577a4fc20948525",
    "mixed/local_baseline": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
}


CASES = {
    f"{scenario}/{cfg.aggregator}": replace(cfg, master_seed=0)
    for scenario in ("usc-noisy", "usc-normal", "multi-tier")
    for cfg in _scenario_runs(scenario)
}
CASES.update({f"mixed/{agg}": replace(MIXED, aggregator=agg) for agg in ("focus", "fedavg", "local_baseline")})


def _message_log_digest(result):
    return hashlib.sha256(repr(result.messages).encode()).hexdigest()


def _digests(result, run_dir, names):
    """sha256 of each named file in the run dir after writing and reporting it."""
    write_run_result(result, run_dir)
    assert main(["report", str(run_dir)]) == 0
    out = {}
    for name in names:
        path = run_dir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_pins(case, tmp_path):
    result = run(CASES[case])
    assert _digests(result, tmp_path, PINS[case]) == PINS[case]
    assert _message_log_digest(result) == MESSAGE_LOG_PINS[case]


def test_run_many_matches_the_pins(tmp_path, monkeypatch):
    """Every pinned config, run through the parallel path, writes the pinned bytes."""
    monkeypatch.setattr(harness, "_workers", lambda jobs, cpus: 2)
    names = sorted(CASES)
    results = run_many([CASES[case] for case in names])
    got = {
        case: _digests(result, tmp_path / case.replace("/", "-"), PINS[case]) for case, result in zip(names, results)
    }
    assert got == {case: PINS[case] for case in names}
    assert {case: _message_log_digest(result) for case, result in zip(names, results)} == MESSAGE_LOG_PINS
