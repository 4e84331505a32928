"""Golden pins: sha256 of the artifacts of fixed runs at master_seed 0.

A refactor or speed-up must leave every digest here unchanged.  A change
that alters numerics on purpose updates the pins and says why.

``report_long.csv`` is what ``focusfl report`` writes from a run dir; it is
pinned for the usc-noisy pair and the two mixed runs.  ``mixed/focus``
covers clients that sat rounds out; the others have no client weights.
The message log is pinned too, as the sha256 of ``repr(result.messages)``:
``mixed/fedavg`` covers partial-participation FedAvg.
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
        "metrics.csv": "a3a36b0c30eb4c6bc94b1a310e5122774342510f30ac7f19393c80862641b735",
        "credibility.csv": "7472cc9118a975d508752224b1734c1bd52734662a6fc7c9fed4c37beb2bcf01",
        "model.bin": "614204e2cfc71e812d61e4b764a682fdf48ba86102be9a6ed6a52d01ae2b5970",
        "report_long.csv": "4f24e7f011aba11f43c0147a3a31d7d84037849184883ebf0ca849fd26db6cb8",
    },
    "usc-noisy/fedavg": {
        "metrics.csv": "82037873a73aef4646e7733535a62d5ea9cf5ad243f93bdaec04cdb2fe3778fc",
        "credibility.csv": None,
        "model.bin": "c09824be1aa659a143b7aa854d42e680320b3891afc787043f967e3428fda195",
        "report_long.csv": "223dce2c8441002d830715af2609ae4ea171161df045598f51c65ff6f03e70b5",
    },
    "usc-normal/focus": {
        "metrics.csv": "8a64ffe38812d7658e167f3e5a9e4b478caf16ebfece3b9bf542ee58e9b3fb4c",
        "credibility.csv": "f219eeb12a25398fedb50d6dff9a5a23f7f5954801e5e141a51e1a2b9dc79d31",
        "model.bin": "b96f8182c004843e4d2dd9f33f0d789c5c8c7fe08356f81749ccd9b51cedc4da",
    },
    "usc-normal/fedavg": {
        "metrics.csv": "973768b02dd4d9b6d8b9f5e69ff46572debef2090022e3c062541bc8ffd6b028",
        "credibility.csv": None,
        "model.bin": "7637f56dc8fd6d078505ba96d376ab95060155355f9ecd9b6ad93017360497a1",
    },
    "multi-tier/focus": {
        "metrics.csv": "dcc249537ea4e4c9baaf95cb6ad5111eba0c3b3010c9f3a29306e784f27f36de",
        "credibility.csv": "23b69928ca6873ad58d627faf0e43ce2ed8dfe7d7492a1ad5fd86e01da46d258",
        "model.bin": "6775e1a417346e35329d0c1622ab94790a5f9e75c38b6083a2b76662b1e5e53e",
    },
    "mixed/focus": {
        "metrics.csv": "9b92546c25000fa3064ff78bc2698a860b2c2f94bcead3a76c956ab7758e5475",
        "credibility.csv": "16d615873321c979b27043818d0167b306a44263b9071b682f49a4d413d87fb2",
        "model.bin": "ac87fceb301b9a08321aa9f891d43a5704e2a833cdf476cc0a8fd236262b0907",
        "report_long.csv": "74e530cee189502758594449a5e6975a3c9d80bc31a60d9163c0f17008606d62",
    },
    "mixed/fedavg": {
        "metrics.csv": "d1376fec14ec103d63594e7287e5fc1d8ea05a3599ea74149d2c112210a79168",
        "credibility.csv": None,
        "model.bin": "be30f85e2252a8ae32253dc10938cd97710bf28b1deac8fe0c3d241120b13f0b",
        "report_long.csv": "2b1c7f832ad3baa72b7763709aef90b4b4a7b98fc9d8698f445a60f3ee4332f9",
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
}


CASES = {
    f"{scenario}/{cfg.aggregator}": replace(cfg, master_seed=0)
    for scenario in ("usc-noisy", "usc-normal", "multi-tier")
    for cfg in _scenario_runs(scenario)
}
CASES.update({f"mixed/{agg}": replace(MIXED, aggregator=agg) for agg in ("focus", "fedavg")})


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
