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
        "metrics.csv": "8f31a47b05a123d15b5d33e15039ed7dbbb9ad4ee70091500d3f319fe806af31",
        "credibility.csv": "d140fe1fb563c92a5ae76c2b9779803252062045e581a5d40029d0c534d01f41",
        "model.bin": "9e08ffb873c175dcbc83d2b7048889663ae5d83ee69e5c293827c9ac2f21df41",
        "report_long.csv": "7c9f3fc44b332f2c9d9975b3be2f158a13f14677daf73b6bfaa8d06a92817928",
    },
    "usc-noisy/fedavg": {
        "metrics.csv": "7394989d3c787ba69d5298bdd5b74ea1ec45c0a8e493b83099e5839b5e6bfa2c",
        "credibility.csv": None,
        "model.bin": "6e72b801d54fa4c725946f29470fc3c3a180011ddc7a44b5ba55325ad8f6660b",
        "report_long.csv": "35f73985f4a5b3b623883840f7c986ab6a0b736a39d63790a771497e9dae64ae",
    },
    "usc-normal/focus": {
        "metrics.csv": "9da761cec882dac869c67b48f9208f477f754ad399477f924de0c20551211225",
        "credibility.csv": "b5613df89d41412dc55867136723d9b12fe3e9188bc98ff8e01c78f011b46e95",
        "model.bin": "488ceec77735dd726040d3949383bc1241566556b64fb6c64a343f5844ae3773",
    },
    "usc-normal/fedavg": {
        "metrics.csv": "d7ff94b151cb0e47c4257256fdffe69412e5f076ad8e96b9c868f8d4828e4bfb",
        "credibility.csv": None,
        "model.bin": "2c248de6f4c465aafd0cf44f2369e40319755754608fba0b9e2cf2f48385673c",
    },
    "multi-tier/focus": {
        "metrics.csv": "efc382d221eb553046bb32899bae8024abd0d71855ee8516be376147d2fb58a7",
        "credibility.csv": "e1ad7672b67cdec15f167683a3e62a418e7a80ce2af3937d31dc29d1b6b1e470",
        "model.bin": "ec9944702d0be15305ce5649267cba630ca1b83cd4f4f946f5dfca0fe2f40c5c",
    },
    "mixed/focus": {
        "metrics.csv": "b2f73b53b4a9f791e54e76f45bede80f8b6ed431b5913bb2272c7e753ba4f742",
        "credibility.csv": "56da8e0bc94e971780b14efde8fc4a7ef8e147153194b370384182de5670a609",
        "model.bin": "ba107e03f73e4cd73894614bba8f1e522dce29fad3fd445d3812f293a6739105",
    },
    "mixed/fedavg": {
        "metrics.csv": "a3efcdf0f640d936b13a720eb949f9dd03967ee397023bd0c45300263145729b",
        "credibility.csv": None,
        "model.bin": "f76fe4123742729aac51f36f1212aa09e440d45e8d41124588b3ab25fb0eb265",
    },
    "mixed/local_baseline": {
        "metrics.csv": "b9df42f4dbbadd7d495016e12a2d34a511db7353c3fab4d11530099bc0cc720b",
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
