"""The FOCUS protocol, transcribed once in plain NumPy, checked against ``run``.

``protocol(cfg)`` restates a whole run: the round in the ``federation``
module docstring, ``E = LS + LL``, ``C = 1 - softmax(alpha * E)`` and
``W = n C / sum n C``.  Its only primitives are ``client_update``,
``model_test`` and ``accuracy``; the initial model, data and seeds come from
``build_scenario``, ``derive_seeds`` and ``cfg.sgd_config``.  Where the paper
leaves a choice open, it takes this one:

- a round's participants are drawn from one stream and sorted;
- ``focus`` aggregates with the weights stored at the previous round, as
  they are with every client present, else spread over the participants'
  stored mass; the weighted parameter rows are summed in participant order;
- the softmax subtracts the max of ``alpha * E`` first, and a lone
  participant has ``C = 1``;
- the FL loss is the mean over all clients of each local model's mean
  cross-entropy on its own shard.

``aggregation_weights`` returns exactly ``n / sum n`` when every ``C`` is
equal, which needs equal ``E``; no drawn config has that, so it is not restated.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focusfl.data import NoiseSpec
from focusfl.federation import MessageRecord, model_test
from focusfl.harness import AGGREGATORS, ExperimentConfig, build_scenario, derive_seeds, run
from focusfl.learner import ModelParams, accuracy, client_update


def protocol(cfg: ExperimentConfig) -> tuple:
    """What ``run(cfg)`` must give: per-round records, messages, final accuracy, weights and model."""
    seeds = derive_seeds(cfg.master_seed)
    server, clients, test = build_scenario(cfg)
    sgd = cfg.sgd_config(seeds["sgd"])
    draw = np.random.default_rng(seeds["participation"])
    data = [c.data for c in clients]
    K, focus, federated = len(data), cfg.aggregator == "focus", cfg.aggregator != "local_baseline"
    n = np.array([d.n for d in data], dtype=np.float64)
    w = n / n.sum()
    g = server.global_model
    local = [g] * K
    size = max(1, int(round(cfg.participation_fraction * K))) if federated else K
    rounds, creds, messages = [], [], []
    for t in range(1, cfg.rounds + 1):
        part = sorted(draw.choice(K, size=size, replace=False).tolist()) if federated else list(range(K))
        new = [client_update(g if federated else local[k], data[k], sgd) for k in part]
        for k, m in zip(part, new):
            local[k] = m
        if federated:
            mass = 1.0 if len(part) == K else float(w[part].sum())
            a = w[part] / mass if focus else n[part] / n[part].sum()
            g = ModelParams(g.arch, functools.reduce(np.add, [a_j * m.values for a_j, m in zip(a, new)]))
            for way, scalars in (("down", 0), ("up", int(focus))):
                messages += [MessageRecord(t, way, k, g.arch.parameter_count(), scalars) for k in part]
        if focus:
            ls = np.array([model_test(m, server.benchmark, cfg.reduction) for m in new])
            ll = np.array([model_test(g, data[k], cfg.reduction) for k in part])
            e = ls + ll
            z = cfg.alpha * (e / e.mean() if cfg.standardize_e else e)
            s = np.exp(z - z.max())
            c = 1.0 - s / s.sum() if len(part) > 1 else np.ones(1)
            nc = n[part] * c
            w = w.copy()
            w[part] = nc / nc.sum() * mass
            cred = (tuple(part), *(x.tobytes() for x in (ls, ll, e, c, w[part])))
        acc = float(np.mean([accuracy(m, test) for m in ([g] if federated else local)]))
        fl_loss = float(np.mean([model_test(m, d, "mean") for m, d in zip(local, data)]))
        rounds.append((t, acc, fl_loss, tuple(part)))
        creds.append(cred if focus else None)
    final = (tuple(w.tolist()), g.values.tobytes()) if federated else (None, None)
    return rounds, creds, tuple(messages), len(messages) / cfg.rounds, rounds[-1][1], *final


def observed(result) -> tuple:
    """``run``'s outputs in the form :func:`protocol` gives them, arrays as bytes."""
    metrics, model = result.metrics, result.final_model
    rounds = [(m.round, m.test_accuracy, m.fl_loss, m.participants) for m in metrics]
    creds = [
        None if m.cred is None else (m.cred.client_ids, *(getattr(m.cred, x).tobytes() for x in "ls ll e c w".split()))
        for m in metrics
    ]
    final = result.final_weights, None if model is None else model.values.tobytes()
    return rounds, creds, result.messages, result.messages_per_round, result.final_accuracy, *final


def small(**kw) -> ExperimentConfig:
    """60 rows of 3 classes: 15 test rows, a 9-row benchmark and 36 rows over the clients."""
    base = dict(num_classes=3, samples_per_class=20, dim=3, test_fraction=0.25, benchmark_fraction=0.2)
    return ExperimentConfig(**{**base, "hidden_dims": (4,), "learning_rate": 0.5, "local_steps": 3, **kw})


@st.composite
def configs(draw):
    k = draw(st.sampled_from(range(1, 7)))
    noisy = draw(st.none() | st.integers(0, k - 1))
    return small(
        num_clients=k,
        noise=() if noisy is None else (NoiseSpec("randomize", 1.0, target_clients=(noisy,), seed=noisy),),
        batch_size=draw(st.sampled_from(("full", 4))),
        aggregator=draw(st.sampled_from(AGGREGATORS)),
        rounds=draw(st.integers(1, 4)),
        alpha=draw(st.sampled_from((0.5, 1.0, 4.0))),
        reduction=draw(st.sampled_from(("mean", "sum"))),
        standardize_e=draw(st.booleans()),
        participation_fraction=draw(st.sampled_from((0.4, 0.7, 1.0))),
        master_seed=draw(st.integers(0, 2**16)),
    )


# The examples hold each aggregator at full and at partial participation, and focus at K = 1.
@settings(max_examples=40, deadline=None, derandomize=True)
@example(small(num_clients=1, rounds=2))
@example(small(num_clients=5, rounds=3, batch_size=4, reduction="sum", standardize_e=False, alpha=4.0))
@example(small(num_clients=6, rounds=4, participation_fraction=0.4, noise=(NoiseSpec("randomize", 1.0, (2,)),)))
@example(small(num_clients=4, rounds=2, aggregator="fedavg", batch_size=4))
@example(small(num_clients=5, rounds=3, aggregator="fedavg", participation_fraction=0.4))
@example(small(num_clients=3, rounds=2, aggregator="local_baseline"))
@example(small(num_clients=3, rounds=2, aggregator="local_baseline", participation_fraction=0.4))
@given(configs())
def test_run_equals_the_protocol_bit_for_bit(cfg):
    assert observed(run(cfg)) == protocol(cfg)
