"""Acceptance gates 05-09 on held-out blocks of ten seeds.

The acceptance suite runs its battery on seeds 0-9 only.  This script runs
the same battery (the noisy and normal focus/fedavg pairs and the multi-tier
configs) on other blocks of ten seeds through ``run_many`` and prints, for
each gate, the block's pass count and its margin.  Gates 05 and 06 give
their margins in test rows as well, since accuracy moves in steps of one
row.  A change that moves numerics on purpose can show with it that the
envelope did not move.  It is not part of the test suite.

Usage: PYTHONPATH=src python scripts/gate_envelope.py [first_seed ...]
(default first seeds: 10 20, i.e. seeds 10-19 and 20-29).
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from focusfl.harness import run_many  # noqa: E402
from test_acceptance import (  # noqa: E402
    in_rows,
    multi_tier_config,
    noisy_config,
    normal_config,
    rows_in_test_set,
)

def block_report(first_seed):
    """The lines for seeds ``first_seed`` to ``first_seed + 9``."""
    seeds = range(first_seed, first_seed + 10)
    pairs = [(make, s, agg) for make in (noisy_config, normal_config) for s in seeds for agg in ("focus", "fedavg")]
    start = time.perf_counter()
    results = run_many([make(s, agg) for make, s, agg in pairs] + [multi_tier_config(s) for s in seeds])
    elapsed = time.perf_counter() - start
    runs = dict(zip(pairs, results))
    tiers = results[len(pairs):]
    noisy = [(runs[noisy_config, s, "focus"], runs[noisy_config, s, "fedavg"]) for s in seeds]
    normal = [(runs[normal_config, s, "focus"], runs[normal_config, s, "fedavg"]) for s in seeds]

    # The per-seed rules and block bounds of tests/test_acceptance.py, gates 05-09.
    gaps = [focus.final_accuracy - fedavg.final_accuracy for focus, fedavg in noisy]
    rows = rows_in_test_set(noisy_config)
    diffs = [abs(focus.final_accuracy - fedavg.final_accuracy) for focus, fedavg in normal]
    normal_rows = rows_in_test_set(normal_config)
    weights = [np.array(focus.final_weights) for focus, _ in noisy]
    suppressed = sum(w[0] < 0.5 * w[1:].mean() for w in weights)
    balanced = sum(w[1:].max() <= 1.2 * w[1:].min() for w in weights)
    ratios = [w[0] / w[1:].mean() for w in weights]
    spreads = [w[1:].max() / w[1:].min() for w in weights]
    losses = [focus.final_fl_loss - fedavg.final_fl_loss for focus, fedavg in noisy]
    smallest = sum(w[2] < w[0] and w[2] < w[1] for w in (r.final_weights for r in tiers))
    margins = [min(r.final_weights[0], r.final_weights[1]) - r.final_weights[2] for r in tiers]
    return [
        f"seeds {first_seed}-{first_seed + 9}: {len(results)} runs in {elapsed:.0f}s",
        f"  05 noisy-scenario-direction: {sum(g >= 0.02 for g in gaps)}/10 seeds with gap >= 2pp (needs 9), "
        f"min {min(gaps):+.3f} ({in_rows(min(gaps), rows)}), "
        f"median {np.median(gaps):+.3f} ({in_rows(np.median(gaps), rows)})",
        f"  06 normal-scenario-parity: {sum(d <= 0.01 for d in diffs)}/10 seeds within 1pp (needs 9), "
        f"max |diff| {max(diffs):.3f} ({in_rows(max(diffs), normal_rows)})",
        f"  07 weight-suppression: suppressed {suppressed}/10 (needs 10, "
        f"worst noisy/clean {max(ratios):.3f}), balanced {balanced}/10 "
        f"(needs 10, worst clean max/min {max(spreads):.3f})",
        f"  08 loss-signature: {sum(d > 0 for d in losses)}/10 seeds with larger final fl_loss (needs 8), "
        f"min focus - fedavg {min(losses):+.4f}",
        f"  09 multi-tier-weight-ordering: {smallest}/10 seeds (needs 10), "
        f"min margin {min(margins):+.4f}",
    ]


def main(argv):
    parser = argparse.ArgumentParser(description="Acceptance gates 05-09 on held-out blocks of ten seeds.")
    parser.add_argument("first_seeds", nargs="*", type=int, default=[10, 20], help="first seed of each block")
    for first_seed in parser.parse_args(argv).first_seeds:
        print("\n".join(block_report(first_seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
