"""Acceptance gates 05-09 on held-out blocks of ten seeds.

The acceptance suite runs its battery on seeds 0-9 only.  This script runs
the same battery (``run_battery``: the noisy and normal focus/fedavg pairs
and the multi-tier configs) on other blocks of ten seeds and prints, for
each gate, the suite's own ACCEPTANCE line: the verdict, the block's pass
count and its margin.  A change that moves numerics on purpose can show
with it that the envelope did not move.  It is not part of the test suite.

Usage: PYTHONPATH=src python scripts/gate_envelope.py [first_seed ...]
(default first seeds: 10 20, i.e. seeds 10-19 and 20-29).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_acceptance import BATTERY_GATES, battery_gate, gate_line, run_battery  # noqa: E402


def block_report(first_seed):
    """The lines for seeds ``first_seed`` to ``first_seed + 9``."""
    start = time.perf_counter()
    battery = run_battery(range(first_seed, first_seed + 10))
    elapsed = time.perf_counter() - start
    return [f"seeds {first_seed}-{first_seed + 9}: battery in {elapsed:.0f}s"] + [
        gate_line(*battery_gate(num, battery)) for num in BATTERY_GATES
    ]


def main(argv):
    parser = argparse.ArgumentParser(description="Acceptance gates 05-09 on held-out blocks of ten seeds.")
    parser.add_argument("first_seeds", nargs="*", type=int, default=[10, 20], help="first seed of each block")
    for first_seed in parser.parse_args(argv).first_seeds:
        print("\n".join(block_report(first_seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
