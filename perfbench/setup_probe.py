"""One set-up sample: a fresh interpreter imports focusfl and builds the first scenario.

``run.py`` starts this as
``python3 setup_probe.py <spawn_monotonic_ns> <workload> <workload_seed>``,
passing the monotonic clock read just before the spawn.  The probe prints
the nanoseconds from that moment until ``build_scenario`` has returned for
the workload's first config, so interpreter start-up is included.
"""

import sys
import time


def main(argv) -> int:
    spawned_ns = int(argv[1])
    from workloads import WORKLOADS, experiment_seed, focusfl

    cfg = WORKLOADS[argv[2]].configs(experiment_seed(int(argv[3]), 0))[0]
    focusfl.harness.build_scenario(cfg)
    print(time.monotonic_ns() - spawned_ns)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
