"""Time one CLI set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is what every ``coupledwave`` call pays before it does work:
importing ``coupledwave.cli`` (numpy, scipy and the package), plus
writing the workload's generated configs.
"""

import os
import sys
import time

import workloads  # standard library only, so it stays outside the timing

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main():
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import coupledwave.cli  # noqa: F401

    workloads.write_inputs(workload, seed, workdir)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
