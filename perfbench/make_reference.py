"""Regenerate reference.json: the checked outputs of the default seed.

    python3 perfbench/make_reference.py

Run it only on the commit whose outputs define correct; the benchmark
compares every later run at the default seed against this file.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    import coupledwave.cli as cli
    import coupledwave.lifespan as lifespan

    taps = run.install_taps(lifespan)
    reference = {}
    for workload in workloads.WORKLOADS:
        workdir = os.path.join(run.WORK, f"reference-{workload}")
        round_ops = workloads.write_inputs(workload, workloads.DEFAULT_SEED, workdir)
        runner = run.Runner(cli, round_ops, len(round_ops), None, taps)
        runner.run_pass()
        shutil.rmtree(workdir, ignore_errors=True)
        if runner.failures:
            raise SystemExit("\n".join(runner.failures))
        reference[workload] = runner.observed
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
