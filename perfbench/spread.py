"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep-n2 --seeds 1 2 3 4 5

For every end-to-end metric (or, with --trace 1, every per-layer
metric) prints the median over the runs, the distance between the
first and third quartiles as a share of the median, and for end-to-end
metrics that share against a third of the bound in BENCHMARK.json.
Each run measures for run_seconds of BENCHMARK.json, as the benchmark's
runs do.  Runs one benchmark process at a time and waits for each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="PATH", help="also write every run's values here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    summary = {}
    for workload in args.workload:
        values, failed = {}, 0
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(args.seeds)} runs, {failed} failures")
        summary[workload] = {"seeds": args.seeds, "failures": failed, "metrics": values}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _q2, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            line = f"  {name:38s} median {med:.6g}  IQR/median {share:.4f}"
            if name in bounds:
                line += f"  (third of bound {bounds[name] / 3:.4f})"
                if name != "setup_s":
                    worst = max(worst, share / bounds[name])
            print(line)
            print("    runs: " + " ".join(f"{v:.6g}" for v in vals))
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
