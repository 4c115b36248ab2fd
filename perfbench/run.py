"""coupledwave benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep-n2 --seed 1 --seconds 20 --trace 0

Runs the workload's verb calls in-process through ``coupledwave.cli.main``,
checks every call's outputs, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones, taken from
spans recorded at the package's module boundaries.  The line before it
records the environment.  Run from the root of a source checkout; the
package is imported from ``src/``.
"""

from __future__ import annotations

import os
import sys

# pin BLAS threads before numpy is imported (here or in the set-up probes)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join("perfbench", "_work")  # relative to ROOT
REFERENCE = os.path.join(HERE, "reference.json")
MIN_SETUP_PROBES = 5
MIN_OVERHEAD_PAIRS = 4  # traced/untraced pass pairs behind trace.overhead_s (even: both orders)
PROBE_TIMEOUT_S = 60

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def program_available():
    return os.path.isfile(os.path.join(SRC, "coupledwave", "cli.py"))


def probe_setup(workload, seed, workdir):
    """Seconds a fresh interpreter takes to import coupledwave.cli and write the configs."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), workdir],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1])


def load_reference(workload):
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


def install_taps(lifespan):
    """Keep the last table returned by lifespan.sweep (grid_change is not written out)."""
    taps = {}
    original = lifespan.sweep

    def sweep(*args, **kwargs):
        taps["sweep"] = original(*args, **kwargs)
        return taps["sweep"]

    lifespan.sweep = sweep
    return taps


def call(cli, args):
    """One verb call through coupledwave.cli.main: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(args))
    except Exception:  # a crash is one failed operation; the run goes on
        rc, err = -1, io.StringIO(traceback.format_exc())
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs timed passes of one workload and keeps the failure accounting."""

    def __init__(self, cli, ops, round_len, reference, taps):
        """``reference``: one stored entry per call of a round, or None to check invariants only."""
        self.cli = cli
        self.ops = ops
        self.round_len = round_len
        self.reference = reference
        self.taps = taps
        self.attempted = 0
        self.failures = []
        self.observed = []  # checked outputs of the last pass, one per call

    def run_pass(self, tracer=None):
        """One pass over the workload's verb calls; returns the summed call time."""
        wall = 0.0
        self.observed = []
        for i, args in enumerate(self.ops):
            if tracer is not None:
                tracer.operation = i
            elapsed, rc, stdout, stderr = call(self.cli, args)
            wall += elapsed
            self.attempted += 1
            if rc != 0:
                msg = f"exit code {rc}: {stderr.strip()[-500:]}"
            else:
                try:
                    obs = workloads.observe(args, stdout, self.taps)
                    self.observed.append(obs)
                    ref = None
                    if self.reference is not None:
                        ref = self.reference[i % self.round_len]
                    msg = workloads.check(obs, ref)
                except (OSError, ValueError, KeyError) as exc:
                    msg = f"unreadable output: {exc!r}"
            if msg:
                self.failures.append(f"{' '.join(args)}: {msg}")
        return wall


def environment():
    """Machine, library and commit facts printed with every result."""
    import numpy
    import scipy

    def read(path):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = read(f"{base}/level"), read(f"{base}/type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = read(f"{base}/size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    commit = None
    head = read(os.path.join(ROOT, ".git", "HEAD"))
    if head and head.startswith("ref: "):
        commit = read(os.path.join(ROOT, ".git", head[5:]))
    elif head:
        commit = head
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "commit": commit,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not program_available():
        print(f"error: no coupledwave sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)

    import coupledwave.cli as cli
    import coupledwave.lifespan as lifespan
    from tracing import LAYER_METRICS, Tracer

    taps = install_taps(lifespan)
    round_ops = workloads.write_inputs(args.workload, args.seed, workdir)
    ops = workloads.pass_ops(args.workload, round_ops)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = load_reference(args.workload)
    runner = Runner(cli, ops, len(round_ops), reference, taps)

    runner.run_pass()  # warm-up: lazy imports and quadrature caches
    tracer = Tracer() if args.trace else None
    walls, traced_walls, layers, setups = [], [], [], []
    probe_dir = os.path.join(workdir, "probe")

    def traced_pass():
        tracer.reset()
        tracer.install(cli)
        try:
            traced_walls.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())

    start = time.perf_counter()
    min_walls = 1 if tracer is None else MIN_OVERHEAD_PAIRS
    while time.perf_counter() - start < args.seconds or len(walls) < min_walls:
        if tracer is None:
            # set-up probes run between passes, so they sample the same
            # stretch of host load as the passes do (it drifts over tens
            # of seconds)
            setups.append(probe_setup(args.workload, args.seed, probe_dir))
            walls.append(runner.run_pass())
        elif len(walls) % 2 == 0:
            # one traced/untraced pair; the order alternates so that drift
            # and order effects cancel in trace.overhead_s
            traced_pass()
            walls.append(runner.run_pass())
        else:
            walls.append(runner.run_pass())
            traced_pass()

    if tracer is not None:
        tracer.dump(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json"))
        metrics = {name: metric(statistics.median(m[name] for m in layers), unit)
                   for name, unit in LAYER_METRICS.items() if not name.startswith("trace.")}
        overheads = [t - u for t, u in zip(traced_walls, walls)]
        metrics["trace.wall_s"] = metric(statistics.median(traced_walls), "s")
        metrics["trace.overhead_s"] = metric(statistics.median(overheads), "s")
    else:
        while len(setups) < MIN_SETUP_PROBES:
            setups.append(probe_setup(args.workload, args.seed, probe_dir))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
    shutil.rmtree(workdir, ignore_errors=True)

    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed,
                      "pass_walls_s": walls, "traced_pass_walls_s": traced_walls,
                      "setup_probes_s": setups}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
