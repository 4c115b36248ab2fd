"""Spans at the module boundaries of coupledwave, recorded from outside.

The tracer wraps public functions by rebinding them on every module
that holds them (``from .x import y`` copies the name, so ``cli.run``,
``lifespan.run`` and ``solver.run`` are three bindings of one function).
Each call records a span (name, start, end, parent, operation).  Counts
are derived from the returned values only, never from internals.

A layer's self time is its span time minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (defining module, function) -> span name
SPANS = {
    ("solver", "run"): "solver.run",
    ("lifespan", "sweep"): "lifespan.sweep",
    ("functionals", "extract"): "functionals.extract",
    ("functionals", "check_fundamental_identity"): "functionals.identity",
    ("special", "phi"): "special.phi",
    ("special", "eta"): "special.kernel",
    ("special", "xi"): "special.kernel",
    ("special", "kernel_nodes"): "special.kernel_nodes",
    ("special", "verify_kernel_bounds"): "special.verify_kernel_bounds",
    ("iteration", "critical_sequences"): "iteration.sequences",
    ("iteration", "subcritical_sequences"): "iteration.sequences",
    ("iteration", "threshold_time"): "iteration.threshold",
    ("cli", "build_parser"): "cli.build_parser",
    ("exponents", "theta1"): "exponents",
    ("exponents", "theta2"): "exponents",
    ("exponents", "classify"): "exponents",
    ("exponents", "cusp_exponents"): "exponents",
    ("exponents", "lifespan_prediction"): "exponents",
    ("exponents", "theta1_critical_q"): "exponents",
    ("exponents", "theta2_critical_p"): "exponents",
    ("configio", "load_config"): "configio",
    ("configio", "merge_config"): "configio",
    ("configio", "problem_spec_from_config"): "configio",
    ("configio", "sweep_config_from_config"): "configio",
    ("configio", "kernel_params_from_config"): "configio",
    ("lifespan", "report"): "io",
    ("iteration", "write_table_csv"): "io",
    ("solver", "write_summary_csv"): "io",
    ("solver", "write_blowup_json"): "io",
}

# per-layer metrics: name -> unit, in the order they are reported.
# solver.ns_per_point_step divides the solver's self time by (full grid
# size x steps), so light-cone windowing shows as a gain; solver.record_mb
# is computed from the sizes of the returned arrays, not measured.
# cli.build_parser.self_s is the argparse parser built on every call;
# cli.self_s is cli.main's time outside every other span: parse_args,
# the verbs' own arithmetic and the callees left unwrapped (special.psi,
# special.multiplier, special.make_kernel_grid).
LAYER_METRICS = {
    "solver.run.calls": "count",
    "solver.run.self_s": "s",
    "solver.steps": "count",
    "solver.dt_halvings": "count",
    "solver.failed_runs": "count",
    "solver.ns_per_point_step": "ns",
    "solver.record_mb": "MB",
    "lifespan.sweep.self_s": "s",
    "lifespan.rows": "count",
    "lifespan.rows_blown": "count",
    "functionals.extract.calls": "count",
    "functionals.extract.self_s": "s",
    "functionals.identity.self_s": "s",
    "special.phi.calls": "count",
    "special.phi.points": "count",
    "special.phi.self_s": "s",
    "special.kernel.calls": "count",
    "special.kernel.self_s": "s",
    "special.kernel_nodes.calls": "count",
    "special.verify_kernel_bounds.self_s": "s",
    "iteration.sequences.calls": "count",
    "iteration.sequences.self_s": "s",
    "iteration.threshold.self_s": "s",
    "exponents.self_s": "s",
    "configio.self_s": "s",
    "io.bytes": "B",
    "io.self_s": "s",
    "cli.build_parser.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly between two runs of one seed
EXACT_COUNTS = (
    "solver.steps",
    "solver.dt_halvings",
    "special.phi.points",
    "functionals.extract.calls",
    "iteration.sequences.calls",
)


def _record_bytes(rec):
    arrays = (rec.r, rec.times, rec.u, rec.ut, rec.v, rec.vt, rec.sup_times, rec.sup_norms)
    return sum(a.nbytes for a in arrays if a is not None)


def _count_run(counts, _args, _kwargs, rec):
    steps = len(rec.sup_times) - 1
    counts["solver.steps"] += steps
    counts["solver.dt_halvings"] += round(math.log2(rec.dt_initial / rec.dt_final))
    counts["solver.failed_runs"] += int(rec.failed)
    counts["solver.point_steps"] += rec.r.size * steps
    counts["solver.record_bytes"] += _record_bytes(rec)


def _count_sweep(counts, _args, _kwargs, table):
    counts["lifespan.rows"] += len(table.rows)
    counts["lifespan.rows_blown"] += sum(1 for row in table.rows if row.blew_up)


def _count_phi(counts, _args, _kwargs, out):
    counts["special.phi.points"] += int(np.size(out))


def _file_bytes(paths):
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _count_report(counts, _args, _kwargs, paths):
    counts["io.bytes"] += _file_bytes(paths)


def _count_written(counts, args, kwargs, _out):
    counts["io.bytes"] += _file_bytes([kwargs["path"] if "path" in kwargs else args[1]])


ON_RETURN = {
    ("solver", "run"): _count_run,
    ("lifespan", "sweep"): _count_sweep,
    ("special", "phi"): _count_phi,
    ("lifespan", "report"): _count_report,
    ("iteration", "write_table_csv"): _count_written,
    ("solver", "write_summary_csv"): _count_written,
    ("solver", "write_blowup_json"): _count_written,
}


class Tracer:
    """In-memory span recorder; install() rebinds, uninstall() restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation]
        self.counts = Counter()
        self.operation = 0
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def span(self, name, fn, on_return=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.operation])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            counts[calls] += 1
            if on_return is not None:
                on_return(counts, args, kwargs, out)
            return out

        return traced

    def install(self, cli):
        """Wrap every binding of the traced functions in loaded coupledwave modules.

        ``cli.main``, the verb a user runs, becomes the root span.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "coupledwave" or name.startswith("coupledwave.")]
        for (mod_name, fn_name), span_name in SPANS.items():
            original = getattr(sys.modules[f"coupledwave.{mod_name}"], fn_name)
            wrapped = self.span(span_name, original, ON_RETURN.get((mod_name, fn_name)))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapped)
        self._patched.append((cli, "main", cli.main))
        cli.main = self.span("cli", cli.main)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def self_times(self):
        """Self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _parent, _op), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return totals

    def layer_metrics(self):
        """Per-layer values of one traced pass (the trace.* metrics excluded).

        ``<span>.self_s`` is the span's self time; every other name is a count.
        """
        counts, selfs = self.counts, self.self_times()
        values = {name: selfs[name[:-len(".self_s")]] if name.endswith(".self_s") else counts[name]
                  for name in LAYER_METRICS if not name.startswith("trace.")}
        points = counts["solver.point_steps"]
        values["solver.ns_per_point_step"] = 1e9 * selfs["solver.run"] / points if points else 0.0
        values["solver.record_mb"] = counts["solver.record_bytes"] / 1e6
        return values

    def dump(self, path):
        """Write the recorded spans as JSON (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round(s - t0, 9), round(e - t0, 9), parent, op]
                for name, s, e, parent, op in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "operation"],
                       "spans": rows}, fh)
            fh.write("\n")
