"""Epsilon sweeps: empirical lifespan tables, scaling fits, reporting.

Runs the solver across a decreasing ladder of data amplitudes eps,
collects numerical blow-up times (with a grid-refinement repeat per
row), and the table fits log T against log eps on its blown-up rows
(``LifespanTable.fit``) and compares the slope with the predicted power
law it carries (``LifespanTable.prediction``).

A sweep has one plan.  Its (repeat, eps) rows are packed into one bin
per worker, costliest first, each onto the bin with the least estimated
load (Graham's longest-processing-time rule, R. L. Graham, SIAM J.
Appl. Math. 17 (1969) 416-429), at the cost ``_row_cost`` estimates.  A
bin runs one batch of rows (``solver.run_batch``) per repeat it holds,
finest repeat first.  On Linux with more than one CPU available to the
process each bin runs on its own forked worker process, at most one per
CPU; otherwise the one bin, every repeat's whole ladder, runs
in-process.  A batched row is bitwise the row run alone, so every
record is the same whatever the plan.  Exponentially large critical
lifespans are not reproducible at desk scale, so critical sweeps carry
the prediction shape for plotting but no pass/fail.

Every summary carries the caveat that the theory bounds T(eps) only for
eps below an unspecified eps0, so a sweep cannot certify being inside
the asymptotic regime.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .exponents import LifespanPrediction, classify, lifespan_prediction
from .solver import ProblemSpec, run_batch

__all__ = [
    "SweepConfig",
    "LifespanRow",
    "ScalingFit",
    "LifespanTable",
    "ASYMPTOTIC_CAVEAT",
    "sweep",
    "report",
]

ASYMPTOTIC_CAVEAT = (
    "the lifespan bound applies for eps <= eps0 with eps0 unspecified; "
    "this sweep cannot certify being inside the asymptotic regime"
)


@dataclass(frozen=True)
class SweepConfig:
    """Sweep description: base problem, eps ladder, refinement repeats."""

    base: ProblemSpec
    eps_values: tuple
    repeats: int = 2

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_values)
        object.__setattr__(self, "eps_values", eps)
        if len(eps) == 0:
            raise ValueError("eps_values must be nonempty")
        if not all(0 < e < math.inf for e in eps):
            raise ValueError(f"eps values must be positive and finite, got {eps}")
        if any(later >= earlier for earlier, later in zip(eps, eps[1:])):
            raise ValueError("eps_values must be strictly decreasing")
        if int(self.repeats) != self.repeats or self.repeats < 1:
            raise ValueError("repeats must be a positive integer")


@dataclass(frozen=True)
class LifespanRow:
    """One sweep row; T_numeric is NaN when the run did not blow up.

    The finest repeat alone decides ``T_numeric``; ``failed_repeats``
    lists every repeat (0 = coarsest) whose run failed, and a failed
    coarser repeat only leaves ``grid_change`` NaN.  The telemetry is
    the finest repeat's run: ``steps``, the number of dt ``halvings``,
    ``window_max``, ``cone_spill``, ``crossed`` and ``failure_reason``
    (see ``SolutionRecord``).  ``local_slope`` is d log T / d log eps
    against the previous blown-up row, NaN for the first one and for
    rows that did not blow up.  ``blew_up`` (a finite ``T_numeric``) and
    ``failed`` (a failure reason) are derived, as properties.
    """

    eps: float
    T_numeric: float
    T_predicted_shape: float
    grid_change: float = math.nan
    failed_repeats: tuple = ()
    steps: int = 0
    halvings: int = 0
    window_max: int = 0
    cone_spill: float = 0.0
    crossed: str | None = None
    failure_reason: str = ""
    local_slope: float = math.nan

    @property
    def blew_up(self) -> bool:
        return math.isfinite(self.T_numeric)

    @property
    def failed(self) -> bool:
        return bool(self.failure_reason)


@dataclass(frozen=True)
class ScalingFit:
    """The least-squares line log T = slope log eps + intercept through
    the blown-up rows, with its ``r_squared``.  Derived from the slope:
    ``ci_halfwidth``, 1.96 standard errors of it (NaN from two rows),
    and ``consistent`` with the table's predicted exponent.  The
    lifespan theorem is a one-sided bound with unknown constant, so
    consistency asserts sign and a magnitude band: slope < 0 and
    |slope| <= 1.4 |exponent| (undershoot is acceptable and reported
    via the slope itself)."""

    slope: float
    intercept: float
    r_squared: float
    ci_halfwidth: float
    consistent: bool


@dataclass
class LifespanTable:
    """Sweep rows, from which ``fit`` is derived.  ``workers`` is the
    number of bins the sweep packed its rows into, one process each, and
    ``tasks`` its schedule: one ``{"repeat", "eps", "wall_s"}`` entry per
    batch as it ran, in bin order and within a bin finest repeat first,
    each (repeat, eps) in exactly one.  With one worker that is one
    batch per repeat's whole ladder, finest first."""

    rows: list
    region: str
    prediction: LifespanPrediction
    caveat: ClassVar[str] = ASYMPTOTIC_CAVEAT
    workers: int = 1
    tasks: list = field(default_factory=list)

    @property
    def fit(self) -> ScalingFit | None:
        """The log-log fit through the blown-up rows against the
        predicted exponent; None below two blown-up rows."""
        blown = [(r.eps, r.T_numeric) for r in self.rows if r.blew_up]
        if len(blown) < 2:
            return None
        eps, T = zip(*blown)
        x = np.log(np.asarray(eps, dtype=float))
        y = np.log(np.asarray(T, dtype=float))
        slope, intercept = (float(c) for c in np.polyfit(x, y, 1))
        resid = y - (slope * x + intercept)
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
        ci = math.nan
        if len(eps) > 2:
            sxx = float(np.sum((x - x.mean()) ** 2))
            ci = 1.96 * math.sqrt(ss_res / (len(eps) - 2) / sxx)
        consistent = slope < 0 and abs(slope) <= 1.4 * abs(self.prediction.exponent)
        return ScalingFit(slope=slope, intercept=intercept, r_squared=r2, ci_halfwidth=ci,
                          consistent=consistent)


def _available_cpus() -> int:
    """CPUs this process may run on (Linux only, as is the pool)."""
    return len(os.sched_getaffinity(0))


def _row_cost(repeat: int, finest: int, eps: float, exponent: float, t_max: float) -> float:
    """A sweep row's estimated cost, 4^repeat T_hat^2 in units of 4^finest
    (so that no power overflows): each halving of dr doubles the points
    and the steps, and a run to time T takes T / dt steps over a
    light-cone window that grows with t.  T_hat, the row's expected
    lifespan, is eps^exponent (the predicted lifespan's shape) when the
    exponent is finite and negative, else t_max, and never more than
    t_max."""
    T = t_max
    if math.isfinite(exponent) and exponent < 0 and exponent * math.log(eps) < math.log(t_max):
        T = eps**exponent
    return 0.25 ** (finest - repeat) * T * T


def _pack(costs: dict, bins: int) -> list:
    """Rows ``(repeat, j)`` with their ``costs`` packed into ``bins``:
    each row, costliest first, goes onto the bin with the least load
    (the first such bin on a tie).  Per bin that holds a row, [(repeat,
    [j, ...]), ...]: one batch per repeat it holds, finest repeat first,
    j ascending."""
    loads = [0.0] * bins
    held = [[] for _ in range(bins)]
    for row in sorted(costs, key=costs.get, reverse=True):
        b = loads.index(min(loads))
        loads[b] += costs[row]
        held[b].append(row)
    return [[(rep, sorted(j for r, j in rows if r == rep))
             for rep in sorted({r for r, _ in rows}, reverse=True)] for rows in held if rows]


def _run_task(batches):
    """One bin of a sweep: each batch's records and wall time, in order.

    ``run_batch`` is looked up as this module's global, so forked
    workers see a replacement patched in before the pool was made.
    """
    results = []
    for specs in batches:
        t0 = time.perf_counter()
        records = run_batch(specs)
        results.append((records, time.perf_counter() - t0))
    return results


def _pool_workers(tasks: int) -> int:
    """Worker processes for ``tasks`` independent rows: at most one per
    available CPU, and 1 (in-process) off Linux, the one platform whose
    ``fork`` start method the pool is tested with."""
    return min(tasks, _available_cpus()) if sys.platform == "linux" else 1


def _map_tasks(bins, workers):
    """[_run_task(bin), ...] in bin order.

    With more than one worker each bin runs on its own forked worker
    process, in a pool made and shut down within this call; otherwise
    in-process.  An error in a batch is raised here once the workers
    have exited.
    """
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return list(pool.map(_run_task, bins))
    return [_run_task(batches) for batches in bins]


def sweep(cfg: SweepConfig) -> LifespanTable:
    """One row per eps; the finest grid decides T_numeric.

    Rows that hit the horizon without blow-up carry blew_up = False and
    are excluded from the table's fit; solver numerical failures are
    recorded per repeat without aborting the sweep.
    """
    base = cfg.base
    data = classify(base.n, base.pq)
    prediction = lifespan_prediction(base.n, base.pq)
    eps_values = cfg.eps_values
    grids = [replace(base.grid, dr=base.grid.dr / 2.0**rep) for rep in range(cfg.repeats)]
    costs = {(rep, j): _row_cost(rep, cfg.repeats - 1, eps, prediction.exponent, base.grid.t_max)
             for rep in reversed(range(cfg.repeats)) for j, eps in enumerate(eps_values)}
    plan = _pack(costs, _pool_workers(len(costs)))
    workers = len(plan)
    results = _map_tasks([[[replace(base, eps=eps_values[j], grid=grids[rep]) for j in js]
                           for rep, js in batches] for batches in plan], workers)
    schedule = []
    by_repeat = [[None] * len(eps_values) for _ in grids]  # [repeat][eps index]
    for batches, ran in zip(plan, results):
        for (rep, js), (records, wall) in zip(batches, ran):
            schedule.append({"repeat": rep, "eps": [eps_values[j] for j in js], "wall_s": wall})
            for j, rec in zip(js, records):
                by_repeat[rep][j] = rec
    records = by_repeat[-1]
    # per repeat, the blow-up time of each eps (NaN for none)
    times = [[rec.t_blowup if rec.blew_up else math.nan for rec in recs] for recs in by_repeat]
    failed_repeats = [tuple(rep for rep, rec in enumerate(column) if rec.failed)
                      for column in zip(*by_repeat)]

    # prediction shape anchored at the largest blown-up eps
    anchor = next(((e, T) for e, T in zip(eps_values, times[-1]) if math.isfinite(T)), None)
    previous = None  # the last blown-up (eps, T)
    rows = []
    for j, (eps, rec) in enumerate(zip(cfg.eps_values, records)):
        T = times[-1][j]
        blew = math.isfinite(T)
        shape = math.nan
        if anchor is not None and np.isfinite(prediction.exponent):
            e0, t0 = anchor
            shape = t0 * (eps / e0) ** prediction.exponent
        grid_change = math.nan
        if cfg.repeats >= 2 and blew and np.isfinite(times[-2][j]):
            grid_change = abs(T - times[-2][j]) / abs(T)
        slope = math.nan
        if blew:
            if previous is not None:
                slope = math.log(T / previous[1]) / math.log(eps / previous[0])
            previous = (eps, T)
        rows.append(
            LifespanRow(
                eps=eps,
                T_numeric=T,
                T_predicted_shape=shape,
                grid_change=grid_change,
                failed_repeats=failed_repeats[j],
                steps=rec.steps,
                halvings=len(rec.halvings),
                window_max=rec.window_max,
                cone_spill=rec.cone_spill,
                crossed=rec.crossed,
                failure_reason=rec.failure_reason,
                local_slope=slope,
            )
        )
    return LifespanTable(
        rows=rows, region=data.region.value, prediction=prediction,
        workers=workers, tasks=schedule,
    )


# the CSV columns and the JSON row keys, each a LifespanRow attribute,
# and the JSON fit's keys, each a ScalingFit attribute
CSV_COLUMNS = ("eps", "T_numeric", "blew_up", "T_predicted_shape", "grid_change", "failed")
JSON_ROW_KEYS = ("eps", "steps", "halvings", "window_max", "cone_spill", "crossed",
                 "failure_reason", "local_slope")
JSON_FIT_KEYS = ("slope", "intercept", "r_squared")


def _csv_cell(value) -> str:
    return str(value).lower() if isinstance(value, bool) else format(value, ".17g")


def _json_value(value):
    return None if isinstance(value, float) and math.isnan(value) else value


def report(table: LifespanTable, destination) -> tuple:
    """Write the table as CSV and a JSON summary; returns both paths.

    The CSV has the columns CSV_COLUMNS (floats at full precision,
    booleans as true/false, rows ordered by descending eps); its
    ``blew_up`` and ``failed`` are the rows' derived properties.  The
    JSON's ``rows`` carry each row's JSON_ROW_KEYS, its telemetry (a
    NaN, as ``local_slope`` of the first blown-up row, written null),
    the JSON's ``fit`` the fit's JSON_FIT_KEYS, and ``workers`` and
    ``tasks`` give the sweep's schedule.
    """
    os.makedirs(destination, exist_ok=True)
    csv_path = os.path.join(destination, "lifespan.csv")
    json_path = os.path.join(destination, "lifespan.json")
    with open(csv_path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in table.rows:
            fh.write(",".join(_csv_cell(getattr(r, name)) for name in CSV_COLUMNS) + "\n")
    fit = table.fit
    payload = {
        "region": table.region,
        "prediction": {
            "kind": table.prediction.kind.value,
            "exponent": table.prediction.exponent,
        },
        "fit": None if fit is None else {name: getattr(fit, name) for name in JSON_FIT_KEYS},
        "caveat": table.caveat,
        "workers": table.workers,
        "tasks": table.tasks,
        "rows": [{name: _json_value(getattr(r, name)) for name in JSON_ROW_KEYS} for r in table.rows],
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
