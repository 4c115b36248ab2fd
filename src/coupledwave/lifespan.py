"""Epsilon sweeps: empirical lifespan tables, scaling fits, reporting.

Runs the solver across a decreasing ladder of data amplitudes eps,
collects numerical blow-up times (with a grid-refinement repeat per
row), fits log T against log eps on the blown-up rows and compares the
slope with the predicted power law.  Each repeat advances its whole
ladder as one batch of rows (``solver.run_batch``).  Exponentially
large critical lifespans are not reproducible at desk scale, so
critical sweeps carry the prediction shape for plotting but no
pass/fail.

Every summary carries the caveat that the theory bounds T(eps) only for
eps below an unspecified eps0, so a sweep cannot certify being inside
the asymptotic regime.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .exponents import LifespanPrediction, classify, lifespan_prediction
from .solver import ProblemSpec, run_batch

__all__ = [
    "SweepConfig",
    "LifespanRow",
    "FitSummary",
    "ScalingFit",
    "LifespanTable",
    "ASYMPTOTIC_CAVEAT",
    "sweep",
    "fit_scaling",
    "report",
    "read_rows",
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

    The finest repeat alone decides ``T_numeric``, ``blew_up`` and
    ``failed``; ``failed_repeats`` lists every repeat (0 = coarsest)
    whose run failed, and a failed coarser repeat only leaves
    ``grid_change`` NaN.  The telemetry is the finest repeat's run:
    ``steps``, the number of dt ``halvings``, ``window_max``,
    ``cone_spill``, ``crossed`` and ``failure_reason`` (see
    ``SolutionRecord``).  ``local_slope`` is d log T / d log eps against
    the previous blown-up row, NaN for the first one and for rows that
    did not blow up.
    """

    eps: float
    T_numeric: float
    blew_up: bool
    T_predicted_shape: float
    grid_change: float = math.nan
    failed: bool = False
    failed_repeats: tuple = ()
    steps: int = 0
    halvings: int = 0
    window_max: int = 0
    cone_spill: float = 0.0
    crossed: str | None = None
    failure_reason: str = ""
    local_slope: float = math.nan


@dataclass(frozen=True)
class FitSummary:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    ci_halfwidth: float
    consistent: bool


@dataclass
class LifespanTable:
    rows: list
    fit: FitSummary | None
    region: str
    prediction: LifespanPrediction
    caveat: str = ASYMPTOTIC_CAVEAT


def _fit_loglog(eps, T):
    x = np.log(np.asarray(eps, dtype=float))
    y = np.log(np.asarray(T, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2, x, resid


def sweep(cfg: SweepConfig) -> LifespanTable:
    """One batch of runs per repeat, one row per eps; the finest grid
    decides T_numeric.

    Rows that hit the horizon without blow-up carry blew_up = False and
    are excluded from the fit; solver numerical failures are recorded
    per repeat without aborting the sweep.
    """
    base = cfg.base
    data = classify(base.n, base.pq)
    prediction = lifespan_prediction(base.n, base.pq)
    times = []  # per repeat, the blow-up time of each eps (NaN for none)
    failed_repeats = [[] for _ in cfg.eps_values]
    for rep in range(cfg.repeats):
        grid = replace(base.grid, dr=base.grid.dr / 2.0**rep)
        records = None  # drop the coarser repeat's runs before the next batch
        records = run_batch([replace(base, eps=eps, grid=grid) for eps in cfg.eps_values])
        for failed, rec in zip(failed_repeats, records):
            if rec.failed:
                failed.append(rep)
        times.append([rec.t_blowup if rec.blew_up else math.nan for rec in records])

    blown = [(e, T) for e, T in zip(cfg.eps_values, times[-1]) if np.isfinite(T)]
    fit = None
    if len(blown) >= 2:
        slope, intercept, r2, _x, _res = _fit_loglog(*zip(*blown))
        fit = FitSummary(slope=slope, intercept=intercept, r_squared=r2)

    # prediction shape anchored at the largest blown-up eps
    anchor = blown[0] if blown else None
    previous = None  # the last blown-up (eps, T)
    rows = []
    for j, (eps, rec) in enumerate(zip(cfg.eps_values, records)):
        T = times[-1][j]
        blew = bool(np.isfinite(T))
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
                blew_up=blew,
                T_predicted_shape=shape,
                grid_change=grid_change,
                failed=rec.failed,
                failed_repeats=tuple(failed_repeats[j]),
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
        rows=rows, fit=fit, region=data.region.value, prediction=prediction
    )


def fit_scaling(table: LifespanTable, model_exponent: float) -> ScalingFit:
    """Least-squares slope of log T against log eps, with consistency flag.

    The lifespan theorem is a one-sided bound with unknown constant, so
    consistency asserts sign and a magnitude band: slope < 0 and
    |slope| <= 1.4 |model_exponent| (undershoot is acceptable and
    reported via the slope itself).
    """
    blown = [(r.eps, r.T_numeric) for r in table.rows if r.blew_up]
    if len(blown) < 3:
        raise ValueError(f"need at least 3 blown-up rows to fit, got {len(blown)}")
    slope, _intercept, _r2, x, resid = _fit_loglog(*zip(*blown))
    m = len(blown)
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(float(np.sum(resid**2)) / (m - 2) / sxx) if m > 2 else 0.0
    ci = 1.96 * se
    consistent = slope < 0 and abs(slope) <= 1.4 * abs(model_exponent)
    return ScalingFit(slope=slope, ci_halfwidth=ci, consistent=consistent)


def report(table: LifespanTable, destination) -> tuple:
    """Write the table as CSV and a JSON summary; returns both paths.

    CSV columns: eps, T_numeric, blew_up, T_predicted_shape,
    grid_change, failed (full precision, rows ordered by descending
    eps).  The JSON's ``rows`` carry each row's telemetry: eps, steps,
    halvings, window_max, cone_spill, crossed, failure_reason and
    local_slope (null when NaN).
    """
    os.makedirs(destination, exist_ok=True)
    csv_path = os.path.join(destination, "lifespan.csv")
    json_path = os.path.join(destination, "lifespan.json")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["eps", "T_numeric", "blew_up", "T_predicted_shape", "grid_change", "failed"]
        )
        for r in table.rows:
            writer.writerow(
                [
                    format(r.eps, ".17g"),
                    format(r.T_numeric, ".17g"),
                    str(bool(r.blew_up)).lower(),
                    format(r.T_predicted_shape, ".17g"),
                    format(r.grid_change, ".17g"),
                    str(bool(r.failed)).lower(),
                ]
            )
    payload = {
        "region": table.region,
        "prediction": {
            "kind": table.prediction.kind.value,
            "exponent": table.prediction.exponent,
        },
        "fit": None
        if table.fit is None
        else {
            "slope": table.fit.slope,
            "intercept": table.fit.intercept,
            "r_squared": table.fit.r_squared,
        },
        "caveat": table.caveat,
        "rows": [
            {
                "eps": r.eps,
                "steps": r.steps,
                "halvings": r.halvings,
                "window_max": r.window_max,
                "cone_spill": r.cone_spill,
                "crossed": r.crossed,
                "failure_reason": r.failure_reason,
                "local_slope": r.local_slope if math.isfinite(r.local_slope) else None,
            }
            for r in table.rows
        ],
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def read_rows(csv_path) -> list:
    """Parse a lifespan CSV back into rows (round-trip of report, except
    ``failed_repeats``).  A CSV without the grid_change and failed
    columns reads them as NaN and False."""
    rows = []
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(
                LifespanRow(
                    eps=float(rec["eps"]),
                    T_numeric=float(rec["T_numeric"]),
                    blew_up=rec["blew_up"] == "true",
                    T_predicted_shape=float(rec["T_predicted_shape"]),
                    grid_change=float(rec.get("grid_change", "nan")),
                    failed=rec.get("failed") == "true",
                )
            )
    return rows
