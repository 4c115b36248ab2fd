import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from coupledwave import lifespan
from coupledwave.exponents import ExponentPair
from coupledwave.lifespan import (
    ASYMPTOTIC_CAVEAT,
    LifespanRow,
    LifespanTable,
    SweepConfig,
    report,
    sweep,
)
from coupledwave.exponents import LifespanPrediction, PredictionKind, lifespan_prediction
from coupledwave.solver import GridSpec, InitialDataFamily, ProblemSpec, run
from coupledwave.special import DampingSpec


@pytest.fixture(scope="module")
def sweep_base():
    return ProblemSpec(
        n=3,
        pq=ExponentPair(2.0, 2.0),
        b1=DampingSpec.zero(),
        b2=DampingSpec.zero(),
        R=1.0,
        eps=1.0,
        data=InitialDataFamily(k=3, amplitudes=(4.0, 4.0, 4.0, 4.0)),
        grid=GridSpec(dr=0.02, t_max=8.0),
    )


@pytest.fixture(scope="module")
def small_table(sweep_base):
    cfg = SweepConfig(base=sweep_base, eps_values=(1.6, 1.2, 1.0), repeats=2)
    return sweep(cfg)


def test_sweep_config_validation(sweep_base):
    with pytest.raises(ValueError):
        SweepConfig(base=sweep_base, eps_values=())
    with pytest.raises(ValueError):
        SweepConfig(base=sweep_base, eps_values=(1.0, 1.2))  # not decreasing
    with pytest.raises(ValueError):
        SweepConfig(base=sweep_base, eps_values=(1.0, -0.5))
    with pytest.raises(ValueError):
        SweepConfig(base=sweep_base, eps_values=(1.0,), repeats=0)


def test_sweep_rows_monotone(small_table):
    table = small_table
    assert all(r.blew_up for r in table.rows)
    T = [r.T_numeric for r in table.rows]
    assert all(a <= b + 1e-9 for a, b in zip(T, T[1:]))  # eps decreasing, T growing
    assert table.fit is not None
    assert table.fit.slope < 0
    assert table.region == "subcritical"
    assert table.prediction.exponent == pytest.approx(-6.0, abs=1e-9)
    assert table.caveat == ASYMPTOTIC_CAVEAT
    for r in table.rows:
        assert np.isfinite(r.grid_change)
        assert r.grid_change < 0.05


def test_sweep_single_eps(sweep_base):
    cfg = SweepConfig(base=sweep_base, eps_values=(1.5,), repeats=1)
    table = sweep(cfg)
    assert len(table.rows) == 1
    assert table.fit is None
    assert math.isnan(table.rows[0].grid_change)


def test_sweep_horizon_row_excluded(sweep_base):
    # smallest eps cannot blow up within the shortened horizon
    base = dataclasses.replace(sweep_base, grid=GridSpec(dr=0.02, t_max=3.0))
    cfg = SweepConfig(base=base, eps_values=(1.6, 0.2), repeats=1)
    table = sweep(cfg)
    assert table.rows[0].blew_up
    assert not table.rows[1].blew_up
    assert math.isnan(table.rows[1].T_numeric)


def _synthetic_table(eps, T, exponent=-6.0):
    rows = [
        LifespanRow(eps=e, T_numeric=t, T_predicted_shape=e**exponent)
        for e, t in zip(eps, T)
    ]
    return LifespanTable(
        rows=rows,
        region="subcritical",
        prediction=LifespanPrediction(PredictionKind.POWER_LAW, exponent),
    )


def test_fit_scaling_exact_power_law():
    eps = np.array([1.6, 1.2, 1.0, 0.8, 0.6])
    table = _synthetic_table(eps, eps**-6.0)
    fit = table.fit
    assert fit.slope == pytest.approx(-6.0, abs=1e-12)
    assert fit.ci_halfwidth == pytest.approx(0.0, abs=1e-10)
    assert fit.consistent
    assert table.fit == fit  # identical table, identical fit


def test_fit_scaling_with_noise():
    rng = np.random.default_rng(11)
    eps = np.linspace(1.6, 0.6, 8)
    T = eps**-6.0 * np.exp(rng.normal(0, 0.05, eps.size))
    fit = _synthetic_table(eps, T).fit
    assert abs(fit.slope + 6.0) < 0.4 * 6.0
    assert fit.consistent
    assert fit.ci_halfwidth > 0


def test_fit_scaling_positive_slope_inconsistent():
    eps = np.array([1.6, 1.2, 1.0])
    fit = _synthetic_table(eps, eps**2.0).fit
    assert fit.slope > 0
    assert not fit.consistent


def test_fit_scaling_undershoot_is_consistent():
    eps = np.array([1.6, 1.2, 1.0, 0.8])
    fit = _synthetic_table(eps, eps**-2.5).fit
    assert fit.consistent  # magnitude below the bound is acceptable


def test_fit_is_none_below_two_blown_up_rows():
    eps = np.array([1.6, 1.2, 1.0])
    assert _synthetic_table(eps[:1], eps[:1] ** -6.0).fit is None
    # a row that did not blow up does not count towards the two
    assert _synthetic_table(eps, [2.0, math.nan, math.nan]).fit is None
    two = _synthetic_table(eps[:2], eps[:2] ** -6.0).fit
    assert two.slope == pytest.approx(-6.0, abs=1e-12)
    assert math.isnan(two.ci_halfwidth)


def _read_csv(csv_path) -> list:
    with open(csv_path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_report_round_trip(tmp_path, small_table):
    csv_path, json_path = report(small_table, tmp_path)
    rows = _read_csv(csv_path)
    assert len(rows) == len(small_table.rows)
    for got, want in zip(rows, small_table.rows):
        assert float(got["eps"]) == want.eps
        T = float(got["T_numeric"])
        assert T == want.T_numeric or (math.isnan(T) and math.isnan(want.T_numeric))
        assert got["blew_up"] == str(want.blew_up).lower()
        assert float(got["T_predicted_shape"]) == want.T_predicted_shape
    text = open(json_path).read()
    assert "caveat" in text and "eps0" in text


def test_rows_report_finest_repeat_telemetry(tmp_path, sweep_base, small_table):
    grid = dataclasses.replace(sweep_base.grid, dr=sweep_base.grid.dr / 2.0)
    finest = dataclasses.replace(sweep_base, grid=grid)
    previous = None
    for row in small_table.rows:
        rec = run(dataclasses.replace(finest, eps=row.eps))
        assert (row.steps, row.halvings, row.window_max) == (rec.steps, len(rec.halvings), rec.window_max)
        assert (row.cone_spill, row.crossed, row.failure_reason) == (rec.cone_spill, rec.crossed, "")
        if previous is None:
            assert math.isnan(row.local_slope)
        else:
            slope = math.log(row.T_numeric / previous.T_numeric) / math.log(row.eps / previous.eps)
            assert row.local_slope == slope
        previous = row
    _, json_path = report(small_table, tmp_path)
    rows = json.loads(open(json_path).read())["rows"]
    assert [r["eps"] for r in rows] == [r.eps for r in small_table.rows]
    assert rows[0]["local_slope"] is None
    assert rows[1]["local_slope"] == small_table.rows[1].local_slope
    assert rows[2]["steps"] == small_table.rows[2].steps


def test_report_empty_table(tmp_path):
    table = LifespanTable(
        rows=[],
        region="subcritical",
        prediction=lifespan_prediction(3, (2.0, 2.0)),
    )
    csv_path, _ = report(table, tmp_path)
    lines = open(csv_path).read().splitlines()
    assert lines == ["eps,T_numeric,blew_up,T_predicted_shape,grid_change,failed"]


def test_report_round_trip_grid_change_and_failed(tmp_path):
    rows = [
        LifespanRow(eps=1.0, T_numeric=2.5, T_predicted_shape=2.5, grid_change=0.0125),
        LifespanRow(eps=0.5, T_numeric=math.nan, T_predicted_shape=40.0, grid_change=math.nan,
                    failed_repeats=(1,), failure_reason="non-finite values (injected)"),
    ]
    table = LifespanTable(rows=rows, region="subcritical",
                          prediction=lifespan_prediction(3, (2.0, 2.0)))
    csv_path, _ = report(table, tmp_path)
    got = _read_csv(csv_path)
    assert float(got[0]["grid_change"]) == 0.0125
    assert math.isnan(float(got[1]["grid_change"]))
    assert [r["failed"] for r in got] == ["false", "true"]
    assert [r["blew_up"] for r in got] == ["true", "false"]


# the sweep outputs' exact formats: a blown-up row and a failed one
# (lines end with \n, as in the package's other CSVs)
PINNED_CSV = (
    b"eps,T_numeric,blew_up,T_predicted_shape,grid_change,failed\n"
    b"1.6000000000000001,1.6624364612345679,true,1.6624364612345679,0.012500000000000001,false\n"
    b"0.20000000000000001,nan,false,43.100000000000001,nan,true\n"
)
PINNED_JSON = """{
  "caveat": "the lifespan bound applies for eps <= eps0 with eps0 unspecified; this sweep cannot certify being inside the asymptotic regime",
  "fit": null,
  "prediction": {
    "exponent": -5.999999999999997,
    "kind": "power-law"
  },
  "region": "subcritical",
  "rows": [
    {
      "cone_spill": 2.3e-05,
      "crossed": "u_t",
      "eps": 1.6,
      "failure_reason": "",
      "halvings": 2,
      "local_slope": null,
      "steps": 412,
      "window_max": 136
    },
    {
      "cone_spill": 1.7e-05,
      "crossed": null,
      "eps": 0.2,
      "failure_reason": "non-finite values at t=1.66444 before threshold crossing",
      "halvings": 4,
      "local_slope": null,
      "steps": 187,
      "window_max": 96
    }
  ],
  "tasks": [],
  "workers": 1
}
"""
ROW_KEYS = {"eps", "steps", "halvings", "window_max", "cone_spill", "crossed", "failure_reason",
            "local_slope"}


def test_report_pins_the_formats(tmp_path, small_table):
    rows = [
        LifespanRow(eps=1.6, T_numeric=1.6624364612345678, T_predicted_shape=1.6624364612345678,
                    grid_change=0.0125, steps=412, halvings=2, window_max=136, cone_spill=2.3e-05,
                    crossed="u_t"),
        LifespanRow(eps=0.2, T_numeric=math.nan, T_predicted_shape=43.1, failed_repeats=(1,),
                    steps=187, halvings=4, window_max=96, cone_spill=1.7e-05,
                    failure_reason="non-finite values at t=1.66444 before threshold crossing"),
    ]
    table = LifespanTable(rows=rows, region="subcritical",
                          prediction=lifespan_prediction(3, (2.0, 2.0)))
    csv_path, json_path = report(table, tmp_path)
    with open(csv_path, "rb") as fh:
        assert fh.read() == PINNED_CSV
    with open(json_path, "rb") as fh:
        assert fh.read() == PINNED_JSON.encode()
    # a sweep's rows have the same keys, and its fit three
    _, json_path = report(small_table, tmp_path / "sweep")
    with open(json_path) as fh:
        doc = json.load(fh)
    assert set(doc) == {"caveat", "fit", "prediction", "region", "rows", "tasks", "workers"}
    assert set(doc["fit"]) == {"slope", "intercept", "r_squared"}
    assert all(set(row) == ROW_KEYS for row in doc["rows"])
    assert all(set(task) == {"repeat", "eps", "wall_s"} for task in doc["tasks"])


def test_predicted_shape_anchored(small_table):
    rows = small_table.rows
    # shape column follows eps^-6 anchored at the largest blown-up eps
    assert rows[0].T_predicted_shape == pytest.approx(rows[0].T_numeric, rel=1e-12)
    ratio = rows[1].T_predicted_shape / rows[0].T_predicted_shape
    assert ratio == pytest.approx((rows[1].eps / rows[0].eps) ** -6.0, rel=1e-12)


def _fail_at_dr(monkeypatch, dr):
    """Make the solver runs of one grid spacing fail."""
    from coupledwave import lifespan

    real = lifespan.run_batch

    def run_batch(specs):
        records = real(specs)
        return [
            dataclasses.replace(rec, t_blowup=None, failure_reason="non-finite values (injected)")
            if spec.grid.dr == dr else rec
            for spec, rec in zip(specs, records)
        ]

    monkeypatch.setattr(lifespan, "run_batch", run_batch)


def test_coarse_repeat_failure_keeps_finest_row(monkeypatch, sweep_base, small_table):
    _fail_at_dr(monkeypatch, sweep_base.grid.dr)
    cfg = SweepConfig(base=sweep_base, eps_values=(1.6,), repeats=2)
    row = sweep(cfg).rows[0]
    assert row.blew_up and not row.failed
    assert row.T_numeric == small_table.rows[0].T_numeric
    assert row.failed_repeats == (0,)
    assert math.isnan(row.grid_change)


def test_finest_repeat_failure_fails_row(monkeypatch, sweep_base):
    _fail_at_dr(monkeypatch, sweep_base.grid.dr / 2.0)
    cfg = SweepConfig(base=sweep_base, eps_values=(1.6,), repeats=2)
    row = sweep(cfg).rows[0]
    assert row.failed and not row.blew_up
    assert math.isnan(row.T_numeric)
    assert row.failed_repeats == (1,)
    assert math.isnan(row.grid_change)


# --- the schedule: worker pool against in-process -------------------------

ROW_FIELDS = ("T_numeric", "blew_up", "grid_change", "failed", "failed_repeats", "steps",
              "halvings", "window_max", "cone_spill", "crossed", "failure_reason",
              "local_slope")


def _same(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


def _sweep_on(monkeypatch, cfg, cpus):
    monkeypatch.setattr(lifespan, "_available_cpus", lambda: cpus)
    return sweep(cfg)


def _schedule(table):
    return [(t["repeat"], t["eps"]) for t in table.tasks]


def _assert_each_row_ran_once(table, cfg):
    """Every (repeat, eps) of the sweep is in exactly one reported batch."""
    ran = [(t["repeat"], eps) for t in table.tasks for eps in t["eps"]]
    assert sorted(ran) == sorted((rep, eps) for rep in range(cfg.repeats) for eps in cfg.eps_values)


def _assert_pool_matches_in_process(monkeypatch, cfg, serial=None, cpus=2):
    """A sweep packed for ``cpus`` workers equals the in-process one,
    ``serial`` when given."""
    pooled = _sweep_on(monkeypatch, cfg, cpus)
    if serial is None:
        serial = _sweep_on(monkeypatch, cfg, 1)
    assert serial.workers == 1
    assert pooled.workers == min(cpus, cfg.repeats * len(cfg.eps_values))
    # in-process: one batch per repeat's whole ladder, finest first
    eps = list(cfg.eps_values)
    assert _schedule(serial) == [(rep, eps) for rep in reversed(range(cfg.repeats))]
    for table in (serial, pooled):
        _assert_each_row_ran_once(table, cfg)
    assert len(pooled.rows) == len(serial.rows) == len(cfg.eps_values)
    for got, want in zip(pooled.rows, serial.rows):
        assert got.eps == want.eps
        for name in ROW_FIELDS:
            assert _same(getattr(got, name), getattr(want, name)), name
    assert pooled.fit == serial.fit
    return pooled


@pytest.mark.parametrize("seed", [0, 7])
def test_pool_matches_in_process_sweep_n2(monkeypatch, sweep_n2, seed):
    # the benchmark's sweep-n2 inputs: eps halving from 1 to 1/16,
    # jittered; the in-process side is the session's shared sweep
    cfg, serial, _batches = sweep_n2(seed)
    table = _assert_pool_matches_in_process(monkeypatch, cfg, serial)
    assert all(row.blew_up for row in table.rows)
    # the finest row of the smallest eps alone on one worker; the other
    # four finest rows, then the coarse ladder, on the other
    eps = list(cfg.eps_values)
    assert _schedule(table) == [(1, eps[4:]), (1, eps[:4]), (0, eps)]


@pytest.mark.parametrize("eps_values, repeats", [((1.6,), 2), ((1.6, 1.2, 1.0), 1),
                                                 ((1.6, 1.2, 1.0), 3)])
def test_pool_matches_in_process(monkeypatch, sweep_base, eps_values, repeats):
    base = dataclasses.replace(sweep_base, grid=GridSpec(dr=0.04, t_max=8.0))
    _assert_pool_matches_in_process(monkeypatch, SweepConfig(base, eps_values, repeats))


@pytest.fixture(scope="module")
def coarse_cfg(sweep_base):
    """Six rows: three eps at two repeats, dr 0.04 and 0.02."""
    base = dataclasses.replace(sweep_base, grid=GridSpec(dr=0.04, t_max=8.0))
    return SweepConfig(base, (1.6, 1.2, 1.0), 2)


@pytest.fixture(scope="module")
def coarse_serial(coarse_cfg):
    with pytest.MonkeyPatch.context() as mp:
        return _sweep_on(mp, coarse_cfg, 1)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_any_plan_writes_the_in_process_results(monkeypatch, tmp_path, coarse_cfg, coarse_serial, cpus):
    table = _assert_pool_matches_in_process(monkeypatch, coarse_cfg, coarse_serial, cpus)
    assert len(table.tasks) >= cpus
    csv_paths = [report(t, tmp_path / name)[0] for t, name in ((table, "plan"), (coarse_serial, "serial"))]
    with open(csv_paths[0], "rb") as got, open(csv_paths[1], "rb") as want:
        assert got.read() == want.read()


def test_plan_packs_the_costliest_rows_first():
    # costs 8, 5, 4, 3, 2 on two bins: 8 | 5, then 4 onto the 5 (9), 3
    # onto the 8 (11) and 2 onto the 9; of three equal rows the third ties
    # and goes to the first bin
    costs = {(1, 0): 2.0, (1, 1): 8.0, (1, 2): 3.0, (0, 0): 5.0, (0, 1): 4.0}
    assert lifespan._pack(costs, 2) == [[(1, [1, 2])], [(1, [0]), (0, [0, 1])]]
    assert lifespan._pack({(0, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0}, 2) == [[(0, [0, 2])], [(0, [1])]]
    # one bin: every repeat's whole ladder, finest first
    assert lifespan._pack(costs, 1) == [[(1, [0, 1, 2]), (0, [0, 1])]]
    # a bin left without a row is no task
    assert lifespan._pack({(0, 0): 1.0}, 3) == [[(0, [0])]]


def test_row_cost_follows_the_predicted_lifespan():
    # 4^repeat T^2 in units of 4^finest, T = eps^exponent up to t_max
    T = 0.5**-1.5
    assert lifespan._row_cost(1, 1, 0.5, -1.5, 100.0) == T * T
    assert lifespan._row_cost(0, 1, 0.5, -1.5, 100.0) == 0.25 * T * T
    assert lifespan._row_cost(1, 1, 0.01, -1.5, 100.0) == 100.0**2
    assert lifespan._row_cost(1, 1, 0.5, math.nan, 7.0) == 49.0
    # no power overflows: a tiny eps, a huge t_max, hundreds of repeats
    assert lifespan._row_cost(600, 600, 1e-300, -6.0, 1e300) == math.inf
    assert lifespan._row_cost(0, 600, 0.5, -6.0, 8.0) == 0.0


@pytest.mark.parametrize("repeat", [0, 1])
def test_pool_matches_in_process_failed_repeat(monkeypatch, sweep_base, repeat):
    _fail_at_dr(monkeypatch, sweep_base.grid.dr / 2.0**repeat)
    cfg = SweepConfig(base=sweep_base, eps_values=(1.6, 1.2), repeats=2)
    table = _assert_pool_matches_in_process(monkeypatch, cfg)
    assert all(row.failed_repeats == (repeat,) for row in table.rows)


def test_available_cpus_follow_the_affinity_mask():
    assert lifespan._available_cpus() == len(os.sched_getaffinity(0))


def test_pool_runs_on_linux_only(monkeypatch):
    monkeypatch.setattr(lifespan, "_available_cpus", lambda: 4)
    monkeypatch.setattr(lifespan.sys, "platform", "linux")
    assert lifespan._pool_workers(3) == 3
    assert lifespan._pool_workers(5) == 4
    monkeypatch.setattr(lifespan.sys, "platform", "darwin")
    assert lifespan._pool_workers(3) == 1


@pytest.mark.parametrize("cpus, workers, tasks", [
    (1, 1, [(1, [1.6, 1.2, 1.0]), (0, [1.6, 1.2, 1.0])]),
    # the finest eps = 1.0 row (T^2 = 1, x4) alone; the rest add up to 1.58
    (2, 2, [(1, [1.0]), (1, [1.6, 1.2]), (0, [1.6, 1.2, 1.0])]),
])
def test_report_writes_the_schedule(monkeypatch, tmp_path, sweep_base, cpus, workers, tasks):
    table = _sweep_on(monkeypatch, SweepConfig(sweep_base, (1.6, 1.2, 1.0), 2), cpus)
    _, json_path = report(table, tmp_path)
    with open(json_path) as fh:
        doc = json.load(fh)
    assert doc["workers"] == table.workers == workers
    assert [(t["repeat"], t["eps"]) for t in doc["tasks"]] == tasks
    assert all(t["wall_s"] > 0 for t in doc["tasks"])
