import dataclasses
import json
import math

import numpy as np
import pytest

from coupledwave.exponents import ExponentPair
from coupledwave.lifespan import (
    ASYMPTOTIC_CAVEAT,
    LifespanRow,
    LifespanTable,
    SweepConfig,
    fit_scaling,
    read_rows,
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
        LifespanRow(eps=e, T_numeric=t, blew_up=True, T_predicted_shape=e**exponent)
        for e, t in zip(eps, T)
    ]
    return LifespanTable(
        rows=rows,
        fit=None,
        region="subcritical",
        prediction=LifespanPrediction(PredictionKind.POWER_LAW, exponent),
    )


def test_fit_scaling_exact_power_law():
    eps = np.array([1.6, 1.2, 1.0, 0.8, 0.6])
    table = _synthetic_table(eps, eps**-6.0)
    fit = fit_scaling(table, -6.0)
    assert fit.slope == pytest.approx(-6.0, abs=1e-12)
    assert fit.ci_halfwidth == pytest.approx(0.0, abs=1e-10)
    assert fit.consistent
    assert fit_scaling(table, -6.0) == fit  # identical table, identical fit


def test_fit_scaling_with_noise():
    rng = np.random.default_rng(11)
    eps = np.linspace(1.6, 0.6, 8)
    T = eps**-6.0 * np.exp(rng.normal(0, 0.05, eps.size))
    fit = fit_scaling(_synthetic_table(eps, T), -6.0)
    assert abs(fit.slope + 6.0) < 0.4 * 6.0
    assert fit.consistent
    assert fit.ci_halfwidth > 0


def test_fit_scaling_positive_slope_inconsistent():
    eps = np.array([1.6, 1.2, 1.0])
    fit = fit_scaling(_synthetic_table(eps, eps**2.0), -6.0)
    assert fit.slope > 0
    assert not fit.consistent


def test_fit_scaling_undershoot_is_consistent():
    eps = np.array([1.6, 1.2, 1.0, 0.8])
    fit = fit_scaling(_synthetic_table(eps, eps**-2.5), -6.0)
    assert fit.consistent  # magnitude below the bound is acceptable


def test_fit_scaling_requires_three_rows():
    eps = np.array([1.6, 1.2])
    with pytest.raises(ValueError):
        fit_scaling(_synthetic_table(eps, eps**-6.0), -6.0)


def test_report_round_trip(tmp_path, small_table):
    csv_path, json_path = report(small_table, tmp_path)
    rows = read_rows(csv_path)
    assert len(rows) == len(small_table.rows)
    for got, want in zip(rows, small_table.rows):
        assert got.eps == want.eps
        assert got.T_numeric == want.T_numeric or (
            math.isnan(got.T_numeric) and math.isnan(want.T_numeric)
        )
        assert got.blew_up == want.blew_up
        assert got.T_predicted_shape == want.T_predicted_shape
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
        fit=None,
        region="subcritical",
        prediction=lifespan_prediction(3, (2.0, 2.0)),
    )
    csv_path, _ = report(table, tmp_path)
    lines = open(csv_path).read().splitlines()
    assert lines == ["eps,T_numeric,blew_up,T_predicted_shape,grid_change,failed"]


def test_report_round_trip_grid_change_and_failed(tmp_path):
    rows = [
        LifespanRow(eps=1.0, T_numeric=2.5, blew_up=True, T_predicted_shape=2.5,
                    grid_change=0.0125, failed=False),
        LifespanRow(eps=0.5, T_numeric=math.nan, blew_up=False, T_predicted_shape=40.0,
                    grid_change=math.nan, failed=True, failed_repeats=(1,)),
    ]
    table = LifespanTable(rows=rows, fit=None, region="subcritical",
                          prediction=lifespan_prediction(3, (2.0, 2.0)))
    csv_path, _ = report(table, tmp_path)
    got = read_rows(csv_path)
    assert got[0].grid_change == 0.0125
    assert math.isnan(got[1].grid_change)
    assert [r.failed for r in got] == [False, True]
    assert [r.blew_up for r in got] == [True, False]
    # a CSV written before these columns still reads
    old = tmp_path / "old.csv"
    old.write_text("eps,T_numeric,blew_up,T_predicted_shape\n1,2.5,true,2.5\n")
    (row,) = read_rows(old)
    assert math.isnan(row.grid_change) and row.failed is False


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
            dataclasses.replace(
                rec, blew_up=False, t_blowup=None, failed=True,
                failure_reason="non-finite values (injected)",
            ) if spec.grid.dr == dr else rec
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
