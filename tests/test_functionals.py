import dataclasses
import math

import numpy as np
import pytest

from coupledwave import functionals as fn
from coupledwave.exponents import ExponentPair, theta1_critical_q
from coupledwave.solver import GridSpec, InitialDataFamily, ProblemSpec, run
from coupledwave.special import DampingSpec, multiplier, surface_area


@pytest.fixture(scope="module")
def standard_series(standard_run):
    return fn.extract(standard_run)


@pytest.fixture(scope="module")
def damped_series(damped_run):
    return fn.extract(damped_run)


def test_extract_initial_values(standard_run, standard_spec, standard_series):
    rec, spec, ser = standard_run, standard_spec, standard_series
    dr = rec.r[1] - rec.r[0]
    w = rec.r**2 * dr
    w[0] *= 0.5
    w[-1] *= 0.5
    bump = spec.data.profile(rec.r, spec.R)
    expected_U0 = surface_area(3) * spec.eps * spec.data.amplitudes[0] * float(bump @ w)
    assert ser.U[0] == pytest.approx(expected_U0, rel=1e-12)
    # U2(0) = eps int u1 Phi dx = 2 eps I1[u1] / m1(0), with m1(0) = 1 here
    ints = fn.data_integrals(spec)
    assert ser.U2[0] == pytest.approx(2 * spec.eps * ints.I1_u1, rel=1e-12)
    assert len(ser.times) == len(ser.U) == len(ser.curlyU) == len(ser.curlyV)
    for name in ("U", "Uprime", "V", "Vprime", "U1", "V1", "U2", "curlyU", "curlyV"):
        assert np.isfinite(getattr(ser, name)).all()


def test_extract_zero_data_gives_zero_series():
    spec = ProblemSpec(
        n=3, pq=ExponentPair(2, 2), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
        R=1.0, eps=1.0,
        data=InitialDataFamily(k=3, amplitudes=(0.0, 0.0, 0.0, 0.0)),
        grid=GridSpec(dr=0.02, t_max=1.0),
    )
    rec = run(spec, probes=fn.probes(spec))
    ser = fn.extract(rec)
    for name in ("U", "Uprime", "V", "Vprime", "U1", "V1", "U2", "curlyU", "curlyV"):
        assert np.abs(getattr(ser, name)).max() == 0.0


def test_data_integrals_positive_and_scaled(damped_spec):
    ints = fn.data_integrals(damped_spec)
    m1 = float(multiplier(damped_spec.b1, 0.0))
    assert 0 < m1 < 1
    assert ints.I1_u0 > 0 and ints.I1_u1 > 0 and ints.I2_v0 > 0 and ints.I2_v1 > 0
    # undamped integrals exceed damped ones by exactly 1/m(0)
    undamped = dataclasses.replace(
        damped_spec, b1=DampingSpec.zero(), b2=DampingSpec.zero()
    )
    ints0 = fn.data_integrals(undamped)
    assert ints0.I1_u0 == pytest.approx(ints.I1_u0 / m1, rel=1e-12)


def test_floor_bounds_hold(standard_run, damped_run):
    for rec in (standard_run, damped_run):
        checks = fn.check_floor_bounds(rec)
        assert {c.bound_id.value for c in checks} == {"U1Floor", "V1Floor", "U2Floor"}
        for c in checks:
            assert c.passed, c


def test_floor_bounds_zero_eps_limit():
    # zero data: the floors eps * I[...] and the series are all 0, so
    # every margin is exactly 0 and every check passes
    spec = ProblemSpec(
        n=3, pq=ExponentPair(2, 2), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
        R=1.0, eps=1.0,
        data=InitialDataFamily(k=3, amplitudes=(0.0, 0.0, 0.0, 0.0)),
        grid=GridSpec(dr=0.02, t_max=1.0),
    )
    rec = run(spec, probes=fn.probes(spec))
    checks = fn.check_floor_bounds(rec)
    assert len(checks) == 3
    for c in checks:
        assert c.passed
        assert c.min_margin == 0.0


def test_negative_control_fails_u2_floor(negative_run):
    checks = {c.bound_id.value: c for c in fn.check_floor_bounds(negative_run)}
    assert not checks["U2Floor"].passed
    assert checks["U2Floor"].min_margin < 0


def test_nonlinearity_envelopes(standard_run, standard_spec, damped_run):
    # at n=3, q=2 the envelope power n-1-(n-1)q/2 vanishes
    assert standard_spec.n - 1 - 0.5 * (standard_spec.n - 1) * standard_spec.pq.q == 0
    for rec in (standard_run, damped_run):
        checks = fn.check_nonlinearity_bounds(rec)
        assert {c.bound_id.value for c in checks} == {"NonlinQ", "NonlinP"}
        for c in checks:
            assert c.passed, c
            assert c.window[0] >= 1.0


def test_fundamental_identity_small_residual(identity_run):
    res_u, res_v = fn.check_fundamental_identity(identity_run)
    assert res_u < 0.02
    assert res_v < 0.02


def test_fundamental_identity_exact_at_t0(identity_run):
    res_u, res_v = fn.check_fundamental_identity(identity_run, checkpoints=[0.0])
    assert res_u < 1e-12
    assert res_v < 1e-12


def test_fundamental_identity_nan_projection_is_a_nan_residual(identity_run):
    # a NaN at the last checkpoint must not vanish in the maximum over checkpoints
    proj = dict(identity_run.projections)
    proj["ut"] = proj["ut"].copy()
    proj["ut"][-1] = np.nan
    bad = dataclasses.replace(identity_run, projections=proj)
    res_u, res_v = fn.check_fundamental_identity(bad)
    assert math.isnan(res_u)
    assert res_v < 0.02


def test_fundamental_identity_rejects_damped(damped_run):
    with pytest.raises(ValueError):
        fn.check_fundamental_identity(damped_run)


def test_log_seeds_double_critical(cusp_run):
    checks = {c.bound_id.value: c for c in fn.check_log_seeds(cusp_run)}
    assert set(checks) == {"CurlyULog", "CurlyVLog"}
    assert checks["CurlyULog"].passed
    assert checks["CurlyVLog"].passed
    # window starts at e (log t <= 0 excluded)
    assert checks["CurlyULog"].window[0] >= math.e - 0.05


def test_log_seeds_theta1_critical():
    q = theta1_critical_q(3, 2.0)
    spec = ProblemSpec(
        n=3, pq=ExponentPair(2.0, q), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
        R=1.0, eps=1.0, data=InitialDataFamily(k=3, amplitudes=(2.5, 2.5, 2.5, 2.5)),
        grid=GridSpec(dr=0.02, t_max=18.0),
    )
    rec = run(spec, probes=fn.probes(spec))  # r1 = 0.5, the seed's; r2 = 0.6
    checks = {c.bound_id.value: c for c in fn.check_log_seeds(rec)}
    assert set(checks) == {"CurlyULog"}
    assert checks["CurlyULog"].passed


def test_log_seeds_theta2_critical_uses_shift():
    from coupledwave.exponents import theta2_critical_p

    q = 1.2
    p = theta2_critical_p(3, q)
    spec = ProblemSpec(
        n=3, pq=ExponentPair(p, q), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
        R=1.0, eps=1.0, data=InitialDataFamily(k=3, amplitudes=(2.0, 2.0, 0.5, 0.5)),
        grid=GridSpec(dr=0.02, t_max=14.0),
    )
    rec = run(spec, probes=fn.probes(spec))  # the seed reads r2
    ser = fn.extract(rec)
    checks = {c.bound_id.value: c for c in fn.check_log_seeds(rec)}
    assert set(checks) == {"CurlyVLog"}
    check = checks["CurlyVLog"]
    assert check.passed
    # the fitted constant uses the shifted argument log(2t/3)
    i0 = np.searchsorted(ser.times, check.window[0])
    const = ser.curlyV[i0] / math.log(2.0 * ser.times[i0] / 3.0)
    assert check.min_margin == pytest.approx(
        float(np.min(ser.curlyV[i0:] - const * np.log(2.0 * ser.times[i0:] / 3.0))),
        rel=1e-9,
    )


def test_log_seeds_reject_noncritical(standard_run):
    with pytest.raises(ValueError, match="need a critical spec"):
        fn.check_log_seeds(standard_run)


def test_log_seeds_reject_damped_critical(cusp_spec):
    # refused by require_zero_damping, before any extraction
    spec = dataclasses.replace(cusp_spec, b1=DampingSpec.power_decay(0.5, 2.0),
                               grid=GridSpec(dr=0.04, t_max=0.5))
    rec = run(spec, probes=fn.probes(spec))
    with pytest.raises(ValueError, match="hold for zero damping only"):
        fn.check_log_seeds(rec)


def test_floors_hold_with_exp_decay_damping():
    spec = ProblemSpec(
        n=3, pq=ExponentPair(2, 2),
        b1=DampingSpec.exp_decay(0.5), b2=DampingSpec.exp_decay(0.5),
        R=1.0, eps=1.0, data=InitialDataFamily(k=3, amplitudes=(5, 5, 5, 5)),
        grid=GridSpec(dr=0.02, t_max=8.0),
    )
    rec = run(spec, probes=fn.probes(spec))
    assert rec.blew_up
    for check in fn.check_floor_bounds(rec):
        assert check.passed, check
    for check in fn.check_nonlinearity_bounds(rec):
        assert check.passed, check


def test_uprime_consistency_with_u(standard_series):
    # numerical derivative of U reproduces Uprime away from blow-up
    ser = standard_series
    t, U, Up = ser.times, ser.U, ser.Uprime
    end = np.searchsorted(t, 0.8 * t[-1])
    dt = np.diff(t[:end])
    assert np.allclose(dt, dt[0], rtol=1e-9)  # uniform window
    dU = (U[2:end] - U[: end - 2]) / (t[2:end] - t[: end - 2])
    rel = np.abs(dU - Up[1 : end - 1]) / np.maximum(np.abs(Up[1 : end - 1]), 1.0)
    assert rel.max() < 5e-3


@pytest.mark.parametrize("fixture", ["standard", "damped"])
def test_ode_consistency(request, fixture):
    rec = request.getfixturevalue(f"{fixture}_run")
    ser = fn.extract(rec)
    nl_q, _ = fn.nonlinearity_integrals(rec)
    t, U, Up = ser.times, ser.U, ser.Uprime
    end = np.searchsorted(t, 0.7 * t[-1])
    dt = t[1] - t[0]
    d2U = (U[2:end] - 2 * U[1 : end - 1] + U[: end - 2]) / dt**2
    b1 = rec.spec.b1.b(t[1 : end - 1])
    resid = d2U + b1 * Up[1 : end - 1] - nl_q[1 : end - 1]
    rel = np.abs(resid) / np.maximum(np.abs(nl_q[1 : end - 1]), 1e-12)
    # skip the first few samples where the second difference spans the
    # Taylor start-up step
    assert rel[3:].max() < 0.02


def test_uprime_monotone_floor(damped_series, damped_spec):
    m10 = float(multiplier(damped_spec.b1, 0.0))
    Up = damped_series.Uprime
    assert np.all(Up >= m10 * Up[0] - 1e-9 * abs(Up[0]))


def test_fundamental_identity_pinned_residuals(monkeypatch):
    # the verify suite's identity spec (r1 = r2 = 0.5), and the same at
    # p, q = 2.5, 1.7 (r1 = 0.6, r2 = 0.412); the check reads no full
    # extraction; values recorded with the numpy Gauss-Jacobi rule,
    # which lies closer than scipy's roots_jacobi to an mpmath-built rule.
    # curlyU and curlyV are pinned at the check's checkpoints (the
    # quarters of the 444 samples) to 1e-12 relative.  A residual
    # |curlyU - rhs| / |curlyU| near 1e-3 amplifies a one-ulp change of
    # either side about 1e3 times, so the residuals are pinned to 1e-13
    # absolute: one BLAS thread or two, or a reordered stencil, moves
    # them by about 1e-14.
    spec = ProblemSpec(
        n=3, pq=ExponentPair(2, 2), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
        R=1.0, eps=1.0, data=InitialDataFamily(k=3, amplitudes=(1, 1, 1, 1)),
        grid=GridSpec(dr=0.01, t_max=2.0),
    )
    checkpoints = [111, 222, 332, 443]
    pinned = {
        (2.0, 2.0): (
            (0.00341904805849809, 0.0007415593653037042),
            (3.3197708399779757, 3.4070995282648697, 3.5536803265295815, 3.7560325378292143),
            (4.229175396207129, 6.6252111655451085, 9.428825610242484, 12.441675843994611),
        ),
        (2.5, 1.7): (
            (0.002718316899346554, 0.0008160322964030958),
            (3.2198456520384267, 3.513640683633782, 3.877450899408804, 4.278481996766563),
            (4.642351135078356, 7.3342951526819835, 9.976562989335852, 12.436515184172482),
        ),
    }
    records = {}
    for pq, (_res, curlyU, curlyV) in pinned.items():
        spec_pq = dataclasses.replace(spec, pq=ExponentPair(*pq))
        rec = records[pq] = run(spec_pq, probes=fn.probes(spec_pq))
        assert len(rec.times) == 444
        series = fn.extract(rec)
        assert series.curlyU[checkpoints] == pytest.approx(curlyU, rel=1e-12, abs=0.0)
        assert series.curlyV[checkpoints] == pytest.approx(curlyV, rel=1e-12, abs=0.0)

    def no_extract(*_args, **_kwargs):
        raise AssertionError("identity check must not run the full extraction")

    monkeypatch.setattr(fn, "extract", no_extract)
    for key, (expected, _curlyU, _curlyV) in pinned.items():
        res = fn.check_fundamental_identity(records[key])
        assert res == pytest.approx(expected, rel=0.0, abs=1e-13)


def test_identity_checkpoints_are_distinct_and_past_zero(monkeypatch):
    # three samples: the quarters of 2 round to 0, 1, 2, 2, and the check
    # reads samples 1 and 2 once each, not t = 0, where both sides are
    # the same sums, nor sample 2 twice
    spec = ProblemSpec(
        n=3, pq=ExponentPair(2, 2), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
        R=1.0, eps=1.0, data=InitialDataFamily(k=3, amplitudes=(1, 1, 1, 1)),
        grid=GridSpec(dr=0.01, t_max=0.0135),
    )
    rec = run(spec, probes=fn.probes(spec))
    assert len(rec.times) == 3
    seen = []
    weights = fn._sub_trapezoid_weights

    def spy(times, ci):
        seen.append(ci)
        return weights(times, ci)

    monkeypatch.setattr(fn, "_sub_trapezoid_weights", spy)
    fn.check_fundamental_identity(rec)
    assert seen == [1, 2]
