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
    expected_U0 = surface_area(3) * spec.eps * spec.data.a_u0 * float(bump @ w)
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
        enforce_hypotheses=False,
    )
    rec = run(spec, probes=fn.probes(spec, 0.5, 0.5))
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


def test_floor_bounds_hold(standard_series, standard_spec, damped_series, damped_spec):
    for series, spec in ((standard_series, standard_spec), (damped_series, damped_spec)):
        ints = fn.data_integrals(spec)
        checks = fn.check_floor_bounds(series, ints, spec.eps)
        assert {c.bound_id.value for c in checks} == {"U1Floor", "V1Floor", "U2Floor"}
        for c in checks:
            assert c.passed, c


def test_floor_bounds_zero_eps_limit():
    times = np.linspace(0, 1, 11)
    zero = np.zeros_like(times)
    series = fn.FunctionalSeries(
        times=times, U=zero, Uprime=zero, V=zero, Vprime=zero,
        U1=zero, V1=zero, U2=zero, curlyU=zero, curlyV=zero, r1=0.5, r2=0.5,
    )
    ints = fn.InitialDataIntegrals(1.0, 1.0, 1.0, 1.0)
    for c in fn.check_floor_bounds(series, ints, 0.0):
        assert c.passed
        assert c.min_margin == 0.0


def test_negative_control_fails_u2_floor(negative_run, negative_spec):
    ser = fn.extract(negative_run)
    ints = fn.data_integrals(negative_spec)
    checks = {c.bound_id.value: c for c in fn.check_floor_bounds(ser, ints, 1.0)}
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


def test_log_seeds_double_critical(cusp_run, cusp_spec, cusp_r_parameters):
    ser = fn.extract(cusp_run)
    assert (ser.r1, ser.r2) == cusp_r_parameters  # the kernel of the record's probes
    checks = {c.bound_id.value: c for c in fn.check_log_seeds(ser, cusp_spec)}
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
    rec = run(spec, probes=fn.probes(spec, 0.5, 0.7))
    ser = fn.extract(rec)
    checks = {c.bound_id.value: c for c in fn.check_log_seeds(ser, spec)}
    assert set(checks) == {"CurlyULog"}
    assert checks["CurlyULog"].passed


def test_log_seeds_theta2_critical_uses_shift():
    from coupledwave.exponents import theta2_critical_p
    from coupledwave.iteration import r_parameters

    q = 1.2
    p = theta2_critical_p(3, q)
    spec = ProblemSpec(
        n=3, pq=ExponentPair(p, q), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
        R=1.0, eps=1.0, data=InitialDataFamily(k=3, amplitudes=(2.0, 2.0, 0.5, 0.5)),
        grid=GridSpec(dr=0.02, t_max=14.0),
    )
    r1, r2 = r_parameters("theta2", 3, spec.pq)
    rec = run(spec, probes=fn.probes(spec, r1, r2))
    ser = fn.extract(rec)
    checks = {c.bound_id.value: c for c in fn.check_log_seeds(ser, spec)}
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


def test_log_seeds_reject_noncritical(standard_series, standard_spec):
    with pytest.raises(ValueError):
        fn.check_log_seeds(standard_series, standard_spec)


def test_floors_hold_with_exp_decay_damping():
    spec = ProblemSpec(
        n=3, pq=ExponentPair(2, 2),
        b1=DampingSpec.exp_decay(0.5), b2=DampingSpec.exp_decay(0.5),
        R=1.0, eps=1.0, data=InitialDataFamily(k=3, amplitudes=(5, 5, 5, 5)),
        grid=GridSpec(dr=0.02, t_max=8.0),
    )
    rec = run(spec, probes=fn.probes(spec, 0.5, 0.5))
    assert rec.blew_up
    ser = fn.extract(rec)
    ints = fn.data_integrals(spec)
    for check in fn.check_floor_bounds(ser, ints, spec.eps):
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
    # the verify suite's identity spec; residuals recorded before the
    # kernel bases were shared, and the check reads no full extraction
    spec = ProblemSpec(
        n=3, pq=ExponentPair(2, 2), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
        R=1.0, eps=1.0, data=InitialDataFamily(k=3, amplitudes=(1, 1, 1, 1)),
        grid=GridSpec(dr=0.01, t_max=2.0),
    )

    def no_extract(*_args, **_kwargs):
        raise AssertionError("identity check must not run the full extraction")

    monkeypatch.setattr(fn, "extract", no_extract)
    pinned = {
        (0.5, 0.5): (0.003419048058476131, 0.0007415593652975575),
        (0.3, 0.8): (0.003514557331984131, 0.0007473036657587769),
    }
    for (r1, r2), expected in pinned.items():
        rec = run(spec, probes=fn.probes(spec, r1, r2))
        res = fn.check_fundamental_identity(rec)
        assert res == pytest.approx(expected, rel=1e-12, abs=0.0)
