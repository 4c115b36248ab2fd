import dataclasses
import json
import warnings

import numpy as np
import pytest

from coupledwave.exponents import ExponentPair
from coupledwave.solver import (
    GridSpec,
    InitialDataFamily,
    ProblemSpec,
    detect_blowup,
    evolve_scalar,
    integral_probes,
    radial_energy,
    radial_grid,
    radial_weights,
    run,
    write_blowup_json,
    write_summary_csv,
)
from coupledwave.special import DampingSpec, surface_area

R0 = 2.0


def bump5(r):
    return np.clip(1.0 - (r / R0) ** 2, 0.0, None) ** 5


def lap_bump5(r, n):
    s = np.clip(1.0 - (r / R0) ** 2, 0.0, None)
    return -(10.0 * n / R0**2) * s**4 + (80.0 * r**2 / R0**4) * s**3


def test_bump_profile_properties():
    data = InitialDataFamily(k=3)
    r = np.linspace(0, 2, 200)
    prof = data.profile(r, 1.0)
    assert np.all(prof >= 0)
    assert np.all(prof[r > 1.0] == 0)
    assert prof[0] == 1.0


def test_data_family_validation():
    with pytest.raises(ValueError):
        InitialDataFamily(k=1)
    with pytest.raises(ValueError):
        InitialDataFamily(amplitudes=(1.0, 1.0))
    assert not InitialDataFamily(amplitudes=(1, 0, 1, 1)).hypotheses_ok()
    assert not InitialDataFamily(amplitudes=(1, 1, -1, 1)).hypotheses_ok()
    assert InitialDataFamily(amplitudes=(0, 1, 1, 0)).hypotheses_ok()


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(dr=0.02, t_max=1.0, cfl=1.2)
    with pytest.raises(ValueError):
        GridSpec(dr=0.02, t_max=1.0, cfl=0.0)
    with pytest.raises(ValueError):
        GridSpec(dr=-0.02, t_max=1.0)
    assert GridSpec(dr=0.02, t_max=1.0).dt == pytest.approx(0.45 * 0.02)


def _spec(**kw):
    base = dict(
        n=3,
        pq=ExponentPair(2, 2),
        b1=DampingSpec.zero(),
        b2=DampingSpec.zero(),
        R=1.0,
        eps=1.0,
        data=InitialDataFamily(k=3, amplitudes=(1, 1, 1, 1)),
        grid=GridSpec(dr=0.02, t_max=2.0),
    )
    base.update(kw)
    return ProblemSpec(**base)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        _spec(grid=GridSpec(dr=0.2, t_max=2.0))  # too coarse for R = 1
    with pytest.raises(ValueError):
        _spec(grid=GridSpec(dr=0.02, t_max=5.0, r_max=3.0))  # cone leaves domain
    with pytest.raises(ValueError):
        _spec(data=InitialDataFamily(amplitudes=(1, -1, 1, 1)))
    spec = _spec()
    assert spec.grid.r_max >= spec.R + spec.grid.t_max
    r = radial_grid(spec)
    assert r[0] == 0.0
    assert r[-1] >= spec.grid.r_max - spec.grid.dr


def test_linear_energy_conservation_and_order():
    n = 3
    drifts = []
    for dr in (0.02, 0.01):
        rmax = 12.0
        m = int(np.floor(rmax / dr + 1e-9)) + 1
        r = np.arange(m) * dr
        w0 = bump5(r)
        ts, W, Wt, rr = evolve_scalar(
            n, dr, 8.0, DampingSpec.zero(), w0, w0.copy(), rmax, cfl=0.45,
            sample_stride=40,
        )
        E = np.array([radial_energy(W[i], Wt[i], rr, n) for i in range(len(ts))])
        drifts.append(float(np.abs(E - E[0]).max() / E[0]))
    assert drifts[0] < 5e-3
    # O(dr^2): refinement shrinks the drift by about 4
    assert drifts[0] / drifts[1] > 2.5


def test_damped_energy_nonincreasing():
    n, dr, rmax = 3, 0.02, 12.0
    m = int(np.floor(rmax / dr + 1e-9)) + 1
    r = np.arange(m) * dr
    w0 = bump5(r)
    ts, W, Wt, rr = evolve_scalar(
        n, dr, 8.0, DampingSpec.power_decay(1.0, 2.0), w0, w0.copy(), rmax,
        cfl=0.45, sample_stride=40,
    )
    E = np.array([radial_energy(W[i], Wt[i], rr, n) for i in range(len(ts))])
    assert E[-1] < E[0]
    # pointwise non-increasing up to the O(dr^2) oscillation of the
    # centered energy functional
    assert np.all(np.diff(E) <= 1e-4 * E[0])


@pytest.mark.parametrize("n", [2, 3])
def test_manufactured_solution_convergence(n):
    def exact(t, r):
        return np.exp(-t) * bump5(r)

    def forcing(t, r):
        return np.exp(-t) * (bump5(r) - lap_bump5(r, n))

    errs = []
    for dr in (0.04, 0.02, 0.01):
        rmax = 6.0
        m = int(np.floor(rmax / dr + 1e-9)) + 1
        r = np.arange(m) * dr
        ts, W, _Wt, rr = evolve_scalar(
            n, dr, 1.0, DampingSpec.zero(), bump5(r), -bump5(r), rmax,
            cfl=0.5, forcing=forcing, sample_stride=10**9,
        )
        assert ts[-1] == pytest.approx(1.0, abs=1e-12)
        errs.append(float(np.abs(W[-1] - exact(ts[-1], rr)).max()))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2


def test_run_blows_up_and_masks_cone(standard_spec, standard_run, standard_profiles):
    rec = standard_run
    assert rec.blew_up and not rec.failed
    assert rec.t_blowup == pytest.approx(4.81, abs=0.1)
    # the cone zeroing removes only a truncation-level spill
    assert 0.0 < rec.cone_spill < 1e-4
    # support condition holds exactly beyond r = t + R at every sample
    prof = standard_profiles
    for i, t in enumerate(prof.times):
        mask = prof.r > t + standard_spec.R
        for name in ("u", "ut", "v", "vt"):
            assert not prof.projections[name][i][mask].any()
    # blow-up flag is consistent with the recorded norms
    assert rec.sup_norms.max() >= standard_spec.grid.blowup_threshold


class _WideBump(InitialDataFamily):
    """Bump data supported in B_{2R}, wider than the declared R."""

    def profile(self, rho, R):
        return super().profile(rho, 2.0 * R)


def test_light_cone_negative_control():
    # data that extend past R: the cone zeroing cuts the solution itself
    clean, wide = (
        run(_spec(data=data(k=3, amplitudes=(1, 1, 1, 1)), grid=GridSpec(dr=0.02, t_max=2.0)))
        for data in (InitialDataFamily, _WideBump)
    )
    assert clean.cone_spill < 1e-4
    assert wide.cone_spill > 0.1


def test_detect_blowup_bracketing():
    times = np.linspace(0, 10, 11)
    norms = np.exp(times)  # crosses e^t = 1e3 around t = 6.9
    flag, tb = detect_blowup(times, norms, 1e3)
    assert flag
    assert 6.0 < tb < 7.0
    assert tb == pytest.approx(np.log(1e3), abs=1e-9)  # exact for log-linear data
    flag, tb = detect_blowup(times, norms, 1e9)
    assert not flag and tb is None
    with pytest.raises(ValueError):
        detect_blowup(times, norms, 0.5)  # threshold below initial norms


def test_detect_blowup_multicolumn():
    times = np.array([0.0, 1.0, 2.0])
    norms = np.array([[1.0, 1.0, 1.0], [1.0, 5.0, 1.0], [1.0, 50.0, 1.0]])
    flag, tb = detect_blowup(times, norms, 10.0)
    assert flag and 1.0 < tb < 2.0


def test_threshold_sensitivity(standard_spec):
    # near blow-up the norms grow superlinearly, so the crossing time is
    # threshold-insensitive
    def t_at(threshold):
        spec = dataclasses.replace(
            standard_spec,
            grid=dataclasses.replace(standard_spec.grid, blowup_threshold=threshold),
        )
        return run(spec).t_blowup

    t6, t8 = t_at(1e6), t_at(1e8)
    assert abs(t8 - t6) / t8 < 0.05


def test_determinism(standard_spec, standard_run, standard_profiles, profile_run):
    again = profile_run(standard_spec)
    for name in ("u", "ut", "v", "vt"):
        assert np.array_equal(again.projections[name], standard_profiles.projections[name])
    assert np.array_equal(again.sup_norms, standard_run.sup_norms)
    assert again.t_blowup == standard_run.t_blowup


def test_spatial_average_nondecreasing_undamped(standard_profiles):
    # U'' = int |v|^q >= 0 and U'(0) >= 0, so U never decreases
    rec = standard_profiles
    dr = rec.r[1] - rec.r[0]
    w = rec.r**2 * dr
    w[0] *= 0.5
    w[-1] *= 0.5
    U = surface_area(3) * (rec.projections["u"] @ w)
    assert np.all(np.diff(U) > -1e-12 * max(1.0, np.abs(U).max()))


def test_run_without_probes_keeps_norms_only(tmp_path, standard_spec, standard_run):
    rec = run(standard_spec)
    assert rec.projections == {}
    assert rec.u is rec.ut is rec.v is rec.vt is None
    assert rec.t_blowup == standard_run.t_blowup
    with pytest.raises(ValueError, match="integral_probes"):
        write_summary_csv(rec, tmp_path / "run.csv")


def test_summary_csv_refuses_other_probes(tmp_path, standard_spec, standard_profiles):
    # identity-matrix probes: row 0 is the profiles' value at r = 0, not
    # an integral
    assert not standard_profiles.integrals
    with pytest.raises(ValueError, match="integral_probes"):
        write_summary_csv(standard_profiles, tmp_path / "run.csv")
    assert run(standard_spec, probes=integral_probes(standard_spec)).integrals


def test_summary_outputs(tmp_path, standard_run, standard_profiles):
    csv_path = tmp_path / "run.csv"
    json_path = tmp_path / "run.json"
    write_summary_csv(standard_run, csv_path)
    write_blowup_json(standard_run, json_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,maxu,maxut,maxv,U,V,Uprime,Vprime"
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    # the maxima columns are the sampled profiles' maxima, bitwise; the
    # integrals are the radial-weights quadrature of the profiles
    prof = standard_profiles.projections
    w = radial_weights(standard_run.r, standard_run.spec.n)
    assert np.array_equal(table[:, 0], standard_run.times)
    for col, name in enumerate(("u", "ut", "v"), start=1):
        assert np.array_equal(table[:, col], np.abs(prof[name]).max(axis=1))
    for col, name in enumerate(("u", "v", "ut", "vt"), start=4):
        np.testing.assert_allclose(table[:, col], prof[name] @ w, rtol=1e-12, atol=0.0)
    meta = json.loads(json_path.read_text())
    assert meta["blew_up"] is True
    assert meta["t_blowup"] == pytest.approx(standard_run.t_blowup)
    assert meta["cone_spill"] == standard_run.cone_spill


def test_numerical_failure_is_flagged():
    # very unstable configuration: cfl close to 1 with strong growth
    spec = _spec(
        data=InitialDataFamily(k=3, amplitudes=(8, 8, 8, 8)),
        grid=GridSpec(dr=0.02, t_max=4.0, cfl=0.99, blowup_threshold=1e300),
    )
    rec = run(spec)
    # either flagged as numerical failure or survived; never silent NaN
    if rec.failed:
        assert "non-finite" in rec.failure_reason
    else:
        assert np.isfinite(rec.sup_norms).all()


def test_nan_norm_is_never_recorded():
    # max|u_t| and max|v| turn NaN while max|u| is still finite; the
    # failure must be flagged on that step, not after recording it
    spec = _spec(
        data=InitialDataFamily(k=3, amplitudes=(8, 8, 8, 8)),
        grid=GridSpec(dr=0.02, t_max=4.0, cfl=0.99, blowup_threshold=1e300),
    )
    rec = run(spec)
    assert rec.failed
    assert "non-finite" in rec.failure_reason
    assert np.isfinite(rec.sup_norms).all()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_radial_weights_are_the_trapezoid_rule(n):
    r = np.arange(301) * 0.01
    f = np.exp(-r) * np.cos(3.0 * r) + 2.0
    expected = surface_area(n) * np.trapezoid(f * r ** (n - 1), r)
    assert radial_weights(r, n) @ f == pytest.approx(expected, rel=1e-12)


def test_level0_overflow_fails_without_warning():
    # |u_t|^600 overflows in the very first (Taylor) step
    spec = _spec(
        pq=ExponentPair(600.0, 2.0),
        data=InitialDataFamily(k=3, amplitudes=(4, 4, 4, 4)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = run(spec)
    assert rec.failed
    assert "non-finite" in rec.failure_reason
