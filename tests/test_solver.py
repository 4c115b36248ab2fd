import dataclasses
import json
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from coupledwave import solver
from coupledwave.exponents import ExponentPair
from coupledwave.solver import (
    GridSpec,
    InitialDataFamily,
    ProblemSpec,
    detect_blowup,
    integral_probes,
    radial_grid,
    radial_weights,
    run,
    write_blowup_json,
    write_summary_csv,
)
from coupledwave.special import DampingSpec, surface_area
from coupledwave.verify import free_wave_spec


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
    with pytest.raises(ValueError, match="dr must"):
        GridSpec(dr=float("nan"), t_max=1.0)
    with pytest.raises(ValueError, match="t_max"):
        GridSpec(dr=0.02, t_max=float("inf"))
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
    # data that violate the blow-up hypotheses make a spec (negative
    # controls); a config document with them is refused (test_cli)
    assert not _spec(data=InitialDataFamily(amplitudes=(1, -1, 1, 1))).data.hypotheses_ok()
    spec = _spec()
    r = radial_grid(spec)
    # the grid holds the light cone at t_max and ten more points
    assert r[0] == 0.0
    assert r.size == round((spec.R + spec.grid.t_max) / spec.grid.dr) + 11


# u / eps of verify.free_wave_spec at n = 2 and t = 3 at the radii HANKEL_R,
# from the Hankel integral
#     u = int_0^inf F(kap) (cos kap t - sin kap t / kap) J0(kap r) kap dkap,
#     F(kap) = R^2 2^k k! J_{k+1}(kap R) / (kap R)^(k+1)  (Sonine),
# R = 2, k = 5, by mpmath.quad at dps 25 over 200 Gauss-Legendre panels on
# [0, 800] (about a minute for the five; the integrand decays like
# kap^-5.5)
HANKEL_R = (0.0, 0.5, 1.0, 2.0, 3.0)
HANKEL_U = (-0.15613650568314831, -0.16047979768605350, -0.17647698060958364,
            -0.28865543326374779, -0.029570654936415027)


def poisson_axis(t):
    """The wave of HANKEL_U on the axis for t > R by Poisson's formula,
    u(t, 0) = d/dt int_0^R f s / sqrt(t^2 - s^2) ds + int_0^R g s /
    sqrt(t^2 - s^2) ds with g = -f, by mpmath."""
    R, k = 2, 5

    def f(s):
        return (1 - (s / R) ** 2) ** k

    dt_part = mpmath.quad(lambda s: -f(s) * s * t / (t * t - s * s) ** 1.5, [0, R])
    g_part = mpmath.quad(lambda s: -f(s) * s / mpmath.sqrt(t * t - s * s), [0, R])
    return float(dt_part + g_part)


def test_hankel_axis_pin_is_poissons_formula():
    # an oracle independent of the Hankel integral
    assert poisson_axis(3.0) == pytest.approx(HANKEL_U[0], abs=1e-12)


def test_n2_free_wave_converges_to_the_hankel_values():
    # avoid t = R = 2, where the inward wave focuses on the axis; every
    # dr puts grid points on HANKEL_R
    errs = []
    for dr in (0.05, 0.025, 0.0125, 0.00625):
        spec = free_wave_spec(2, dr, 3.1)
        r = radial_grid(spec)
        points = np.rint(np.array(HANKEL_R) / dr).astype(int)
        assert np.allclose(r[points], HANKEL_R, rtol=0.0, atol=1e-12)
        rec = run(spec, probes={"u": np.eye(r.size)[points]})
        i = int(np.abs(rec.times - 3.0).argmin())
        assert rec.times[i] == pytest.approx(3.0, abs=1e-9)
        errs.append(float(np.abs(rec.projections["u"][i] / spec.eps - HANKEL_U).max()))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(3)]
    for order in orders:
        assert 1.8 <= order <= 2.2, orders
    # the error constant too: 7.6e-6 at the finest dr; an axis stencil
    # 2 (w1 - w0) / dr^2 in place of 2 n (w1 - w0) / dr^2 keeps order 2
    # but gives 1.8e-5
    assert errs[-1] < 1e-5, errs


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
    tb = detect_blowup(times, norms, 1e3)
    assert 6.0 < tb < 7.0
    assert tb == pytest.approx(np.log(1e3), abs=1e-9)  # exact for log-linear data
    assert detect_blowup(times, norms, 1e9) is None
    with pytest.raises(ValueError):
        detect_blowup(times, norms, 0.5)  # threshold below initial norms


def test_detect_blowup_multicolumn():
    times = np.array([0.0, 1.0, 2.0])
    norms = np.array([[1.0, 1.0, 1.0], [1.0, 5.0, 1.0], [1.0, 50.0, 1.0]])
    tb = detect_blowup(times, norms, 10.0)
    assert 1.0 < tb < 2.0


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


# the run sidecar's keys, pinned
SIDECAR_KEYS = {"blew_up", "t_blowup", "failed", "failure_reason", "t_end", "dt_initial",
                "dt_final", "steps", "halvings", "window_max", "cone_spill", "crossed", "n",
                "R", "eps"}


def test_run_sidecar_keys_are_pinned(tmp_path, standard_run):
    quiet = run(_spec(grid=GridSpec(dr=0.02, t_max=0.5)))
    for rec in (standard_run, quiet):
        path = tmp_path / "run.json"
        write_blowup_json(rec, path)
        meta = json.loads(path.read_text())
        assert set(meta) == SIDECAR_KEYS
        assert meta["blew_up"] is (rec.t_blowup is not None) is (meta["crossed"] is not None)
        assert meta["failed"] is False and meta["failure_reason"] == ""
        assert meta["t_end"] == rec.times[-1]
        assert (meta["n"], meta["R"], meta["eps"]) == (rec.spec.n, rec.spec.R, rec.spec.eps)
    assert not quiet.blew_up


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


def _refine_chain_spec():
    """A run that halves dt 9 times on its way to the threshold near t = 28
    at a refine factor of 2."""
    return ProblemSpec(
        n=2, pq=ExponentPair(2.0, 2.0), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
        R=1.0, eps=0.5, data=InitialDataFamily(), grid=GridSpec(dr=0.02, t_max=100.0),
    )


@pytest.mark.parametrize("case", ["nine-halvings", "power-decay"])
def test_cone_index_is_searchsorted_at_every_level(case, monkeypatch):
    # advance moves the cone index on by comparisons from the searchsorted
    # of its batch's start; at every level, halved batches' included, it
    # must be the first grid index past the next level's cone
    if case == "nine-halvings":
        monkeypatch.setattr(solver, "GROWTH_REFINE_FACTOR", 2.0)
        spec = _refine_chain_spec()
    else:
        spec = ProblemSpec(
            n=2, pq=ExponentPair(2.0, 2.0), b1=DampingSpec.power_decay(1.0, 2.0),
            b2=DampingSpec.power_decay(0.5, 1.5), R=1.0, eps=0.5,
            data=InitialDataFamily(amplitudes=(4.0,) * 4), grid=GridSpec(dr=0.04, t_max=60.0),
        )
    r = radial_grid(spec)
    levels = []
    real = solver._Batch.next_level

    def spy(batch, k):
        levels.append((batch.dt, k, int(r.searchsorted(batch.t + batch.dt + spec.R, side="right"))))
        real(batch, k)

    monkeypatch.setattr(solver._Batch, "next_level", spy)
    rec = run(spec)
    assert rec.blew_up and len(rec.halvings) == (9 if case == "nine-halvings" else 1)
    # a level per sup row after t = 0, and one per Taylor start
    assert len(levels) == rec.steps + 1 + len(rec.halvings)
    assert len({dt for dt, _, _ in levels}) == len(rec.halvings) + 1
    assert [k for _, k, _ in levels] == [want for _, _, want in levels]


def test_sup_history_grows_with_the_steps_taken(monkeypatch):
    # sup-norm buffers sized for the horizon left at each new dt took
    # 266 MB, buffers that double when the steps fill them take a few MB
    monkeypatch.setattr(solver, "GROWTH_REFINE_FACTOR", 2.0)
    spec = _refine_chain_spec()
    tracemalloc.start()
    try:
        rec = run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.blew_up and len(rec.halvings) == 9
    assert rec.sup_norms.shape == (rec.steps + 1, 3)
    assert peak < 10e6


def test_a_halved_batch_runs_without_its_parents_buffers(monkeypatch):
    # each halving empties the batch it leaves, which then holds no field
    # buffers and no sup-norm history while the halved batch advances to
    # its end
    monkeypatch.setattr(solver, "GROWTH_REFINE_FACTOR", 2.0)
    advancing, held = [], []
    real = solver._Batch.advance

    def spy(batch, records):
        if advancing:
            parent = advancing[-1]
            buffers = [getattr(parent, name) for name in solver._BUFFERS]
            buffers += [parent.spill, parent.mag, parent.sup, parent.sup_times]
            held.append((len(parent.rows), sum(buf.nbytes for buf in buffers)))
        advancing.append(batch)
        try:
            real(batch, records)
        finally:
            advancing.pop()

    monkeypatch.setattr(solver._Batch, "advance", spy)
    rec = run(_refine_chain_spec())
    assert rec.blew_up and len(rec.halvings) == 9
    assert held == [(0, 0)] * 9
