"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not calibrated elsewhere:
  1. cusp algebra residuals < 1e-10, exponent ordering, n = 2..10
  2. closed-form vs brute recursion 1e-12 relative, j <= 60, >= 80 tuples
  3. kernel bound ratios positive/finite and stable (< 20%) under
     t-range doubling, for (n, r) in {2,3,4} x {critical r1, r2}
  4. manufactured convergence order in [1.8, 2.2], energy behaviour,
     light-cone spill shrinking at least 4x per dr halving (order >= 2)
  5. fundamental identity residuals < 2% on a fine undamped run
  6. functional floors and nonlinearity envelopes on damped and
     undamped runs; sign-flipped u1 fails the U2 floor
  7. six-point epsilon sweep: monotone T, negative slope with
     |slope| <= 6 * 1.4, grid-refinement change < 5% per row
  8. divergence drivers equal 1 (1e-9) at threshold times; halving law
     ratio 2^(1/max theta) exact to 1e-12
"""

import math

import numpy as np
import pytest

from coupledwave import functionals as fn
from coupledwave.exponents import (
    ExponentPair,
    Region,
    cusp_exponents,
    cusp_residuals,
    theta1,
    theta1_critical_q,
    theta2,
    theta2_critical_p,
)
from coupledwave.iteration import (
    IterationConstants,
    critical_sequences,
    divergence_driver,
    geometric_sums,
    series_S,
    subcritical_sequences,
    threshold_time,
)
from coupledwave.lifespan import SweepConfig, fit_scaling, sweep
from coupledwave.solver import (
    GridSpec,
    InitialDataFamily,
    ProblemSpec,
    evolve_scalar,
    radial_energy,
    run,
)
from coupledwave.special import (
    BoundId,
    DampingSpec,
    KernelConfig,
    bracket,
    log_phi,
    make_kernel_grid,
    verify_kernel_bounds,
)


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_cusp_algebra():
    worst = 0.0
    for n in range(2, 11):
        cubic, t1, t2 = cusp_residuals(n)
        assert abs(t1) < 1e-10, (n, t1)
        assert abs(t2) < 1e-10, (n, t2)
        assert abs(cubic) < 1e-10, (n, cubic)
        c = cusp_exponents(n)
        assert c.q_mix < c.p_glassey < c.p_strauss < c.p_mix, n
        worst = max(worst, abs(cubic), abs(t1), abs(t2))
    _report("criterion-1 cusp-algebra",
            f"n=2..10, max residual {worst:.2e}, ordering holds")


def test_criterion_2_closed_form_equivalence():
    def dev(a, b):
        return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)))

    worst = 0.0
    tuples = 0
    rng = np.random.default_rng(2024)

    def audit(table):
        nonlocal worst
        worst = max(worst, dev(table.t_power, table.t_power_closed))
        worst = max(worst, dev(table.weight_power, table.weight_power_closed))
        worst = max(worst, dev(table.coeff_log, table.coeff_log_closed))
        if table.ell is not None:
            # slicing family against its own recursion ell_{j+1} = 1 + ell_j/2
            ell_rec = np.empty_like(table.ell)
            ell_rec[0] = 1.0
            for j in range(len(ell_rec) - 1):
                ell_rec[j + 1] = 1.0 + 0.5 * ell_rec[j]
            worst = max(worst, dev(ell_rec, table.ell))

    def audit_sums(p, q):
        nonlocal worst
        x = p * q
        s1, s2 = geometric_sums(x, 7)  # raises beyond 1e-12 disagreement
        assert s1 > 0 and s2 > 0
        partial, limit = series_S(x, j_max=200)
        assert limit == pytest.approx(x / (x - 1.0) ** 2, rel=1e-13)
        worst = max(worst, abs(partial[-1] - limit) / limit)

    # subcritical families over random exponents
    for _ in range(30):
        n = int(rng.integers(2, 6))
        p = float(rng.uniform(1.2, 3.5))
        q = float(rng.uniform(1.2, 3.5))
        tv, tu = subcritical_sequences(n, (p, q), 60)
        audit(tv)
        audit(tu)
        audit_sums(p, q)
        tuples += 1
    # theta1- and theta2-critical families along their curves
    for n in (2, 3, 4, 5):
        lo = max(1.05, 2.0 / (n - 1) + 0.05)
        hi = 1.0 + 4.0 / (n - 1) - 0.1
        for p in np.linspace(lo, hi, 5):
            q = theta1_critical_q(n, float(p))
            audit(critical_sequences("theta1", n, (float(p), q), 60))
            audit_sums(float(p), q)
            tuples += 1
        for q in np.linspace(1.05, 1.0 + 1.8 / n, 5):
            p = theta2_critical_p(n, float(q))
            audit(critical_sequences("theta2", n, (p, float(q)), 60))
            audit_sums(p, float(q))
            tuples += 1
    # double-critical family at every cusp
    for n in range(2, 14):
        c = cusp_exponents(n)
        audit(critical_sequences("double", n, (c.p_mix, c.q_mix), 60))
        audit_sums(c.p_mix, c.q_mix)
        tuples += 1
    assert tuples >= 80
    assert worst < 1e-12
    _report("criterion-2 closed-forms",
            f"{tuples} tuples, j<=60, worst deviation {worst:.2e}")


def test_criterion_3_kernel_bounds():
    lower_ids = {BoundId.XI0, BoundId.ETA0, BoundId.XIS, BoundId.ETAS}
    details = []
    for n in (2, 3, 4):
        c = cusp_exponents(n)
        for r in (0.5 * (n - 1) - 1.0 / c.p_mix, 0.5 * (n - 1) - 1.0 / c.q_mix):
            cfg = KernelConfig(r=r, R=1.0)
            half = {
                rep.bound_id: rep
                for rep in verify_kernel_bounds(cfg, n, make_kernel_grid(25.0, 1.0))
            }
            full = {
                rep.bound_id: rep
                for rep in verify_kernel_bounds(cfg, n, make_kernel_grid(50.0, 1.0))
            }
            for bid in lower_ids:
                assert full[bid].min_ratio > 0, (n, r, bid)
                a, b = half[bid].min_ratio, full[bid].min_ratio
                assert abs(a - b) / max(a, b) < 0.20, (n, r, bid, a, b)
            assert math.isfinite(full[BoundId.ETA_DIAG].max_ratio)
            a = half[BoundId.ETA_DIAG].max_ratio
            b = full[BoundId.ETA_DIAG].max_ratio
            assert abs(a - b) / max(a, b) < 0.20, (n, r, a, b)
        radii = np.linspace(0.0, 100.0, 401)
        band = np.exp(log_phi(n, radii) + 0.5 * (n - 1) * np.log(bracket(radii)) - radii)
        assert band.min() > 0
        assert band.max() / band.min() < 100.0
        details.append(f"n={n} band {band.max() / band.min():.1f}")
    _report("criterion-3 kernel-bounds",
            "ratios positive/finite, stable under t-range doubling; " + "; ".join(details))


def test_criterion_4_solver_convergence():
    R0, n = 2.0, 3

    def bump(r):
        return np.clip(1.0 - (r / R0) ** 2, 0.0, None) ** 5

    def lap_bump(r):
        s = np.clip(1.0 - (r / R0) ** 2, 0.0, None)
        return -(10.0 * n / R0**2) * s**4 + (80.0 * r**2 / R0**4) * s**3

    def forcing(t, r):
        return np.exp(-t) * (bump(r) - lap_bump(r))

    errs = []
    for dr in (0.04, 0.02, 0.01):
        m = int(np.floor(6.0 / dr + 1e-9)) + 1
        r = np.arange(m) * dr
        ts, W, _wt, rr = evolve_scalar(
            n, dr, 1.0, DampingSpec.zero(), bump(r), -bump(r), 6.0,
            cfl=0.5, forcing=forcing, sample_stride=10**9,
        )
        errs.append(float(np.abs(W[-1] - np.exp(-ts[-1]) * bump(rr)).max()))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2, orders

    # linear energy: conserved to O(dr^2) undamped, non-increasing damped
    drifts = []
    for dr in (0.02, 0.01):
        m = int(np.floor(10.0 / dr + 1e-9)) + 1
        r = np.arange(m) * dr
        w0 = bump(r)
        ts, W, Wt, rr = evolve_scalar(
            n, dr, 6.0, DampingSpec.zero(), w0, w0.copy(), 10.0,
            cfl=0.45, sample_stride=40,
        )
        E = np.array([radial_energy(W[i], Wt[i], rr, n) for i in range(len(ts))])
        drifts.append(float(np.abs(E - E[0]).max() / E[0]))
    assert drifts[0] < 5e-3
    assert drifts[0] / drifts[1] > 2.5  # about fourfold per dr halving

    m = int(np.floor(10.0 / 0.02 + 1e-9)) + 1
    r = np.arange(m) * 0.02
    w0 = bump(r)
    ts, W, Wt, rr = evolve_scalar(
        n, 0.02, 6.0, DampingSpec.power_decay(1.0, 2.0), w0, w0.copy(), 10.0,
        cfl=0.45, sample_stride=40,
    )
    E = np.array([radial_energy(W[i], Wt[i], rr, n) for i in range(len(ts))])
    assert E[-1] < E[0]
    assert np.all(np.diff(E) <= 1e-4 * E[0])

    # the truncation-level spill the cone zeroing removes ahead of the front
    spills = [
        run(ProblemSpec(
            n=3, pq=ExponentPair(2, 2), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
            R=1.0, eps=1.0, data=InitialDataFamily(k=3, amplitudes=(4, 4, 4, 4)),
            grid=GridSpec(dr=dr, t_max=6.0),
        )).cone_spill
        for dr in (0.04, 0.02)
    ]
    assert spills[0] / spills[1] >= 4.0, spills
    _report("criterion-4 solver",
            f"orders {orders[0]:.3f}/{orders[1]:.3f}, drift {drifts[0]:.1e} "
            f"(x{drifts[0] / drifts[1]:.1f} per refinement), cone spill "
            f"{spills[0]:.1e} -> {spills[1]:.1e} (x{spills[0] / spills[1]:.1f})")


def test_criterion_5_fundamental_identities(identity_run):
    res_u, res_v = fn.check_fundamental_identity(identity_run)
    assert res_u < 0.02
    assert res_v < 0.02
    _report("criterion-5 identities",
            f"max relative residuals {res_u:.2e} (curlyU), {res_v:.2e} (curlyV)")


def test_criterion_6_functional_floors(
    standard_run, standard_spec, damped_run, damped_spec, negative_run, negative_spec
):
    for rec, spec, label in (
        (standard_run, standard_spec, "undamped"),
        (damped_run, damped_spec, "damped"),
    ):
        series = fn.extract(rec)
        ints = fn.data_integrals(spec)
        for check in fn.check_floor_bounds(series, ints, spec.eps):
            assert check.passed, (label, check)
        for check in fn.check_nonlinearity_bounds(rec):
            assert check.passed, (label, check)
    neg_series = fn.extract(negative_run)
    neg_ints = fn.data_integrals(negative_spec)
    neg = {c.bound_id.value: c for c in fn.check_floor_bounds(neg_series, neg_ints, 1.0)}
    assert not neg["U2Floor"].passed
    _report("criterion-6 floors",
            "U1/V1/U2 floors and both envelopes hold (damped and undamped); "
            "sign-flipped u1 fails U2Floor")


def test_criterion_7_lifespan_sweep():
    base = ProblemSpec(
        n=3, pq=ExponentPair(2.0, 2.0), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
        R=1.0, eps=1.0, data=InitialDataFamily(k=3, amplitudes=(4.0, 4.0, 4.0, 4.0)),
        grid=GridSpec(dr=0.02, t_max=16.0),
    )
    assert max(theta1(3, base.pq), theta2(3, base.pq)) == pytest.approx(1.0 / 6.0)
    cfg = SweepConfig(base=base, eps_values=(1.6, 1.4, 1.2, 1.0, 0.9, 0.8), repeats=2)
    table = sweep(cfg)
    assert all(r.blew_up for r in table.rows)
    stride = 2000.0 ** -1 * base.grid.t_max  # one output stride
    T = [r.T_numeric for r in table.rows]
    assert all(b >= a - stride for a, b in zip(T, T[1:]))
    for r in table.rows:
        assert r.grid_change < 0.05, r
    fit = fit_scaling(table, -6.0)
    assert fit.slope < 0
    assert abs(fit.slope) <= 6.0 * 1.4
    assert fit.consistent
    _report("criterion-7 lifespan-sweep",
            f"6 rows blown up, T monotone, slope {fit.slope:.2f} "
            f"(|slope| <= 8.4), max grid change "
            f"{max(r.grid_change for r in table.rows):.2%}")


def test_criterion_8_threshold_consistency():
    # halving law, exact to 1e-12
    con = IterationConstants.from_frame(3, (2.0, 2.0))
    tA = threshold_time(3, (2.0, 2.0), 0.4, con, Region.SUBCRITICAL)
    tB = threshold_time(3, (2.0, 2.0), 0.2, con, Region.SUBCRITICAL)
    assert tB.T / tA.T == pytest.approx(2.0 ** 6, rel=1e-12)

    worst = 0.0
    q1 = theta1_critical_q(3, 2.0)
    p2 = theta2_critical_p(3, 1.2)
    c = cusp_exponents(3)
    sampled = [
        ("subcritical-v", 3, (2.0, 2.0), Region.SUBCRITICAL,
         dict(C=0.8, K=1.3, Ctilde=0.7, Ktilde=1.2, m1_0=0.8, m2_0=0.9)),
        ("subcritical-uprime", 2, (3.0, 1.1), Region.SUBCRITICAL, {}),
        ("critical-theta1", 3, (2.0, q1), Region.CRITICAL_THETA1, {}),
        ("critical-theta2", 3, (p2, 1.2), Region.CRITICAL_THETA2, {}),
        ("critical-double", 3, (c.p_mix, c.q_mix), Region.DOUBLE_CRITICAL, {}),
    ]
    for family, n, pq, region, kw in sampled:
        consts = IterationConstants.from_frame(n, pq, **kw)
        th = threshold_time(n, pq, 0.6, consts, region)
        drv = divergence_driver(family, n, pq, 0.6, consts, log_t=th.log_T)
        worst = max(worst, abs(drv - 1.0))
        assert abs(drv - 1.0) < 1e-9, (family, drv)
    _report("criterion-8 thresholds",
            f"driver-at-threshold deviation {worst:.1e} across all regions; "
            "halving ratio 2^6 exact")
