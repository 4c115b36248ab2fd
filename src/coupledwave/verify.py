"""Aggregated property suite behind the ``verify`` CLI verb.

Runs desk-scale versions of the package's verifiable claims: cusp
algebra residuals, kernel bound ratios and the eigenfunction asymptotic
band, closed-form agreement of the iteration sequences, the solver's
convergence order (``run`` at tiny eps against the exact n = 3 free
wave) and light-cone spill order, and the fundamental identity
residuals.  Returns one (name, passed, detail) row per check.
"""

from __future__ import annotations

import numpy as np

from . import configio
from . import functionals as fn
from . import iteration as it
from .exponents import ExponentPair, cusp_exponents, cusp_residuals, kernel_exponents
from .solver import (
    GridSpec,
    InitialDataFamily,
    ProblemSpec,
    radial_grid,
    run,
)
from .special import DampingSpec, KernelConfig, log_phi, verify_kernel_bounds

__all__ = ["run_verification"]

# the support radius and smoothness of the linear checks' bump
FREE_WAVE_R, FREE_WAVE_K = 2.0, 5


def _check_cusp():
    worst = 0.0
    order_ok = True
    for n in range(2, 11):
        cubic, t1, t2 = cusp_residuals(n)
        worst = max(worst, abs(cubic), abs(t1), abs(t2))
        order_ok &= cusp_exponents(n).ordered
    return worst < 1e-10 and order_ok, f"max residual {worst:.2e}, ordering {'ok' if order_ok else 'violated'}"


def _check_kernel_bounds():
    details = []
    ok = True
    for n in (2, 3, 4):
        c = cusp_exponents(n)
        for r in kernel_exponents(n, (c.p_mix, c.q_mix)):
            reports = verify_kernel_bounds(KernelConfig(r=r), n, 25.0, n_t=6)
            ok &= all(rep.passed for rep in reports)
        radii = np.linspace(0.0, 100.0, 201)
        band = np.exp(log_phi(n, radii) + 0.5 * (n - 1) * np.log(3.0 + radii) - radii)
        ok &= band.min() > 0 and band.max() / band.min() < 100.0
        details.append(f"n={n} band ratio {band.max() / band.min():.2f}")
    return ok, "; ".join(details)


def _check_closed_forms():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        p = float(rng.uniform(1.2, 3.0))
        q = float(rng.uniform(1.2, 3.0))
        tv, tu = it.subcritical_sequences(n, (p, q), 60)
        for tab in (tv, tu):
            worst = max(worst, *it.closed_form_deviations(tab))
    return worst < it.CLOSED_FORM_TOL, f"worst closed-form deviation {worst:.2e}"


def free_wave_spec(n, dr, t_max, b1=DampingSpec.zero()) -> ProblemSpec:
    """A run whose u / eps is the free wave of u(0) = f, u_t(0) = -f, with
    f = (1 - r^2/4)_+^5: at eps 1e-7, v = O(eps^2) and u is linear to
    O(eps^3) relative."""
    return ProblemSpec(
        n=n, pq=ExponentPair(2, 2), b1=b1, b2=DampingSpec.zero(), R=FREE_WAVE_R, eps=1e-7,
        data=InitialDataFamily(k=FREE_WAVE_K, amplitudes=(1, -1, 0, 0)),
        grid=GridSpec(dr=dr, t_max=t_max, cfl=0.5),
    )


def free_wave_n3(t, r):
    """The exact n = 3 free wave of ``free_wave_spec``'s data at time t on
    the grid r from r = 0: r u = (F(r + t) + F(r - t)) / 2 + (G(r + t) -
    G(r - t)) / 2, F(s) = s f(s) and G' = s g(s) = -s f(s), f extended
    evenly; on the axis the limit f + t f' - t f."""
    R, k = FREE_WAVE_R, FREE_WAVE_K

    def cap(s, power):
        return np.clip(1.0 - (s / R) ** 2, 0.0, None) ** power

    def G(s):
        return R**2 / (2.0 * (k + 1)) * cap(s, k + 1)

    rho = r[1:]
    u = np.empty_like(r)
    u[1:] = ((rho + t) * cap(rho + t, k) + (rho - t) * cap(rho - t, k) + G(rho + t) - G(rho - t)) / (2.0 * rho)
    u[0] = (1.0 - t) * cap(t, k) - 2.0 * k * t * t / R**2 * cap(t, k - 1)
    return u


def free_wave_errors(drs) -> list:
    """Per dr, the largest |u / eps - exact| over the grid at the last
    sample, near t = 3, of ``run`` of the n = 3 ``free_wave_spec``."""
    errs = []
    for dr in drs:
        spec = free_wave_spec(3, dr, 3.0)
        r = radial_grid(spec)
        rec = run(spec, probes={"u": np.eye(r.size)})
        errs.append(float(np.abs(rec.projections["u"][-1] / spec.eps - free_wave_n3(rec.t_end, r)).max()))
    return errs


def _check_solver():
    errs = free_wave_errors((0.04, 0.02))
    order = float(np.log2(errs[0] / errs[1]))

    # the cone zeroing removes the scheme's truncation-level spill ahead
    # of the front: it must shrink at second order (at least 4x per halving)
    spills = [
        run(ProblemSpec(
            n=3, pq=ExponentPair(2, 2), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
            R=1.0, eps=1.0, data=InitialDataFamily(k=3, amplitudes=(4, 4, 4, 4)),
            grid=GridSpec(dr=dr, t_max=6.0),
        )).cone_spill
        for dr in (0.04, 0.02)
    ]
    ratio = spills[0] / spills[1]
    ok = 1.8 <= order <= 2.2 and ratio >= 4.0
    return ok, f"order {order:.3f}, cone spill {spills[0]:.1e} -> {spills[1]:.1e} (x{ratio:.1f})"


def _check_identity():
    # the problem and quad_nodes of the ``identity`` verb's defaults
    cfg = configio.merge_config(configio.VERB_DEFAULTS["identity"])
    spec = configio.problem_spec_from_config(cfg)
    rec = run(spec, probes=fn.probes(spec, **configio.kernel_params_from_config(cfg)))
    res_u, res_v = fn.check_fundamental_identity(rec)
    ok = res_u < fn.IDENTITY_TOL and res_v < fn.IDENTITY_TOL
    return ok, f"residuals {res_u:.2e}, {res_v:.2e}"


def _check_thresholds():
    con = it.IterationConstants.from_frame(3, (2.0, 2.0))
    tA = it.threshold_time(con, 0.4)
    tB = it.threshold_time(con, 0.2)
    ratio_err = abs(tB.T / tA.T - 2.0**6) / 2.0**6
    drv = it.divergence_driver("subcritical-v", con, 0.4, log_t=tA.log_T)
    ok = ratio_err < 1e-12 and abs(drv - 1.0) < 1e-9
    return ok, f"halving error {ratio_err:.1e}, driver-at-threshold {drv:.12f}"


def run_verification() -> list:
    """Run the suite; returns [(name, passed, detail), ...]."""
    checks = [
        ("cusp-algebra", _check_cusp),
        ("kernel-bounds", _check_kernel_bounds),
        ("closed-forms", _check_closed_forms),
        ("solver-convergence", _check_solver),
        ("fundamental-identity", _check_identity),
        ("threshold-consistency", _check_thresholds),
    ]
    results = []
    for name, fob in checks:
        try:
            passed, detail = fob()
        except Exception as exc:  # surface as failure, do not abort the suite
            passed, detail = False, f"error: {exc}"
        results.append((name, bool(passed), detail))
    return results
