"""Aggregated property suite behind the ``verify`` CLI verb.

Runs desk-scale versions of the package's verifiable claims: cusp
algebra residuals, kernel bound ratios and the eigenfunction asymptotic
band, closed-form agreement of the iteration sequences, solver
convergence order and light-cone spill order, and the fundamental
identity residuals.  Returns one (name, passed, detail) row per check.
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
    evolve_scalar,
    run,
)
from .special import DampingSpec, KernelConfig, log_phi, verify_kernel_bounds

__all__ = ["run_verification"]


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


def _check_solver():
    R0, n = 2.0, 3

    def bump(r):
        return np.clip(1.0 - (r / R0) ** 2, 0.0, None) ** 5

    def lap_bump(r):
        s = np.clip(1.0 - (r / R0) ** 2, 0.0, None)
        return -(10.0 * n / R0**2) * s**4 + (80.0 * r**2 / R0**4) * s**3

    def forcing(t, r):
        return np.exp(-t) * (bump(r) - lap_bump(r))

    errs = []
    for dr in (0.04, 0.02):
        m = int(np.floor(6.0 / dr + 1e-9)) + 1
        r = np.arange(m) * dr
        ts, W, _Wt, rr = evolve_scalar(
            n, dr, 1.0, DampingSpec.zero(), bump(r), -bump(r), 6.0,
            cfl=0.5, forcing=forcing, sample_stride=10**9,
        )
        errs.append(float(np.abs(W[-1] - np.exp(-ts[-1]) * bump(rr)).max()))
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
