"""The registry of the package's pinned claims, behind the ``verify`` verb.

``CLAIMS`` lists each claim once, as ``(name, measure)``, in the order
of the acceptance criteria 1-8 of ``tests/test_acceptance.py``: the cusp
algebra, the iteration sequences' closed forms, the kernel bounds, the
solver's convergence (``run`` at tiny eps against the exact n = 3 free
wave, its energy, and the light-cone spill), the fundamental identities
(``fundamental_identity``, which the ``identity`` verb also judges by)
at that verb's defaults, the functional floors and envelopes,
the subcritical lifespan sweep and the thresholds' consistency.

Each ``measure()`` takes no argument and returns ``(passed, measured,
detail)``: whether the claim's pass rule holds, a dict of the numbers
that rule compared, and a one-line summary.  ``run_verification``
measures every claim, for the ``verify`` verb and for the acceptance
tests, which assert their own literal tolerances against ``measured``.
A new claim is a measure here, appended to ``CLAIMS``, and an
acceptance test that pins its numbers.  Nothing is built at import.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import configio
from . import functionals as fn
from . import iteration as it
from .exponents import (
    ExponentPair,
    cusp_exponents,
    cusp_residuals,
    kernel_exponents,
    theta1_critical_q,
    theta2_critical_p,
)
from .lifespan import SweepConfig, sweep
from .solver import (
    GridSpec,
    InitialDataFamily,
    ProblemSpec,
    radial_grid,
    radial_weights,
    run,
)
from .special import BoundId, DampingSpec, KernelConfig, bracket, log_phi, verify_kernel_bounds

__all__ = ["CLAIMS", "fundamental_identity", "run_verification"]

# the support radius and smoothness of the linear checks' bump
FREE_WAVE_R, FREE_WAVE_K = 2.0, 5


def _cusp_algebra():
    worst = float(np.max(np.abs([cusp_residuals(n) for n in range(2, 11)])))
    ordered = all(cusp_exponents(n).ordered for n in range(2, 11))
    measured = {"max_residual": worst, "ordered": ordered}
    return (worst < 1e-10 and ordered, measured,
            f"n=2..10, max residual {worst:.2e}, ordering {'holds' if ordered else 'violated'}")


def _sequence_tables():
    """The closed-form claim's tables, j <= 60, one tuple per exponent
    point: 30 random subcritical points (both tables), five points on
    each critical curve at n = 2..5, and the cusp at n = 2..13."""
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        p = float(rng.uniform(1.2, 3.5))
        q = float(rng.uniform(1.2, 3.5))
        yield it.subcritical_sequences(n, (p, q), 60)
    for n in (2, 3, 4, 5):
        lo = max(1.05, 2.0 / (n - 1) + 0.05)
        for p in np.linspace(lo, 1.0 + 4.0 / (n - 1) - 0.1, 5):
            yield (it.critical_sequences("theta1", n, (float(p), theta1_critical_q(n, float(p))), 60),)
        for q in np.linspace(1.05, 1.0 + 1.8 / n, 5):
            yield (it.critical_sequences("theta2", n, (theta2_critical_p(n, float(q)), float(q)), 60),)
    for n in range(2, 14):
        c = cusp_exponents(n)
        yield (it.critical_sequences("double", n, (c.p_mix, c.q_mix), 60),)


def _closed_forms():
    devs, tuples = [], 0
    for tables in _sequence_tables():
        tuples += 1
        for table in tables:
            devs.extend(it.closed_form_deviations(table))
            if table.ell is not None:
                # the slicing column against its recursion ell_{j+1} = 1 + ell_j / 2
                ell = np.ones_like(table.ell)
                for j in range(ell.size - 1):
                    ell[j + 1] = 1.0 + 0.5 * ell[j]
                devs.append(float(np.max(np.abs(ell - table.ell) / np.maximum(np.abs(table.ell), 1.0))))
    worst = float(np.max(devs))
    measured = {"tuples": tuples, "worst_deviation": worst}
    return (tuples >= 80 and worst < it.CLOSED_FORM_TOL, measured,
            f"{tuples} tuples, j<=60, worst closed-form deviation {worst:.2e}")


def _kernel_bounds():
    lower, upper, drift, bands = [], [], [], []
    for n in (2, 3, 4):
        c = cusp_exponents(n)
        for r in kernel_exponents(n, (c.p_mix, c.q_mix)):
            half, full = (verify_kernel_bounds(KernelConfig(r=r), n, t_max) for t_max in (25.0, 50.0))
            for a, b in zip(half, full):
                # a lower bound's constant is its minimum ratio, the
                # diagonal upper bound's its maximum; each must be stable
                # under doubling the t-range
                diag = a.bound_id is BoundId.ETA_DIAG
                pair = (a.max_ratio, b.max_ratio) if diag else (a.min_ratio, b.min_ratio)
                (upper if diag else lower).extend(pair)
                drift.append(abs(pair[0] - pair[1]) / max(pair))
        # the eigenfunction's asymptotic band phi ~ e^r <r>^(-(n-1)/2)
        radii = np.linspace(0.0, 100.0, 401)
        bands.append(np.exp(log_phi(n, radii) + 0.5 * (n - 1) * np.log(bracket(radii)) - radii))
    measured = {
        "min_lower_ratio": float(np.min(lower)), "max_diag_ratio": float(np.max(upper)),
        "max_drift": float(np.max(drift)), "band_min": float(np.min(bands)),
        "band_ratio": float(np.max([b.max() / b.min() for b in bands])),
    }
    passed = (measured["min_lower_ratio"] > 0 and np.isfinite(measured["max_diag_ratio"])
              and measured["max_drift"] < 0.20 and measured["band_min"] > 0
              and measured["band_ratio"] < 100.0)
    return (passed, measured,
            f"t-ranges 25/50: min lower ratio {measured['min_lower_ratio']:.2e}, "
            f"drift {measured['max_drift']:.1%}; band ratio {measured['band_ratio']:.2f}")


def free_wave_spec(n, dr, t_max) -> ProblemSpec:
    """A run whose u / eps is the free wave of u(0) = f, u_t(0) = -f, with
    f = (1 - r^2/4)_+^5: at eps 1e-7, v = O(eps^2) and u is linear to
    O(eps^3) relative."""
    return ProblemSpec(
        n=n, pq=ExponentPair(2, 2), b1=DampingSpec.zero(), b2=DampingSpec.zero(), R=FREE_WAVE_R,
        eps=1e-7, data=InitialDataFamily(k=FREE_WAVE_K, amplitudes=(1, -1, 0, 0)),
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


def wave_energies(rec):
    """Wave energy 0.5 |S^{n-1}| int (u_t^2 + u_r^2) r^(n-1) dr of u at
    each sample of a run whose probes on u and ut are identity matrices."""
    weights = radial_weights(rec.r, rec.spec.n)
    Wr = np.gradient(rec.projections["u"], rec.r[1] - rec.r[0], axis=1)
    return np.array([0.5 * float(weights @ (wt**2 + wr**2)) for wt, wr in zip(rec.projections["ut"], Wr)])


def _solver_convergence():
    errs = free_wave_errors((0.04, 0.02, 0.01))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]

    # the linear energy: conserved to O(dr^2) undamped, and damped it
    # falls by the energy the damping removes, int_0^t b int u_t^2
    undamped = [free_wave_spec(3, dr, 6.0) for dr in (0.02, 0.01)]
    b1 = DampingSpec.power_decay(1.0, 2.0)
    drifts = []  # the loop ends on the damped run, whose rec and E follow
    for spec in (*undamped, replace(undamped[0], b1=b1)):
        rec = run(spec, probes=dict.fromkeys(("u", "ut"), np.eye(radial_grid(spec).size)))
        E = wave_energies(rec)
        drifts.append(float(np.abs(E - E[0]).max() / E[0]))
    loss = b1.b(rec.times) * (rec.projections["ut"] ** 2 @ radial_weights(rec.r, 3))
    lost = np.concatenate(([0.0], np.cumsum(0.5 * (loss[1:] + loss[:-1]) * np.diff(rec.times))))

    # the truncation-level spill the cone zeroing removes ahead of the front
    standard = floor_specs()["standard"]
    spills = [run(replace(standard, grid=GridSpec(dr=dr, t_max=6.0))).cone_spill for dr in (0.04, 0.02)]
    measured = {
        "orders": orders, "drift": drifts[0], "drift_ratio": drifts[0] / drifts[1],
        # the damped energy's end value and largest rise, over E(0); the
        # centered energy oscillates at O(dr^2)
        "damped_end": float(E[-1] / E[0]), "damped_rise": float(np.diff(E).max() / E[0]),
        "damped_balance": float(np.abs(E + lost - E[0]).max() / E[0]),
        "spill_ratio": spills[0] / spills[1],
    }
    passed = (all(1.8 <= order <= 2.2 for order in orders) and measured["drift"] < 5e-3
              and measured["drift_ratio"] > 2.5 and measured["damped_end"] < 1.0
              and measured["damped_rise"] <= 1e-4 and measured["damped_balance"] < 5e-3
              and measured["spill_ratio"] >= 4.0)
    return (passed, measured,
            f"orders {orders[0]:.3f}/{orders[1]:.3f}, drift {drifts[0]:.1e} "
            f"(x{measured['drift_ratio']:.1f} per refinement), damped balance "
            f"{measured['damped_balance']:.1e}, cone spill {spills[0]:.1e} -> {spills[1]:.1e} "
            f"(x{measured['spill_ratio']:.1f})")


def fundamental_identity(spec, kernel_params) -> tuple:
    """The fundamental-identity claim on the undamped ``spec``, solved
    with ``functionals.probes(spec, **kernel_params)``: (passed,
    measured, detail) as a measure returns them.  A damped spec is
    refused before the run; the ``identity`` verb prints this."""
    fn.require_zero_damping(spec)
    res_u, res_v = fn.check_fundamental_identity(run(spec, probes=fn.probes(spec, **kernel_params)))
    measured = {"residual_curlyU": res_u, "residual_curlyV": res_v}
    passed = res_u < fn.IDENTITY_TOL and res_v < fn.IDENTITY_TOL
    return passed, measured, f"residuals {res_u:.2e}, {res_v:.2e}"


def _fundamental_identity():
    # the problem and quad_nodes of the ``identity`` verb's defaults
    cfg = configio.merge_config(configio.VERB_DEFAULTS["identity"])
    return fundamental_identity(configio.problem_spec_from_config(cfg),
                                configio.kernel_params_from_config(cfg))


def floor_specs() -> dict:
    """The functional-floors claim's problems, by name.  ``standard``: a
    strongly subcritical undamped blow-up (n = 3, p = q = 2, data (4, 4,
    4, 4), dr 0.02 to t 8); ``damped``: the same with power_decay(0.5, 2)
    on both equations, to t 10; ``negative``: u1 sign-flipped, to t 5,
    which violates the blow-up hypotheses on purpose (a ProblemSpec
    accepts such data; a config document with them is refused)."""
    standard = ProblemSpec(
        n=3, pq=ExponentPair(2.0, 2.0), b1=DampingSpec.zero(), b2=DampingSpec.zero(), R=1.0,
        eps=1.0, data=InitialDataFamily(k=3, amplitudes=(4.0, 4.0, 4.0, 4.0)),
        grid=GridSpec(dr=0.02, t_max=8.0),
    )
    decay = DampingSpec.power_decay(0.5, 2.0)
    return {
        "standard": standard,
        "damped": replace(standard, b1=decay, b2=decay, grid=GridSpec(dr=0.02, t_max=10.0)),
        "negative": replace(standard, data=InitialDataFamily(k=3, amplitudes=(4.0, -4.0, 4.0, 4.0)),
                            grid=GridSpec(dr=0.02, t_max=5.0)),
    }


def floor_records() -> dict:
    """The records the functional-floors claim reads, by name: ``run`` of
    each of ``floor_specs`` with ``functionals.probes``."""
    return {name: run(spec, probes=fn.probes(spec)) for name, spec in floor_specs().items()}


def _functional_floors():
    records = floor_records()
    checks = [check for name in ("standard", "damped")
              for bounds in (fn.check_floor_bounds, fn.check_nonlinearity_bounds)
              for check in bounds(records[name])]
    negative = {c.bound_id: c for c in fn.check_floor_bounds(records["negative"])}[fn.CheckId.U2_FLOOR]
    held = sum(check.passed for check in checks)
    measured = {"checks": len(checks), "held": held, "negative_u2_held": negative.passed}
    return (held == len(checks) and not negative.passed, measured,
            f"{held} of {len(checks)} floors and envelopes hold (undamped and damped); "
            f"sign-flipped u1 {'passes' if negative.passed else 'fails'} U2Floor")


def _lifespan_sweep():
    base = replace(floor_specs()["standard"], grid=GridSpec(dr=0.02, t_max=16.0))
    table = sweep(SweepConfig(base=base, eps_values=(1.6, 1.4, 1.2, 1.0, 0.9, 0.8), repeats=2))
    T = [row.T_numeric for row in table.rows]
    fit = table.fit
    if fit is None:
        raise ValueError("fewer than two rows blew up, so there is no fit")
    measured = {
        "rows": len(T), "blown_up": sum(row.blew_up for row in table.rows),
        # T may fall by at most one output stride, t_max / 2000, as eps falls
        "max_decrease": float(np.max(np.subtract(T[:-1], T[1:]))), "stride": base.grid.t_max / 2000.0,
        "max_grid_change": float(np.max([row.grid_change for row in table.rows])),
        "exponent": table.prediction.exponent, "slope": fit.slope, "consistent": fit.consistent,
    }
    passed = (measured["blown_up"] == measured["rows"] and measured["max_decrease"] <= measured["stride"]
              and measured["max_grid_change"] < 0.05 and fit.consistent)
    return (passed, measured,
            f"{measured['blown_up']} of {len(T)} rows blown up, slope {fit.slope:.2f} against "
            f"{measured['exponent']:.2f}, max grid change {measured['max_grid_change']:.2%}")


def _threshold_consistency():
    # the halving law T(eps / 2) = 2^(1 / max theta) T(eps), 2^6 at n = 3, p = q = 2
    con = it.IterationConstants.from_frame(3, (2.0, 2.0))
    tA, tB = (it.threshold_time(con, eps) for eps in (0.4, 0.2))
    halving = abs(tB.T / tA.T - 2.0**6) / 2.0**6
    # each region's divergence driver equals 1 at its threshold time
    drivers = [it.divergence_driver("subcritical-v", con, 0.4, log_t=tA.log_T)]
    c = cusp_exponents(3)
    for family, n, pq, kw in (
        ("subcritical-v", 3, (2.0, 2.0), dict(C=0.8, K=1.3, Ctilde=0.7, Ktilde=1.2, m1_0=0.8, m2_0=0.9)),
        ("subcritical-uprime", 2, (3.0, 1.1), {}),
        ("critical-theta1", 3, (2.0, theta1_critical_q(3, 2.0)), {}),
        ("critical-theta2", 3, (theta2_critical_p(3, 1.2), 1.2), {}),
        ("critical-double", 3, (c.p_mix, c.q_mix), {}),
    ):
        consts = it.IterationConstants.from_frame(n, pq, **kw)
        drivers.append(it.divergence_driver(family, consts, 0.6, log_t=it.threshold_time(consts, 0.6).log_T))
    worst = float(np.max(np.abs(np.subtract(drivers, 1.0))))
    measured = {"halving_error": halving, "driver_deviation": worst}
    return (halving < 1e-12 and worst < 1e-9, measured,
            f"halving error {halving:.1e}, driver-at-threshold deviation {worst:.1e} over five families")


CLAIMS = (
    ("cusp-algebra", _cusp_algebra),
    ("closed-forms", _closed_forms),
    ("kernel-bounds", _kernel_bounds),
    ("solver-convergence", _solver_convergence),
    ("fundamental-identity", _fundamental_identity),
    ("functional-floors", _functional_floors),
    ("lifespan-sweep", _lifespan_sweep),
    ("threshold-consistency", _threshold_consistency),
)


def run_verification() -> list:
    """Measure each of ``CLAIMS`` in turn; returns [(name, passed,
    measured, detail), ...].  A claim that raises fails, with no measured
    numbers and the error as its detail, and the suite goes on."""
    results = []
    for name, measure in CLAIMS:
        try:
            passed, measured, detail = measure()
        except Exception as exc:  # surface as failure, do not abort the suite
            passed, measured, detail = False, {}, f"error: {exc}"
        results.append((name, bool(passed), measured, detail))
    return results
