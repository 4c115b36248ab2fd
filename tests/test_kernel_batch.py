"""The kernels have one evaluator, special._kernel_values: eta and xi
call it at one (t, s), and verify_kernel_bounds on its sample families,
each value summed over its own row of nodes.  Their values must be those
of the per-point evaluation kept here, which computes each value of the
same bounded-factor formula on its own; the plain formula, whose factors
overflow at long horizons, is kept as an oracle for moderate t.  The
evaluator as it was before it took Phi once per distinct radius is kept
as a legacy pin, which batches with repeated radii and the bound
check's calls must equal in every bit.

The bitwise comparisons run in child processes with one and with two
BLAS threads, as in test_phi_blocks.py: with more threads a phi
matrix-vector product splits its rows between threads.  Run this file
directly to print the mismatches.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coupledwave import special
from coupledwave.exponents import cusp_exponents
from coupledwave.special import (
    BoundId,
    BoundReport,
    KernelConfig,
    bracket,
    eta,
    kernel_nodes,
    phi,
    sinhc,
    verify_kernel_bounds,
    xi,
)

DIMENSIONS = (2, 3, 4, 5, 6)
GRIDS = ((25.0, 1.0), (3.0, 1.0), (800.0, 1.0))
RADII = np.linspace(0.0, 3.0, 13)


def make_kernel_grid(t_max, R, n_t=8):
    """verify_kernel_bounds's sample points as (t, s, x) triples: (t, 0, x)
    with x <= R at n_t times in [0, t_max], and at t > 0 the interior
    points s = 0.3t, 0.6t, 0.9t with x <= s + R and the diagonal points
    (t, t, x) with x <= t + R; each radius is 0, 1/2 and 1 times its
    bound.  t_max must be finite and nonnegative."""
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max}")
    grid = []
    for t in np.linspace(0.0, t_max, n_t):
        grid += [(float(t), 0.0, float(fx * R)) for fx in (0.0, 0.5, 1.0)]
        if t > 0:
            for fs in (0.3, 0.6, 0.9):
                s = fs * t
                grid += [(float(t), float(s), float(fx * (s + R))) for fx in (0.0, 0.5, 1.0)]
            grid += [(float(t), float(t), float(fx * (t + R))) for fx in (0.0, 0.5, 1.0)]
    return grid


def reference_kernel(cfg, n, t, s, radius, hyperbolic):
    """One kernel value in bounded factors, computed on its own:
    wts exp(-r) phi(r) exp(lam (x - R - s)) at r = lam x, times
    (1 - exp(-2b))/(2b) or (1 + exp(-2b))/2 with b = lam (t - s)."""
    lam, wts = kernel_nodes(cfg)
    lx = lam * float(radius)
    b = lam * (float(t) - float(s))
    base = special._scaled_phi(n, lx) * np.exp(lx - lam * (cfg.R + float(s))) * wts
    if hyperbolic == "sinhc":
        part = np.where(b > 0, -np.expm1(-2.0 * np.where(b > 0, b, 1.0))
                        / (2.0 * np.where(b > 0, b, 1.0)), 1.0)
    else:
        part = 0.5 + 0.5 * np.exp(-2.0 * b)
    return float((base * part).sum())


def reference_eta(cfg, n, t, s, radius):
    return reference_kernel(cfg, n, t, s, radius, "sinhc")


def reference_xi(cfg, n, t, s, radius):
    return reference_kernel(cfg, n, t, s, radius, "cosh")


def plain_kernel(cfg, n, t, s, radius, hyperbolic):
    """The kernel as written, wts exp(-lam (R+t)) phi(lam x) times
    sinhc(lam (t-s)) or cosh(lam (t-s)): exact in exact arithmetic, but
    its factors leave the double range once lam (R+t) passes about 700."""
    lam, wts = kernel_nodes(cfg)
    hyp = sinhc(lam * (t - s)) if hyperbolic == "sinhc" else np.cosh(lam * (t - s))
    return float(phi(n, lam * radius) @ (wts * np.exp(-lam * (cfg.R + t)) * hyp))


def reference_bounds(cfg, n, sample_grid):
    """The bound check point by point, evaluating each kernel where it is used."""
    ratios = {bid: [] for bid in BoundId}
    for (t, s, x) in sample_grid:
        if t == s and t > 0:
            shape = bracket(t) ** (-0.5 * (n - 1.0)) * bracket(t - x) ** (
                0.5 * (n - 3.0) - cfg.r
            )
            ratios[BoundId.ETA_DIAG].append(reference_eta(cfg, n, t, t, x) / shape)
            continue
        if s == 0.0:
            ratios[BoundId.XI0].append(reference_xi(cfg, n, t, 0.0, x))
            ratios[BoundId.ETA0].append(reference_eta(cfg, n, t, 0.0, x) * bracket(t))
            if t == 0:
                continue
        ratios[BoundId.XIS].append(reference_xi(cfg, n, t, s, x) * bracket(s) ** (cfg.r + 1.0))
        ratios[BoundId.ETAS].append(
            reference_eta(cfg, n, t, s, x) * bracket(t) * bracket(s) ** cfg.r
        )
    return [
        BoundReport(bid, float(np.min(v)), float(np.max(v)), len(v))
        for bid, v in ratios.items()
        if v
    ]


def default_configs():
    """(n, KernelConfig) for both default kernel exponents at each dimension."""
    for n in DIMENSIONS:
        c = cusp_exponents(n)
        for r in (0.5 * (n - 1) - 1.0 / c.p_mix, 0.5 * (n - 1) - 1.0 / c.q_mix):
            yield n, KernelConfig(r=r, R=1.0)


def legacy_kernel_values(cfg, n, t, s, x):
    """_kernel_values as it was before Phi was taken once per distinct
    radius: Phi at every (point, node) pair, repeated radii included."""
    lam, wts = kernel_nodes(cfg)
    lx = np.multiply.outer(x, lam)
    b = np.multiply.outer(t - s, lam)
    base = special._scaled_phi(n, lx) * np.exp(lx - np.multiply.outer(cfg.R + s, lam)) * wts
    safe = np.where(b > 0, b, 1.0)
    sinhc_part = np.where(b > 0, -np.expm1(-2.0 * safe) / (2.0 * safe), 1.0)
    return (base * sinhc_part).sum(axis=-1), (base * (0.5 + 0.5 * np.exp(-2.0 * b))).sum(axis=-1)


def bound_check_calls(cfg, n, t_max):
    """The ((t, s, x), (eta, xi)) of each call of _kernel_values that
    verify_kernel_bounds makes: one per sample family."""
    calls = []
    evaluate = special._kernel_values

    def recording(cfg, n, t, s, x):
        values = evaluate(cfg, n, t, s, x)
        calls.append(((t, s, x), values))
        return values

    special._kernel_values = recording
    try:
        verify_kernel_bounds(cfg, n, t_max)
    finally:
        special._kernel_values = evaluate
    return calls


def bound_check_values(cfg, n, t_max):
    """Every (t, s, x, eta, xi) that verify_kernel_bounds evaluates."""
    seen = []
    for (t, s, x), (e, k) in bound_check_calls(cfg, n, t_max):
        t, s, x = np.broadcast_arrays(t, s, x)
        seen.extend(zip(t.ravel(), s.ravel(), x.ravel(), e.ravel(), k.ravel()))
    return seen


def bitwise_equal(got, want):
    return all(g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want))


# (t, s, x) batches whose radii repeat, as in the bound check's families
REPEATED_RADII = (
    (np.linspace(0.0, 30.0, 5)[:, None], 0.0, np.array([0.5, 0.0, 0.5, 1.0, 0.0, 0.5])),
    (np.array([[4.0], [9.0]]), np.array([[1.0], [3.0]]), np.full((2, 3), 0.75)),
    (np.linspace(1.0, 20.0, 40)[:, None], 0.0, np.array([0.0, 2.0, 0.0])),
    # more points than one Phi block, before and after the repeats go
    (np.linspace(1.0, 20.0, 40)[:, None], 0.5,
     np.round(np.linspace(0.0, 3.0, 120), 1).reshape(40, 3)),
    (3.0, 1.0, np.array(0.25)),
)


def mismatches():
    """Every batched or one-point value that differs from the per-point
    reference, every bound check value that differs from eta or xi at
    its point, and every batch, repeated radii included, whose values
    differ in any bit from the legacy formula's."""
    bad = []
    for n, cfg in default_configs():
        for t_max, R in GRIDS:
            grid = make_kernel_grid(t_max, R)
            t, s, x = np.array(grid).T
            batch = special._kernel_values(cfg, n, t, s, x)
            one_point = {}
            for i, p in enumerate(grid):
                want = reference_eta(cfg, n, *p), reference_xi(cfg, n, *p)
                one_point[p] = eta(cfg, n, *p), xi(cfg, n, *p)
                if one_point[p] != want or (batch[0][i], batch[1][i]) != want:
                    bad.append(("kernels", n, cfg.r, p))
            # the check samples the grid's points, each family on its own
            for ti, si, xi_, e, k in bound_check_values(cfg, n, t_max):
                if (e, k) != one_point.get((ti, si, xi_)):
                    bad.append(("bound check", n, cfg.r, (ti, si, xi_)))
            for args, values in bound_check_calls(cfg, n, t_max):
                if not bitwise_equal(values, legacy_kernel_values(cfg, n, *args)):
                    bad.append(("bound check vs legacy", n, cfg.r, t_max))
        for args in REPEATED_RADII:
            if not bitwise_equal(special._kernel_values(cfg, n, *args),
                                 legacy_kernel_values(cfg, n, *args)):
                bad.append(("repeated radii vs legacy", n, cfg.r, np.shape(args[2])))
        for fn, ref in ((eta, reference_eta), (xi, reference_xi)):
            if not np.array_equal(fn(cfg, n, 5.0, 2.0, RADII),
                                  [ref(cfg, n, 5.0, 2.0, x) for x in RADII]):
                bad.append((fn.__name__ + " array", n, cfg.r))
    return bad


def run_mismatches(threads):
    """Run this file in a child process with the given BLAS thread count."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_batched_kernels_equal_per_point_with_one_blas_thread():
    run_mismatches("1")


def test_batched_kernels_equal_per_point_with_two_blas_threads():
    run_mismatches("2")


def test_array_radius_matches_per_point():
    for n, cfg in default_configs():
        for fn in (eta, xi):
            got = fn(cfg, n, 5.0, 2.0, RADII)
            assert np.array_equal(got, [fn(cfg, n, 5.0, 2.0, x) for x in RADII])
    grid = np.full((2, 3), 0.5)
    assert eta(KernelConfig(r=0.5), 3, 2.0, 1.0, grid).shape == (2, 3)
    assert xi(KernelConfig(r=0.5), 3, 2.0, 1.0, np.empty(0)).shape == (0,)
    assert isinstance(eta(KernelConfig(r=0.5), 3, 2.0, 1.0, 0.5), float)


@pytest.mark.parametrize("R", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("t_max", [0.0, 50.0])
def test_bound_reports_match_the_per_point_check(t_max, R):
    for n, cfg in default_configs():
        cfg = KernelConfig(r=cfg.r, R=R)
        for n_t in (5, 8):
            got = verify_kernel_bounds(cfg, n, t_max, n_t)
            want = reference_bounds(cfg, n, make_kernel_grid(t_max, R, n_t))
            assert [(g.bound_id, g.samples) for g in got] == [(w.bound_id, w.samples) for w in want]
            for g, w in zip(got, want):
                # the bound shapes are powers, taken over arrays in the check
                assert g.min_ratio == pytest.approx(w.min_ratio, rel=1e-14, abs=0)
                assert g.max_ratio == pytest.approx(w.max_ratio, rel=1e-14, abs=0)


def test_diagonal_exponent_rule_raises_before_points():
    cfg = KernelConfig(r=0.2, R=1.0)
    with pytest.raises(ValueError, match=r"diagonal bound requires r > \(n-3\)/2"):
        verify_kernel_bounds(cfg, 4, 1.0)
    # with no t > 0 there is no diagonal point to check
    assert [rep.bound_id for rep in verify_kernel_bounds(cfg, 4, 0.0)] == [BoundId.XI0, BoundId.ETA0]


@pytest.mark.parametrize("t", [800.0, 1000.0])
def test_kernels_finite_at_long_horizons(t):
    for n in (1, 2, 3, 5):
        cfg = KernelConfig(r=0.5)
        for x in (0.0, 0.5, 1.0):
            for fn in (eta, xi):
                value = fn(cfg, n, t, 0.0, x)
                assert math.isfinite(value) and value > 0, (fn.__name__, n, x, value)
        assert 0 < eta(cfg, n, t, t, t + 1.0) < math.inf
        assert 0 < xi(cfg, n, t, 0.9 * t, 0.9 * t + 1.0) < math.inf
        for fn in (eta, xi):
            got = fn(cfg, n, t, 0.0, RADII[:5])
            assert np.array_equal(got, [fn(cfg, n, t, 0.0, x) for x in RADII[:5]])


def test_bounded_factor_form_matches_the_plain_formula():
    points = make_kernel_grid(60.0, 1.0) + [(5.0, 5.0 - 1e-9, 2.0), (3.0, 2.9999, 0.0)]
    for n in (1, 2, 3, 6):
        for r in (-0.4, 0.3, 1.2):
            cfg = KernelConfig(r=r)
            for t, s, x in points:
                for fn, hyperbolic in ((eta, "sinhc"), (xi, "cosh")):
                    want = plain_kernel(cfg, n, t, s, x, hyperbolic)
                    assert fn(cfg, n, t, s, x) == pytest.approx(want, rel=1e-13, abs=0)


def test_kernels_continuous_across_the_switch():
    # max(lam) (R + t) = 700 near t = 699 for LAMBDA0 = 1, R = 1: there
    # exp(-lam (R + t)) nears the end of the normal double range, and the
    # plain formula's factors would soon leave it
    cfg = KernelConfig(r=0.5)
    lam_max = kernel_nodes(cfg)[0].max()
    t_switch = 700.0 / lam_max - cfg.R
    for fn in (eta, xi):
        below = fn(cfg, 3, t_switch - 1e-9, 0.0, 0.5)
        above = fn(cfg, 3, t_switch + 1e-9, 0.0, 0.5)
        assert above == pytest.approx(below, rel=1e-10)


@pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf, -1.0])
def test_make_kernel_grid_rejects_bad_t_max(t_max):
    # the check refuses the horizons the reference grid refuses, with its message
    with pytest.raises(ValueError, match="t_max must be finite and nonnegative") as want:
        make_kernel_grid(t_max, 1.0)
    with pytest.raises(ValueError) as got:
        verify_kernel_bounds(KernelConfig(r=0.5), 3, t_max)
    assert str(got.value) == str(want.value)


if __name__ == "__main__":
    found = mismatches()
    for item in found:
        print("mismatch", *item)
    sys.exit(1 if found else 0)
