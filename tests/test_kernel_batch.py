"""verify_kernel_bounds evaluates the kernels in batches (one set of
nodes and one phi matrix per call), and eta and xi share its formula;
their values must be those of the per-point evaluation kept here, which
computes each value (or each radius array) on its own.

The bitwise comparison runs in a child process with one BLAS thread,
as in test_phi_blocks.py: with more threads a phi matrix-vector product
splits its rows between threads.  Run this file directly to print the
mismatches.
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
    make_kernel_grid,
    phi,
    sinhc,
    verify_kernel_bounds,
    xi,
)

DIMENSIONS = (2, 3, 4, 5, 6)
GRIDS = ((25.0, 1.0), (3.0, 1.0))
RADII = np.linspace(0.0, 3.0, 13)


def reference_kernel(cfg, n, t, s, radius, hyperbolic):
    """One kernel value (or one array of them) computed on its own."""
    t, s = float(t), float(s)
    if s < 0 or t < s:
        raise ValueError(f"kernel arguments require 0 <= s <= t, got t={t}, s={s}")
    lam, wts = kernel_nodes(cfg)
    r = np.asarray(radius, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    damp = np.exp(-lam * (cfg.R + t))
    hyp = sinhc(lam * (t - s)) if hyperbolic == "sinhc" else np.cosh(lam * (t - s))
    out = phi(n, np.multiply.outer(r, lam)) @ (wts * damp * hyp)
    return float(out) if r.ndim == 0 else out


def reference_eta(cfg, n, t, s, radius):
    return reference_kernel(cfg, n, t, s, radius, "sinhc")


def reference_xi(cfg, n, t, s, radius):
    return reference_kernel(cfg, n, t, s, radius, "cosh")


def reference_bounds(cfg, n, sample_grid):
    """The bound check point by point, evaluating each kernel where it is used."""
    ratios = {bid: [] for bid in BoundId}
    diag_requested = any(t == s and t > 0 for (t, s, _x) in sample_grid)
    if diag_requested and not cfg.r > 0.5 * (n - 3.0):
        raise ValueError(f"diagonal bound requires r > (n-3)/2, got r={cfg.r} at n={n}")
    for (t, s, x) in sample_grid:
        if s < 0 or t < s:
            raise ValueError(f"sample point requires 0 <= s <= t, got {(t, s, x)}")
        if t == s and t > 0:
            if x > t + cfg.R + 1e-12:
                raise ValueError(f"diagonal point needs |x| <= t + R, got {(t, s, x)}")
            shape = bracket(t) ** (-0.5 * (n - 1.0)) * bracket(t - x) ** (
                0.5 * (n - 3.0) - cfg.r
            )
            ratios[BoundId.ETA_DIAG].append(reference_eta(cfg, n, t, t, x) / shape)
            continue
        if s == 0.0:
            if x > cfg.R + 1e-12:
                raise ValueError(f"s = 0 point needs |x| <= R, got {(t, s, x)}")
            ratios[BoundId.XI0].append(reference_xi(cfg, n, t, 0.0, x))
            ratios[BoundId.ETA0].append(reference_eta(cfg, n, t, 0.0, x) * bracket(t))
            if t > 0:
                ratios[BoundId.XIS].append(
                    reference_xi(cfg, n, t, 0.0, x) * bracket(0.0) ** (cfg.r + 1.0)
                )
                ratios[BoundId.ETAS].append(
                    reference_eta(cfg, n, t, 0.0, x) * bracket(t) * bracket(0.0) ** cfg.r
                )
            continue
        if x > s + cfg.R + 1e-12:
            raise ValueError(f"interior point needs |x| <= s + R, got {(t, s, x)}")
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


def mismatches():
    """Every batched value that differs from the per-point reference."""
    bad = []
    for n, cfg in default_configs():
        for t_max, R in GRIDS:
            grid = make_kernel_grid(t_max, R)
            if verify_kernel_bounds(cfg, n, grid) != reference_bounds(cfg, n, grid):
                bad.append(("reports", n, cfg.r, t_max))
            for t, s, x in grid:
                if eta(cfg, n, t, s, x) != reference_eta(cfg, n, t, s, x):
                    bad.append(("eta", n, cfg.r, (t, s, x)))
                if xi(cfg, n, t, s, x) != reference_xi(cfg, n, t, s, x):
                    bad.append(("xi", n, cfg.r, (t, s, x)))
        for fn, ref in ((eta, reference_eta), (xi, reference_xi)):
            if not np.array_equal(fn(cfg, n, 5.0, 2.0, RADII), ref(cfg, n, 5.0, 2.0, RADII)):
                bad.append((fn.__name__ + " array", n, cfg.r))
    return bad


def test_batched_kernels_equal_per_point_with_one_blas_thread():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_array_radius_matches_per_point():
    for n, cfg in default_configs():
        for fn, ref in ((eta, reference_eta), (xi, reference_xi)):
            got = fn(cfg, n, 5.0, 2.0, RADII)
            want = [ref(cfg, n, 5.0, 2.0, x) for x in RADII]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    grid = np.full((2, 3), 0.5)
    assert eta(KernelConfig(r=0.5), 3, 2.0, 1.0, grid).shape == (2, 3)
    assert xi(KernelConfig(r=0.5), 3, 2.0, 1.0, np.empty(0)).shape == (0,)
    assert isinstance(eta(KernelConfig(r=0.5), 3, 2.0, 1.0, 0.5), float)


BAD_GRIDS = [
    [(1.0, 0.0, 0.5), (1.0, 0.0, 5.0), (2.0, 1.0, 4.0)],  # |x| > R at s = 0, first
    [(2.0, 1.0, 0.5), (2.0, 1.0, 4.0), (1.0, 0.0, 5.0)],  # |x| > s + R, first
    [(1.0, 0.0, 0.0), (1.0, 2.0, 0.0)],  # s > t
    [(1.0, -0.5, 0.0)],  # s < 0
    [(2.0, 2.0, 1.0), (2.0, 2.0, 3.5)],  # |x| > t + R on the diagonal
    [(2.0, 1.0, 1.0), (2.0, 1.0, -0.5), (1.0, 2.0, 0.0)],  # negative radius
    [(1.0, 0.0, -1.0)],
    [(3.0, 3.0, -1.0)],
]


@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_bad_points_raise_the_reference_message(grid):
    cfg = KernelConfig(r=0.5, R=1.0)
    with pytest.raises(ValueError) as want:
        reference_bounds(cfg, 3, grid)
    with pytest.raises(ValueError) as got:
        verify_kernel_bounds(cfg, 3, grid)
    assert str(got.value) == str(want.value)


def test_diagonal_exponent_rule_raises_before_points():
    cfg = KernelConfig(r=0.2, R=1.0)
    grid = [(1.0, 2.0, 0.0), (1.0, 1.0, 0.5)]
    with pytest.raises(ValueError, match=r"diagonal bound requires r > \(n-3\)/2"):
        verify_kernel_bounds(cfg, 4, grid)


def test_empty_grid_gives_no_reports():
    assert verify_kernel_bounds(KernelConfig(r=0.5), 3, []) == []


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
            want = [fn(cfg, n, t, 0.0, x) for x in RADII[:5]]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_overflow_safe_form_agrees_below_the_switch(monkeypatch):
    points = make_kernel_grid(60.0, 1.0) + [(5.0, 5.0 - 1e-9, 2.0), (3.0, 2.9999, 0.0)]
    for n in (1, 2, 3, 6):
        for r in (-0.4, 0.3, 1.2):
            cfg = KernelConfig(r=r)
            monkeypatch.setattr(special, "_FAR_EXPONENT", 700.0)
            plain = special._kernel_values(cfg, n, points)
            monkeypatch.setattr(special, "_FAR_EXPONENT", -1.0)
            safe = special._kernel_values(cfg, n, points)
            for a, b in zip(plain, safe):
                np.testing.assert_allclose(b, a, rtol=1e-13, atol=0)


def test_kernels_continuous_across_the_switch():
    # max(lam) (R + t) = 700 near t = 699 for lambda0 = 1, R = 1
    cfg = KernelConfig(r=0.5)
    lam_max = kernel_nodes(cfg)[0].max()
    t_switch = 700.0 / lam_max - cfg.R
    for fn in (eta, xi):
        below = fn(cfg, 3, t_switch - 1e-9, 0.0, 0.5)
        above = fn(cfg, 3, t_switch + 1e-9, 0.0, 0.5)
        assert above == pytest.approx(below, rel=1e-10)


@pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf, -1.0])
def test_make_kernel_grid_rejects_bad_t_max(t_max):
    with pytest.raises(ValueError, match="t_max must be finite and nonnegative"):
        make_kernel_grid(t_max, 1.0)


if __name__ == "__main__":
    found = mismatches()
    for item in found:
        print("mismatch", *item)
    sys.exit(1 if found else 0)
