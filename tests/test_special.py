import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import i0

from coupledwave import special
from coupledwave.special import (
    LAMBDA0,
    BoundId,
    DampingSpec,
    KernelConfig,
    _jacobi_rule,
    bracket,
    eta,
    kernel_nodes,
    log_phi,
    multiplier,
    phi,
    psi,
    psi_moment,
    sinhc,
    surface_area,
    verify_kernel_bounds,
    xi,
)


def test_surface_areas():
    assert surface_area(1) == pytest.approx(2.0)
    assert surface_area(2) == pytest.approx(2 * math.pi)
    assert surface_area(3) == pytest.approx(4 * math.pi)


def test_phi_closed_forms():
    assert phi(1, 0.0) == pytest.approx(2.0, abs=0)
    assert phi(3, 0.0) == pytest.approx(4 * math.pi, rel=1e-13)
    # n=3 sphere integral reduces to 4 pi sinh(r)/r
    for r in (0.3, 1.0, 2.5, 10.0):
        assert phi(3, r) == pytest.approx(4 * math.pi * math.sinh(r) / r, rel=1e-12)
    # n=2 reduces to 2 pi I0(r)
    for r in (0.0, 0.7, 3.0, 20.0):
        assert phi(2, r) == pytest.approx(2 * math.pi * i0(r), rel=1e-12)


def test_phi_rejects_negative_radius():
    with pytest.raises(ValueError):
        phi(3, -0.1)


def test_log_phi_consistent():
    radii = np.array([0.0, 1.0, 5.0, 40.0, 100.0])
    for n in (1, 2, 3, 4):
        vals = log_phi(n, radii)
        small = radii <= 40.0
        assert np.allclose(np.exp(vals[small]), phi(n, radii[small]), rtol=1e-11)


def test_phi_eigenfunction_property_n3():
    # central differences on the closed form: Phi'' + (2/r) Phi' = Phi
    h = 1e-3

    def closed(r):
        return 4 * math.pi * math.sinh(r) / r

    for r in (0.5, 1.0, 2.0, 5.0):
        lap = (closed(r + h) - 2 * closed(r) + closed(r - h)) / h**2 + (2.0 / r) * (
            closed(r + h) - closed(r - h)
        ) / (2 * h)
        assert abs(lap - closed(r)) / closed(r) < 1e-6
        assert phi(3, r) == pytest.approx(closed(r), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phi_asymptotic_band(n):
    radii = np.linspace(0.0, 100.0, 401)
    band = np.exp(log_phi(n, radii) + 0.5 * (n - 1) * np.log(bracket(radii)) - radii)
    assert band.min() > 0
    assert band.max() / band.min() < 100.0


def test_psi_values():
    assert psi(3, 0.0, 0.0) == pytest.approx(4 * math.pi, rel=1e-13)
    assert psi(1, 1.0, 0.0) == pytest.approx(2 / math.e, rel=1e-13)
    assert psi(3, 2.0, 1.0) == pytest.approx(
        math.exp(-2) * 4 * math.pi * math.sinh(1.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        psi(3, -1.0, 0.0)


def test_psi_finite_on_the_light_cone():
    # |x| = t + R/2 past t = 710, where exp(-t) underflows and phi
    # overflows: the n = 3 closed form exp(r - t) 2 pi (1 - exp(-2r)) / r
    t, r = 800.0, 800.5
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = psi(3, t, r)
    want = math.exp(r - t) * 2.0 * math.pi * -math.expm1(-2.0 * r) / r
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-11)


def test_multiplier_families():
    assert multiplier(DampingSpec.zero(), 17.3) == pytest.approx(1.0, abs=0)
    pd = DampingSpec.power_decay(1.0, 2.0)
    assert multiplier(pd, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    ed = DampingSpec.exp_decay(1.0)
    assert multiplier(ed, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert multiplier(ed, 50.0) == pytest.approx(1.0, rel=1e-12)


def test_multiplier_rejects_nonsummable_power():
    with pytest.raises(ValueError):
        DampingSpec.power_decay(1.0, 1.0)
    with pytest.raises(ValueError):
        DampingSpec.power_decay(1.0, 0.5)
    with pytest.raises(ValueError):
        DampingSpec(mu=-1.0)


@pytest.mark.parametrize(
    "b",
    [DampingSpec.power_decay(0.7, 1.7), DampingSpec.exp_decay(0.4)],
)
def test_multiplier_monotone_with_floor(b):
    t = np.linspace(0.0, 30.0, 500)
    m = multiplier(b, t)
    assert np.all(np.diff(m) >= 0)
    assert np.all(m <= 1.0 + 1e-15)
    assert np.all(m >= m[0] - 1e-15)


@pytest.mark.parametrize(
    "b",
    [DampingSpec.power_decay(0.7, 1.7), DampingSpec.exp_decay(0.4)],
)
def test_multiplier_derivative_identity(b):
    # m'(t) = b(t) m(t), checked with central differences
    h = 1e-5
    for t in (0.1, 1.0, 5.0):
        deriv = (multiplier(b, t + h) - multiplier(b, t - h)) / (2 * h)
        assert deriv == pytest.approx(b.b(t) * multiplier(b, t), rel=1e-7)


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(r=-1.0)
    with pytest.raises(ValueError):
        KernelConfig(r=0.0, quad_nodes=8)
    for R in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="support radius R must be positive and finite"):
            KernelConfig(r=0.5, R=R)


@pytest.mark.parametrize("quad_nodes", [16, 64, 200])
def test_kernel_nodes_are_the_unit_cutoff_formula(quad_nodes):
    # the nodes and weights of int_0^1 f(lam) lam^r dlam, bitwise those
    # of the former lambda0 = 1 default
    assert LAMBDA0 == 1.0
    lambda0 = 1.0
    for r in (-0.9, -0.5, 0.0, 0.268, 0.5, 0.6, 1.2, 2.5):
        x, w = _jacobi_rule(0.0, r, quad_nodes)
        lam, wts = kernel_nodes(KernelConfig(r=r, quad_nodes=quad_nodes))
        assert np.array_equal(lam, 0.5 * lambda0 * (x + 1.0)), r
        assert np.array_equal(wts, (0.5 * lambda0) ** (r + 1.0) * w), r


@pytest.mark.parametrize(
    "build",
    [lambda: KernelConfig(r=math.inf), lambda: KernelConfig(r=math.nan),
     lambda: DampingSpec.power_decay(math.nan, 2.0), lambda: DampingSpec.exp_decay(math.inf),
     lambda: DampingSpec.power_decay(1.0, math.inf), lambda: DampingSpec(mu=0.0, beta=math.nan)],
    ids=["r-inf", "r-nan", "mu-nan", "mu-inf", "beta-inf", "beta-nan"],
)
def test_non_finite_kernel_and_damping_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_eta_xi_closed_form_at_origin():
    cfg = KernelConfig(r=0.0, R=1.0)
    expected = 4 * math.pi * (1 - math.exp(-1.0))
    assert eta(cfg, 3, 0.0, 0.0, 0.0) == pytest.approx(expected, rel=1e-12)
    assert xi(cfg, 3, 0.0, 0.0, 0.0) == pytest.approx(expected, rel=1e-12)


def test_eta_diagonal_equals_plain_integral():
    cfg = KernelConfig(r=0.3, R=1.0)
    t = 4.0
    lam_int = xi(cfg, 3, t, t, 0.7)  # cosh(0) = 1
    assert eta(cfg, 3, t, t, 0.7) == pytest.approx(lam_int, rel=1e-14)


def test_xi_dominates_eta_off_diagonal():
    cfg = KernelConfig(r=0.5, R=1.0)
    for (t, s, x) in [(3.0, 1.0, 0.5), (10.0, 2.0, 1.5), (5.0, 4.0, 0.0)]:
        assert xi(cfg, 2, t, s, x) >= eta(cfg, 2, t, s, x) > 0


def test_kernels_decrease_in_t():
    cfg = KernelConfig(r=0.5, R=1.0)
    ts = [2.0, 3.0, 5.0, 9.0]
    ve = [eta(cfg, 3, t, 1.5, 1.0) for t in ts]
    vx = [xi(cfg, 3, t, 1.5, 1.0) for t in ts]
    assert all(a > b for a, b in zip(ve, ve[1:]))
    assert all(a > b for a, b in zip(vx, vx[1:]))


def test_kernel_quadrature_self_convergence():
    # doubling quad_nodes moves values by < 1e-8 relative
    cases = [
        (0.5, 2, 5.0, 2.0, 1.0),
        (-0.4, 3, 20.0, 3.0, 2.5),
        (1.2, 4, 50.0, 25.0, 10.0),
    ]
    for r, n, t, s, x in cases:
        a = eta(KernelConfig(r=r, quad_nodes=64), n, t, s, x)
        b = eta(KernelConfig(r=r, quad_nodes=128), n, t, s, x)
        assert abs(a - b) / abs(b) < 1e-8
        a = xi(KernelConfig(r=r, quad_nodes=64), n, t, s, x)
        b = xi(KernelConfig(r=r, quad_nodes=128), n, t, s, x)
        assert abs(a - b) / abs(b) < 1e-8


def test_kernel_argument_validation():
    cfg = KernelConfig(r=0.5)
    with pytest.raises(ValueError):
        eta(cfg, 3, 1.0, 2.0, 0.0)  # s > t
    with pytest.raises(ValueError):
        xi(cfg, 3, 1.0, 2.0, 0.0)


def _phi_mp(n, rho):
    """Phi in closed form: 4 pi sinh(rho)/rho for n = 3, and
    (2 pi)^(n/2) rho^(1-n/2) I_{n/2-1}(rho) in general, with its limit,
    the sphere's area, at rho = 0."""
    half = mp.mpf(n) / 2
    if rho == 0:
        return 2 * mp.pi**half / mp.gamma(half)
    if n == 3:
        return 4 * mp.pi * mp.sinh(rho) / rho
    return (2 * mp.pi) ** half * rho ** (1 - half) * mp.besseli(half - 1, rho)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_kernels_match_mpmath_oracle(n):
    # the same node sum at 40 digits, with Phi in closed form: checks the
    # bounded-factor evaluation, not the quadrature
    points = [(0.0, 0.0, 0.0), (25.0, 25.0, 26.0), (60.0, 59.99, 2.0), (5.0, 5.0 - 1e-9, 2.0),
              (3.0, 0.0, 1.0), (10.0, 4.0, 5.0)]
    for r in (-0.4, 0.27, 1.2):
        cfg = KernelConfig(r=r)
        lam, wts = kernel_nodes(cfg)
        for t, s, x in points:
            with mp.workdps(40):
                e = k = mp.mpf(0)
                for lam_j, w_j in zip(lam, wts):
                    lam_j, w_j = mp.mpf(lam_j), mp.mpf(w_j)
                    b = lam_j * (mp.mpf(t) - mp.mpf(s))
                    term = w_j * mp.exp(-lam_j * (cfg.R + mp.mpf(t))) * _phi_mp(n, lam_j * x)
                    e += term * (mp.sinh(b) / b if b else 1)
                    k += term * mp.cosh(b)
            assert eta(cfg, n, t, s, x) == pytest.approx(float(e), rel=1e-13, abs=0), (r, t, s, x)
            assert xi(cfg, n, t, s, x) == pytest.approx(float(k), rel=1e-13, abs=0), (r, t, s, x)


def test_verify_kernel_bounds_reports():
    cfg = KernelConfig(r=0.5, R=1.0)
    reports = {r.bound_id: r for r in verify_kernel_bounds(cfg, 3, 20.0)}
    assert set(reports) == set(BoundId)
    for bid, rep in reports.items():
        assert rep.samples > 0
        if bid is BoundId.ETA_DIAG:
            assert math.isfinite(rep.max_ratio)
        else:
            assert rep.min_ratio > 0


def test_sinhc_series_and_closed_form():
    y = np.array([0.0, 1e-6, -5e-5, 1e-4, 0.5, -3.0, 20.0])
    expected = [1.0] + [math.sinh(v) / v for v in y[1:]]
    assert sinhc(y) == pytest.approx(expected, rel=1e-15)


def _sinhc_by_where(y):
    """sinhc as the two-branch np.where expression it is formed in place from."""
    y = np.asarray(y, dtype=float)
    small = np.abs(y) < 1e-4
    safe = np.where(small, 1.0, y)
    return np.where(small, 1.0 + y * y / 6.0 * (1.0 + y * y / 20.0), np.sinh(safe) / safe)


def test_sinhc_is_bitwise_the_where_expression():
    edge = np.array([1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0)])
    ramp = np.linspace(-30.0, 30.0, 4001)
    inputs = [
        np.concatenate(([0.0, -0.0], edge, -edge, [-2.5, -1e-5, 3e-5, 1.0, 50.0, 700.0])),
        np.outer(np.linspace(0.0, 3e-3, 17), ramp[1850:2150]),  # a row of zeros, many small entries
        ramp[:4000].reshape(40, 100).T,  # not C-contiguous
        np.float64(1e-4), np.array(-7e-5), np.array(0.0), 0.0, 2.0, -1e-9, 3,
    ]
    for y in inputs:
        got, want = sinhc(y), _sinhc_by_where(y)
        assert type(got) is type(want) is np.ndarray
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), y


def test_verify_kernel_bounds_rejects_bad_points():
    # the check samples its own points; only the diagonal bound's exponent
    # can rule them out: it needs r > (n-3)/2
    with pytest.raises(ValueError):
        verify_kernel_bounds(KernelConfig(r=0.2, R=1.0), 4, 1.0)


def test_psi_moment_closed_forms():
    # n=1: int_{-1}^{1} (e^r + e^{-r})^2 dr = 2 sinh(2) + 4
    assert psi_moment(1, 2.0, 0.0, 1.0) == pytest.approx(
        2 * math.sinh(2.0) + 4.0, rel=1e-12
    )
    # n=3: 4 pi int_0^1 Phi(rho)^2 rho^2 drho = 64 pi^3 (sinh(2)/4 - 1/2)
    expected = 64 * math.pi**3 * (math.sinh(2.0) / 4.0 - 0.5)
    assert psi_moment(3, 2.0, 0.0, 1.0) == pytest.approx(expected, rel=1e-10)
    with pytest.raises(ValueError):
        psi_moment(3, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("exponent, t, R, match", [
    (math.inf, 0.0, 1.0, "exponent"),
    (math.nan, 0.0, 1.0, "exponent"),
    (2.0, math.inf, 1.0, "t must"),
    (2.0, math.nan, 1.0, "t must"),
    (2.0, -1.0, 1.0, "t must"),
    (2.0, 0.0, math.inf, "R must"),
    (2.0, 0.0, -1.0, "R must"),
    (2.0, 0.0, 0.0, "R must"),
])
def test_psi_moment_refuses_bad_input(exponent, t, R, match):
    with pytest.raises(ValueError, match=match):
        psi_moment(3, exponent, t, R)


def test_psi_moment_refuses_t_past_the_panel_bound(monkeypatch):
    # exponent * (R + t) <= MOMENT_SPAN * MOMENT_PANELS = 65536, a bound
    # of the quadrature's memory; 1e300 raised numpy's "Maximum allowed
    # size exceeded", and an infinite product OverflowError
    for exponent, t in ((2.0, 32767.01), (2.0, 1e300), (1e300, 1e300)):
        with pytest.raises(ValueError, match=r"t = .* MOMENT_PANELS = 4096 .* at most 65536"):
            psi_moment(3, exponent, t, 1.0)
    # the edge itself, on a bound of 4 panels: t = 31 is the last t
    monkeypatch.setattr(special, "MOMENT_PANELS", 4)
    assert math.isfinite(psi_moment(3, 2.0, 31.0, 1.0))
    with pytest.raises(ValueError, match="MOMENT_PANELS = 4 "):
        psi_moment(3, 2.0, 31.01, 1.0)


@pytest.mark.parametrize("t", [30.0, 300.0])
@pytest.mark.parametrize("n", [1, 3])
def test_psi_moment_matches_mpmath_quad(n, t):
    # Phi in closed form: 2 cosh(rho) for n = 1, 4 pi sinh(rho)/rho for n = 3
    expo, R = 2.0, 1.0
    closed = {1: lambda rho: 2 * mp.cosh(rho), 3: lambda rho: 4 * mp.pi * mp.sinh(rho) / rho}[n]
    with mp.workdps(20):
        expected = surface_area(n) * mp.quad(
            lambda rho: (mp.exp(-t) * closed(rho)) ** expo * rho ** (n - 1),
            mp.linspace(0, R + t, 8),
        )
    assert psi_moment(n, expo, t, R) == pytest.approx(float(expected), rel=1e-9)


def test_psi_moment_asymptotic_band():
    # ratio against (1+t)^(n-1-(n-1)*exponent/2) stays in a fixed band
    n, expo, R = 3, 2.0, 1.0
    ts = np.array([1.0, 3.0, 10.0, 30.0, 100.0])
    ratios = np.array(
        [psi_moment(n, expo, t, R) / (1 + t) ** (n - 1 - 0.5 * (n - 1) * expo) for t in ts]
    )
    assert ratios.min() > 0
    assert ratios.max() / ratios.min() < 10.0
