"""Special functions used by the blow-up machinery.

Provides the exponential-type eigenfunction of the Laplacian
(Lap(Phi) = Phi), its decaying space-time weight Psi(t, x) =
exp(-t) Phi(x), damping multipliers m(t) = exp(-int_t^inf b) for three
closed-form-tail damping families, and the kernel pair

    eta_r(t, s, x) = int_0^lam0 exp(-lam (R+t)) sinh(lam(t-s))/(lam(t-s))
                     Phi(lam x) lam^r dlam,
    xi_r(t, s, x)  = int_0^lam0 exp(-lam (R+t)) cosh(lam(t-s))
                     Phi(lam x) lam^r dlam,

together with numerical verification of their pointwise bounds.

Quadrature notes: the sphere integral defining Phi for n >= 2 reduces to
int_{-1}^{1} exp(r*tau) (1-tau^2)^{(n-3)/2} dtau, handled exactly by a
Gauss-Jacobi rule with matching endpoint weight; the lam-integrals carry
the lam^r endpoint weight into a Gauss-Jacobi rule on [0, lam0] (plain
Gauss-Legendre for r = 0), which keeps node-doubling self-convergence
below 1e-8 even for fractional r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .exponents import check_dimension

__all__ = [
    "DampingFamily",
    "DampingSpec",
    "KernelConfig",
    "BoundId",
    "BoundReport",
    "surface_area",
    "phi",
    "log_phi",
    "psi",
    "multiplier",
    "eta",
    "xi",
    "kernel_nodes",
    "sinhc",
    "bracket",
    "make_kernel_grid",
    "verify_kernel_bounds",
    "psi_moment",
]

# Nodes for the sphere-integral reduction; generous for arguments up to
# lam * radius ~ 120 (spectral accuracy needs roughly half that many).
PHI_NODES = 128
# Points per block of the sphere quadrature: bounds its (points, PHI_NODES)
# exp temporary to about 1 MB whatever the input size.
PHI_BLOCK = 1024
# lam (R+t) beyond which the kernels take their overflow-safe form:
# exp(-708) is about the smallest normal double.
_FAR_EXPONENT = 700.0


@lru_cache(maxsize=128)
def _jacobi_rule(alpha: float, beta: float, m: int):
    x, w = roots_jacobi(m, alpha, beta)
    return x, w


def surface_area(n) -> float:
    """Surface measure of the unit sphere in R^n (2 for n = 1)."""
    n = check_dimension(n)
    try:
        return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
    except OverflowError:
        raise ValueError(f"dimension {n} too large: Gamma({n}/2) overflows a double") from None


def _as_radius(radius):
    r = np.asarray(radius, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    return r


def _sphere_sum(radius, tau, w):
    """exp(outer(radius, tau)) @ w, evaluated in blocks of about PHI_BLOCK
    points.

    An input of at most PHI_BLOCK points is one block.  Larger inputs
    are split along the last axis at multiples of PHI_BLOCK (or in
    groups of whole rows when rows are shorter), never leaving a
    one-point tail, so every point meets the same matrix-vector kernel
    as in the one-shot product: with one BLAS thread the result is
    bitwise equal to it.
    """
    if radius.size <= PHI_BLOCK:
        return _block_sum(radius, tau, w)
    shape = radius.shape
    x = radius.reshape(math.prod(shape[:-1]), shape[-1])
    out = np.empty(x.shape)
    width = x.shape[1]
    rows = max(1, PHI_BLOCK // width)
    cols = list(range(0, width, PHI_BLOCK))
    if len(cols) > 1 and width % PHI_BLOCK == 1:
        cols.pop()
    cols.append(width)
    for i in range(0, x.shape[0], rows):
        for j0, j1 in zip(cols, cols[1:]):
            block = x[i : i + rows, j0:j1]
            out[i : i + rows, j0:j1] = _block_sum(block, tau, w)
    return out.reshape(shape)


def _block_sum(radius, tau, w):
    """exp(outer(radius, tau)) @ w with the exponential taken in place, so
    one block holds one (points, PHI_NODES) temporary."""
    e = np.multiply.outer(radius, tau)
    return np.exp(e, out=e) @ w


def phi(n, radius):
    """Eigenfunction of the Laplacian with Lap(Phi) = Phi, radial argument.

    For n = 1 this is exp(r) + exp(-r); for n >= 2 it is the integral of
    exp(omega . x) over the unit sphere, evaluated at |x| = radius.
    Accepts scalars or arrays.
    """
    n = check_dimension(n)
    r = _as_radius(radius)
    scalar = r.ndim == 0
    if n == 1:
        out = np.exp(r) + np.exp(-r)
    else:
        a = 0.5 * (n - 3.0)
        tau, w = _jacobi_rule(a, a, PHI_NODES)
        out = surface_area(n - 1) * _sphere_sum(r, tau, w)
    return float(out) if scalar else out


def log_phi(n, radius):
    """log(phi), computed overflow-safe for large radii."""
    n = check_dimension(n)
    r = _as_radius(radius)
    scalar = r.ndim == 0
    if n == 1:
        out = r + np.log1p(np.exp(-2.0 * r))
    else:
        out = r + np.log(_scaled_phi(n, r))
    return float(out) if scalar else out


def _scaled_phi(n, r):
    """exp(-r) * phi(n, r) for an array r >= 0; bounded, so it never
    overflows."""
    if n == 1:
        return 1.0 + np.exp(-2.0 * r)
    a = 0.5 * (n - 3.0)
    tau, w = _jacobi_rule(a, a, PHI_NODES)
    return surface_area(n - 1) * _sphere_sum(r, tau - 1.0, w)


def psi(n, t, radius):
    """Space-time weight exp(-t) * phi(n, radius)."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be nonnegative")
    return np.exp(-t) * phi(n, radius)


class DampingFamily(Enum):
    ZERO = "zero"
    POWER_DECAY = "power-decay"
    EXP_DECAY = "exp-decay"


@dataclass(frozen=True)
class DampingSpec:
    """Nonnegative, integrable damping coefficient with closed-form tail.

    ZERO:        b(t) = 0
    POWER_DECAY: b(t) = mu (1+t)^(-beta), beta > 1
    EXP_DECAY:   b(t) = mu exp(-t)
    """

    family: DampingFamily = DampingFamily.ZERO
    mu: float = 0.0
    beta: float = 2.0

    def __post_init__(self):
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"damping amplitude mu must be nonnegative and finite, got {self.mu}")
        if not math.isfinite(self.beta):
            raise ValueError(f"damping exponent beta must be finite, got {self.beta}")
        if self.family is DampingFamily.POWER_DECAY and not self.beta > 1.0:
            raise ValueError(
                "power-decay damping requires beta > 1 (summable tail), "
                f"got beta={self.beta}"
            )

    @classmethod
    def zero(cls) -> "DampingSpec":
        return cls(DampingFamily.ZERO)

    @classmethod
    def power_decay(cls, mu: float, beta: float) -> "DampingSpec":
        return cls(DampingFamily.POWER_DECAY, mu=mu, beta=beta)

    @classmethod
    def exp_decay(cls, mu: float) -> "DampingSpec":
        return cls(DampingFamily.EXP_DECAY, mu=mu)

    @property
    def is_zero(self) -> bool:
        return self.family is DampingFamily.ZERO or self.mu == 0.0

    def b(self, t):
        """Coefficient value b(t); accepts arrays.  A float t >= 0 skips
        the array validation (the solver calls this once per step)."""
        if isinstance(t, float) and t >= 0.0:
            t = np.float64(t)
        else:
            t = np.asarray(t, dtype=float)
            if np.any(t < 0):
                raise ValueError("t must be nonnegative")
        if self.is_zero:
            return np.zeros_like(t) if t.ndim else 0.0
        if self.family is DampingFamily.POWER_DECAY:
            out = self.mu * (1.0 + t) ** (-self.beta)
        else:
            out = self.mu * np.exp(-t)
        return float(out) if t.ndim == 0 else out

    def tail(self, t):
        """Tail integral int_t^inf b, in closed form per family."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        if self.is_zero:
            out = np.zeros_like(t)
        elif self.family is DampingFamily.POWER_DECAY:
            out = self.mu * (1.0 + t) ** (1.0 - self.beta) / (self.beta - 1.0)
        else:
            out = self.mu * np.exp(-t)
        return float(out) if t.ndim == 0 else out


def multiplier(b: DampingSpec, t):
    """Damping multiplier m(t) = exp(-int_t^inf b); m(0) <= m(t) <= 1."""
    return np.exp(-b.tail(t))


@dataclass(frozen=True)
class KernelConfig:
    """Parameters of the kernel family: exponent r > -1, cutoff lam0,
    support radius R, and quadrature order."""

    r: float
    lambda0: float = 1.0
    R: float = 1.0
    quad_nodes: int = 64

    def __post_init__(self):
        if not -1.0 < self.r < math.inf:
            raise ValueError(f"kernel exponent must be finite with r > -1, got {self.r}")
        if not 0 < self.lambda0 < math.inf:
            raise ValueError(f"lambda0 must be positive and finite, got {self.lambda0}")
        if not self.R > 0:
            raise ValueError("support radius R must be positive")
        if self.quad_nodes < 16:
            raise ValueError("quad_nodes must be >= 16")


def kernel_nodes(cfg: KernelConfig):
    """Quadrature nodes/weights for int_0^lam0 f(lam) lam^r dlam.

    The lam^r factor is absorbed into a Gauss-Jacobi weight so that f
    only needs to be smooth; reduces to Gauss-Legendre at r = 0.
    """
    x, w = _jacobi_rule(0.0, float(cfg.r), int(cfg.quad_nodes))
    lam = 0.5 * cfg.lambda0 * (x + 1.0)
    wts = (0.5 * cfg.lambda0) ** (cfg.r + 1.0) * w
    return lam, wts


def sinhc(y):
    """sinh(y)/y with the removable singularity handled by series."""
    y = np.asarray(y, dtype=float)
    small = np.abs(y) < 1e-4
    safe = np.where(small, 1.0, y)
    out = np.where(small, 1.0 + y * y / 6.0 * (1.0 + y * y / 20.0), np.sinh(safe) / safe)
    return out


def _kernel_coefs(cfg: KernelConfig, lam, wts, t, s):
    """The eta and xi coefficients wts exp(-lam (R+t)) sinhc(lam (t-s)) and
    wts exp(-lam (R+t)) cosh(lam (t-s)), one row of nodes per (t, s)."""
    damp = wts * np.exp(-np.multiply.outer(cfg.R + t, lam))
    b = np.multiply.outer(t - s, lam)
    return damp * sinhc(b), damp * np.cosh(b)


def _far_kernels(cfg: KernelConfig, n, lam, wts, t, s, x):
    """eta and xi in their overflow-safe form, for t, s, x that broadcast.

    The integrand wts exp(-lam (R+t)) phi(lam x) cosh(lam (t-s)) is
    written as bounded factors, exp(-r) phi(r) at r = lam x times
    exp(lam (x - R - s)) times (1 + exp(-2b))/2 with b = lam (t-s), and
    the same with (1 - exp(-2b))/(2b) for eta.
    """
    lx = np.multiply.outer(x, lam)
    b = np.multiply.outer(t - s, lam)
    base = _scaled_phi(n, lx) * np.exp(lx - np.multiply.outer(cfg.R + s, lam))
    safe = np.where(b > 0, b, 1.0)
    sinhc_part = np.where(b > 0, -np.expm1(-2.0 * safe) / (2.0 * safe), 1.0)
    return (base * sinhc_part) @ wts, (base * (0.5 + 0.5 * np.exp(-2.0 * b))) @ wts


def _kernel_values(cfg: KernelConfig, n, points):
    """eta and xi at each (t, s, x) of points, as two float arrays.

    With a = lam (R+t) and b = lam (t-s),
    eta = phi(lam x) @ (wts exp(-a) sinhc(b)) and
    xi  = phi(lam x) @ (wts exp(-a) cosh(b)).
    The nodes come once, phi once as a matrix over the distinct radii,
    and the coefficients once per distinct (t, s); each value is then
    one dot product of a phi row with its coefficients, as eta and xi
    compute it at a scalar radius.  Where max(lam) (R+t) exceeds
    _FAR_EXPONENT, exp(-a) leaves the normal double range and cosh(b),
    sinh(b) and phi(lam x) may overflow, so such points take the form of
    _far_kernels.
    """
    n = check_dimension(n)
    lam, wts = kernel_nodes(cfg)
    t, s, x = np.asarray(points, dtype=float).reshape(-1, 3).T
    eta_out, xi_out = np.empty(t.size), np.empty(t.size)
    far = lam.max() * (cfg.R + t) > _FAR_EXPONENT
    near = ~far
    if near.any():
        radii, row = np.unique(x[near], return_inverse=True)
        pairs, col = np.unique(np.column_stack((t[near], s[near])), axis=0,
                               return_inverse=True)
        ph = phi(n, np.multiply.outer(radii, lam))
        eta_c, xi_c = _kernel_coefs(cfg, lam, wts, pairs[:, 0], pairs[:, 1])
        eta_out[near] = [ph[i] @ eta_c[j] for i, j in zip(row, col.ravel())]
        xi_out[near] = [ph[i] @ xi_c[j] for i, j in zip(row, col.ravel())]
    if far.any():
        eta_out[far], xi_out[far] = _far_kernels(cfg, n, lam, wts, t[far], s[far], x[far])
    return eta_out, xi_out


def _kernel_at(cfg, n, t, s, radius, which):
    t, s = float(t), float(s)
    if s < 0 or t < s:
        raise ValueError(f"kernel arguments require 0 <= s <= t, got t={t}, s={s}")
    n = check_dimension(n)
    lam, wts = kernel_nodes(cfg)
    r = _as_radius(radius)
    if lam.max() * (cfg.R + t) > _FAR_EXPONENT:
        out = _far_kernels(cfg, n, lam, wts, t, s, r)[which]
    else:
        coef = _kernel_coefs(cfg, lam, wts, t, s)[which]
        out = phi(n, np.multiply.outer(r, lam)) @ coef
    return float(out) if r.ndim == 0 else out


def eta(cfg: KernelConfig, n, t: float, s: float, radius):
    """Kernel with the sinh(lam(t-s))/(lam(t-s)) factor (1 on the diagonal).

    The formula is that of _kernel_values at one (t, s): one set of
    coefficients and one matrix-vector product over the radii, or the
    overflow-safe form of _far_kernels where max(lam) (R+t) > _FAR_EXPONENT.
    """
    return _kernel_at(cfg, n, t, s, radius, 0)


def xi(cfg: KernelConfig, n, t: float, s: float, radius):
    """Kernel with the cosh(lam(t-s)) factor; xi >= eta pointwise for t > s.

    Evaluated like eta, by the formula of _kernel_values at one (t, s).
    """
    return _kernel_at(cfg, n, t, s, radius, 1)


def bracket(y):
    """Shifted absolute value 3 + |y| appearing in all kernel bounds."""
    return 3.0 + np.abs(y)


class BoundId(Enum):
    XI0 = "xi0"
    ETA0 = "eta0"
    XIS = "xi-s"
    ETAS = "eta-s"
    ETA_DIAG = "eta-diag"


@dataclass(frozen=True)
class BoundReport:
    """Extremes of kernel-value / bound-shape ratios over a sample grid.

    Lower bounds (XI0, ETA0, XIS, ETAS) are certified by a positive
    min_ratio (the numerical estimate of the bound constant); the upper
    bound (ETA_DIAG) by a finite max_ratio.
    """

    bound_id: BoundId
    min_ratio: float
    max_ratio: float
    samples: int

    @property
    def passed(self) -> bool:
        if self.bound_id is BoundId.ETA_DIAG:
            return bool(np.isfinite(self.max_ratio))
        return self.min_ratio > 0


def make_kernel_grid(t_max: float, R: float, n_t: int = 8):
    """Sample triples (t, s, radius) admissible for the kernel bounds.

    Generates three point families at n_t times t in [0, t_max]: (t, 0,
    x) with x <= R, interior points (t, s, x) with s = 0.3t, 0.6t, 0.9t
    and x <= s + R, and diagonal points (t, t, x) with x <= t + R; each
    radius is 0, 1/2 and 1 times its bound.  t_max must be finite and
    nonnegative.
    """
    s_fracs, x_fracs = (0.3, 0.6, 0.9), (0.0, 0.5, 1.0)
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max}")
    ts = np.linspace(0.0, t_max, n_t)
    grid = []
    for t in ts:
        for fx in x_fracs:
            grid.append((float(t), 0.0, float(fx * R)))
        if t > 0:
            for fs in s_fracs:
                s = fs * t
                for fx in x_fracs:
                    grid.append((float(t), float(s), float(fx * (s + R))))
            for fx in x_fracs:
                grid.append((float(t), float(t), float(fx * (t + R))))
    return grid


def verify_kernel_bounds(cfg: KernelConfig, n, sample_grid) -> list[BoundReport]:
    """Evaluate the five kernel bound ratios over a sample grid.

    Each triple (t, s, radius) is assigned to bound families by shape:
    s = 0 points feed the (t, 0, x) bounds, interior 0 <= s < t points
    the two-time lower bounds, and s = t points the diagonal upper
    bound.  Points violating the radius hypothesis of their family are
    rejected; every point is checked before any kernel is evaluated.
    eta and xi at all points then come from one batched evaluation
    (_kernel_values: one set of nodes and one phi matrix per call, and
    an overflow-safe form at long horizons).  Ratios are kernel value
    divided by the claimed bound shape, so lower bounds need a positive
    minimum and the upper bound a finite maximum.
    """
    n = check_dimension(n, minimum=2)
    ratios = {bid: [] for bid in BoundId}
    diag_requested = any(t == s and t > 0 for (t, s, _x) in sample_grid)
    if diag_requested and not cfg.r > 0.5 * (n - 3.0):
        raise ValueError(
            f"diagonal bound requires r > (n-3)/2, got r={cfg.r} at n={n}"
        )
    for (t, s, x) in sample_grid:
        if s < 0 or t < s:
            raise ValueError(f"sample point requires 0 <= s <= t, got {(t, s, x)}")
        if t == s and t > 0:
            if x > t + cfg.R + 1e-12:
                raise ValueError(f"diagonal point needs |x| <= t + R, got {(t, s, x)}")
        elif s == 0.0:
            if x > cfg.R + 1e-12:
                raise ValueError(f"s = 0 point needs |x| <= R, got {(t, s, x)}")
        elif x > s + cfg.R + 1e-12:
            raise ValueError(f"interior point needs |x| <= s + R, got {(t, s, x)}")
        _as_radius(x)
    etas, xis = _kernel_values(cfg, n, sample_grid)
    for (t, s, x), e, k in zip(sample_grid, etas, xis):
        if t == s and t > 0:
            shape = bracket(t) ** (-0.5 * (n - 1.0)) * bracket(t - x) ** (
                0.5 * (n - 3.0) - cfg.r
            )
            ratios[BoundId.ETA_DIAG].append(e / shape)
        elif s == 0.0:
            ratios[BoundId.XI0].append(k)
            ratios[BoundId.ETA0].append(e * bracket(t))
            if t > 0:
                ratios[BoundId.XIS].append(k * bracket(0.0) ** (cfg.r + 1.0))
                ratios[BoundId.ETAS].append(e * bracket(t) * bracket(0.0) ** cfg.r)
        else:  # interior two-time point, 0 < s < t
            ratios[BoundId.XIS].append(k * bracket(s) ** (cfg.r + 1.0))
            ratios[BoundId.ETAS].append(e * bracket(t) * bracket(s) ** cfg.r)
    reports = []
    for bid in BoundId:
        vals = np.asarray(ratios[bid], dtype=float)
        if vals.size == 0:
            continue
        reports.append(
            BoundReport(
                bound_id=bid,
                min_ratio=float(vals.min()),
                max_ratio=float(vals.max()),
                samples=int(vals.size),
            )
        )
    return reports


def psi_moment(n, exponent: float, t: float, R: float) -> float:
    """Integral of Psi(t, .)**exponent over the ball of radius R + t.

    Radial reduction: surface_area(n) * int_0^{R+t}
    (exp(-t) phi(rho))**exponent rho^(n-1) drho, evaluated in log space
    so that large radii do not overflow.  The quadrature order scales
    with exponent * (R + t) to keep the growing integrand resolved.
    """
    n = check_dimension(n)
    if not exponent > 1.0:
        raise ValueError(f"moment exponent must be > 1, got {exponent}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    upper = R + t
    m = max(64, int(2.0 * exponent * upper) + 32)
    x, w = _jacobi_rule(0.0, 0.0, m)
    rho = 0.5 * upper * (x + 1.0)
    wts = 0.5 * upper * w
    logs = exponent * (log_phi(n, rho) - t)
    if n > 1:
        logs = logs + (n - 1.0) * np.log(rho)
    return surface_area(n) * float(np.sum(wts * np.exp(logs)))
