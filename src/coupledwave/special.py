"""Special functions used by the blow-up machinery.

Provides the exponential-type eigenfunction of the Laplacian
(Lap(Phi) = Phi), its decaying space-time weight Psi(t, x) =
exp(-t) Phi(x), damping multipliers m(t) = exp(-int_t^inf b) for three
closed-form-tail damping families, and the kernel pair

    eta_r(t, s, x) = int_0^lam0 exp(-lam (R+t)) sinh(lam(t-s))/(lam(t-s))
                     Phi(lam x) lam^r dlam,
    xi_r(t, s, x)  = int_0^lam0 exp(-lam (R+t)) cosh(lam(t-s))
                     Phi(lam x) lam^r dlam,

with lam0 = LAMBDA0 = 1, and numerical checks of their pointwise bounds.

Quadrature notes: the sphere integral defining Phi for n >= 2 reduces to
int_{-1}^{1} exp(r*tau) (1-tau^2)^{(n-3)/2} dtau, handled exactly by a
Gauss-Jacobi rule with matching endpoint weight.  It is summed once,
bounded, as exp(-r) Phi (_scaled_phi), which phi, log_phi and psi
scale; past radius about 1500 the rule no longer resolves the sum's
boundary layer at tau = 1.  The lam-integrals carry the lam^r endpoint
weight into a Gauss-Jacobi rule on [0, lam0] (plain Gauss-Legendre for
r = 0), which keeps node-doubling self-convergence below 1e-8 even for
fractional r.  The rules are built here with numpy
alone (_jacobi_rule): Golub and Welsch's eigenvalues of the tridiagonal
Jacobi matrix (Math. Comp. 23, 1969), one Newton step on P_m^(a,b), and
weights from P_m' at the polished nodes, scaled to the rule's total mass.
The Psi moments integrate on panels of one 64-node Gauss-Legendre rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

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
    "verify_kernel_bounds",
    "psi_moment",
]

# Nodes for the sphere-integral reduction; generous for arguments up to
# lam * radius ~ 120 (spectral accuracy needs roughly half that many).
PHI_NODES = 128
# Points per block of the sphere quadrature: bounds its (points, PHI_NODES)
# exp temporary to about 1 MB whatever the input size.
PHI_BLOCK = 1024
# Gauss-Legendre nodes per psi_moment panel, the largest exponent *
# width of a panel, and the most panels (about 2 MB per node array).
MOMENT_NODES = 64
MOMENT_SPAN = 16.0
MOMENT_PANELS = 4096
# the kernels' lam-cutoff lam0
LAMBDA0 = 1.0
# the default number of lam-nodes of a kernel quadrature
QUAD_NODES = 64


@lru_cache(maxsize=128)
def _jacobi_rule(alpha: float, beta: float, m: int):
    """m-point Gauss-Jacobi nodes and weights for
    int_{-1}^{1} f(x) (1-x)^alpha (1+x)^beta dx, with alpha, beta > -1.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix, polished by one Newton step with
    P_m' = (m+a+b+1)/2 P_{m-1}^(a+1,b+1).  The weights are
    1/((1-x^2) P_m'(x)^2) at the polished nodes, normalised in log space
    and scaled to the total mass mu0 = 2^(a+b+1) B(a+1, b+1).  A rule
    with alpha == beta is made symmetric; alpha = beta = -1/2 is the
    Chebyshev rule, exact in closed form (equal weights pi/m).
    """
    a, b = float(alpha), float(beta)
    if a == b == -0.5:
        return np.sin(np.pi * np.arange(1 - m, m, 2) / (2 * m)), np.full(m, np.pi / m)
    # the monic recurrence: its diagonal, and its squared off-diagonal with
    # the k = 1 term written out (the general form is 0/0 at a + b = -1)
    k = np.arange(1.0, m)
    s = 2.0 * k + a + b
    diag = np.concatenate(([(b - a) / (a + b + 2.0)], (b - a) * (b + a) / (s * (s + 2.0))))
    k, s = k[1:], s[1:]
    off2 = np.concatenate(([4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))],
                           4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))))
    # eigvalsh reads the lower triangle only
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(np.sqrt(off2), -1))
    x -= _jacobi_poly(m, a, b, x) / (0.5 * (m + a + b + 1.0) * _jacobi_poly(m - 1, a + 1.0, b + 1.0, x))
    if not np.all(np.abs(x) < 1.0):  # a NaN fails too
        raise ValueError(f"Gauss-Jacobi rule ({a!r}, {b!r}) has a node on an endpoint: an exponent nears -1")
    # P_m' up to its constant factor, which the normalisation removes
    dp = _jacobi_poly(m - 1, a + 1.0, b + 1.0, x)
    logw = -np.log((1.0 - x) * (1.0 + x)) - 2.0 * np.log(np.abs(dp))
    w = np.exp(logw - logw.max())
    if a == b:
        x = 0.5 * (x - x[::-1])
        w = 0.5 * (w + w[::-1])
    mu0 = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                   - math.lgamma(a + b + 2.0))
    return x, w * (mu0 / w.sum())


def _jacobi_poly(m, a, b, x):
    """P_m^(a,b)(x), m >= 1, in the standard normalisation, by its
    three-term recurrence."""
    p0, p1 = np.ones_like(x), 0.5 * ((a + b + 2.0) * x + (a - b))
    for k in range(2, m + 1):
        s = 2.0 * k + a + b
        p0, p1 = p1, (
            (s - 1.0) * (s * (s - 2.0) * x + (a - b) * (a + b)) * p1
            - 2.0 * (k + a - 1.0) * (k + b - 1.0) * s * p0
        ) / (2.0 * k * (k + a + b) * (s - 2.0))
    return p1


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


def _scaled_phi(n, r):
    """exp(-r) * phi(n, r) for an array r >= 0: the one sphere sum, of
    exp(r (tau - 1)) <= 1, so it never overflows."""
    if n == 1:
        return 1.0 + np.exp(-2.0 * r)
    a = 0.5 * (n - 3.0)
    tau, w = _jacobi_rule(a, a, PHI_NODES)
    return surface_area(n - 1) * _sphere_sum(r, tau - 1.0, w)


def phi(n, radius):
    """Eigenfunction of the Laplacian with Lap(Phi) = Phi, radial argument.

    For n = 1 this is exp(r) + exp(-r); for n >= 2 it is the integral of
    exp(omega . x) over the unit sphere, evaluated at |x| = radius, as
    exp(r) * _scaled_phi.  Accepts scalars or arrays.
    """
    n = check_dimension(n)
    r = _as_radius(radius)
    out = _scaled_phi(n, r)
    out *= np.exp(r)  # in place: no second output array of r's size
    return float(out) if r.ndim == 0 else out


def log_phi(n, radius):
    """log(phi) = r + log(_scaled_phi), overflow-safe at large radii."""
    n = check_dimension(n)
    r = _as_radius(radius)
    out = r + np.log(_scaled_phi(n, r))
    return float(out) if r.ndim == 0 else out


def psi(n, t, radius):
    """Space-time weight exp(-t) * phi(n, radius), as exp(radius - t) *
    _scaled_phi: finite on the light cone at any t, with log_phi's
    accuracy limit past radius about 1500."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be nonnegative")
    n = check_dimension(n)
    r = _as_radius(radius)
    return np.exp(r - t) * _scaled_phi(n, r)


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
        the array validation (the solver calls this at each Taylor start
        and, for a non-zero damping only, once per step)."""
        if isinstance(t, float) and t >= 0.0:
            if self.is_zero:
                return 0.0
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
    """Parameters of the kernel family: exponent r > -1, support radius
    R, and quadrature order (16 to 512 nodes); the cutoff is LAMBDA0."""

    r: float
    R: float = 1.0
    quad_nodes: int = QUAD_NODES

    def __post_init__(self):
        if not -1.0 < self.r < math.inf:
            raise ValueError(f"kernel exponent must be finite with r > -1, got {self.r}")
        if not 0 < self.R < math.inf:
            raise ValueError(f"support radius R must be positive and finite, got {self.R}")
        # _jacobi_rule solves a dense m x m eigenproblem, whose cost grows as
        # m^3: 39 ms at m = 512 and 178 ms at m = 1024 (one BLAS thread, Xeon)
        if not 16 <= self.quad_nodes <= 512:
            raise ValueError(f"quad_nodes must lie in [16, 512], got {self.quad_nodes}")


def kernel_nodes(cfg: KernelConfig):
    """Quadrature nodes/weights for int_0^LAMBDA0 f(lam) lam^r dlam.

    The lam^r factor is absorbed into a Gauss-Jacobi weight so that f
    only needs to be smooth; reduces to Gauss-Legendre at r = 0.
    """
    x, w = _jacobi_rule(0.0, float(cfg.r), int(cfg.quad_nodes))
    lam = 0.5 * LAMBDA0 * (x + 1.0)
    wts = (0.5 * LAMBDA0) ** (cfg.r + 1.0) * w
    return lam, wts


def sinhc(y):
    """sinh(y)/y with the removable singularity handled by series.

    Returns a C-ordered array of y's shape (0-d for a scalar), formed in
    place: besides it only boolean masks of y's shape and arrays of the
    entries with |y| < 1e-4 are allocated.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape)
    np.abs(y, out=out)
    small = out < 1e-4
    np.sinh(y, out=out)
    np.divide(out, y, out=out, where=~small)
    ys = y[small]
    out[small] = 1.0 + ys * ys / 6.0 * (1.0 + ys * ys / 20.0)
    return out


def _kernel_values(cfg: KernelConfig, n, t, s, x):
    """eta and xi at the points (t, s, x), which broadcast, as two arrays
    of their broadcast shape.

    The integrand wts exp(-lam (R+t)) phi(lam x) cosh(lam (t-s)) is
    written as bounded factors, exp(-r) phi(r) at r = lam x times
    exp(lam (x - R - s)) times (1 + exp(-2b))/2 with b = lam (t-s), and
    the same with (1 - exp(-2b))/(2b) for eta, so no factor overflows at
    long horizons.  Each value is the sum of its own row of nodes, so a
    point's value does not depend on the batch it sits in; Phi's row is
    evaluated once per distinct radius.
    """
    lam, wts = kernel_nodes(cfg)
    lx = np.multiply.outer(x, lam)
    b = np.multiply.outer(t - s, lam)
    radii, where = np.unique(x, return_inverse=True)
    scaled = _scaled_phi(n, np.multiply.outer(radii, lam))[where.reshape(np.shape(x))]
    base = scaled * np.exp(lx - np.multiply.outer(cfg.R + s, lam)) * wts
    safe = np.where(b > 0, b, 1.0)
    sinhc_part = np.where(b > 0, -np.expm1(-2.0 * safe) / (2.0 * safe), 1.0)
    return (base * sinhc_part).sum(axis=-1), (base * (0.5 + 0.5 * np.exp(-2.0 * b))).sum(axis=-1)


def _kernel_point(cfg, n, t, s, radius):
    """(eta, xi) at one (t, s) over a scalar or array radius."""
    t, s = float(t), float(s)
    if s < 0 or t < s:
        raise ValueError(f"kernel arguments require 0 <= s <= t, got t={t}, s={s}")
    r = _as_radius(radius)
    values = _kernel_values(cfg, check_dimension(n), t, s, r)
    return [float(v) for v in values] if r.ndim == 0 else values


def eta(cfg: KernelConfig, n, t: float, s: float, radius):
    """Kernel with the sinh(lam(t-s))/(lam(t-s)) factor (1 on the diagonal),
    evaluated by _kernel_values at one (t, s)."""
    return _kernel_point(cfg, n, t, s, radius)[0]


def xi(cfg: KernelConfig, n, t: float, s: float, radius):
    """Kernel with the cosh(lam(t-s)) factor; xi >= eta pointwise for t > s.
    Evaluated like eta."""
    return _kernel_point(cfg, n, t, s, radius)[1]


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

    A lower bound's (XI0, ETA0, XIS, ETAS) min_ratio estimates its
    constant, the upper bound's (ETA_DIAG) max_ratio likewise; from
    ``verify_kernel_bounds`` both are always finite and positive.
    """

    bound_id: BoundId
    min_ratio: float
    max_ratio: float
    samples: int


def verify_kernel_bounds(cfg: KernelConfig, n, t_max: float, n_t: int = 8) -> list[BoundReport]:
    """Evaluate the five kernel bound ratios on three sample families.

    At n_t times t in [0, t_max] (the two-time families at t > 0 only),
    with radii 0, 1/2 and 1 times each family's bound on |x|:
    (t, 0, x) with x <= R feeds XI0 and ETA0; (t, s, x) with s = 0, 0.3t,
    0.6t, 0.9t and x <= s + R feeds XIS and ETAS; (t, t, x) with
    x <= t + R feeds ETA_DIAG.  R is cfg.R.  Ratios are kernel value
    divided by the claimed bound shape, so lower bounds need a positive
    minimum and the upper bound a finite maximum.  t_max must be finite
    and nonnegative, and the diagonal bound needs r > (n-3)/2.  The
    kernels are positive, so a ratio that is not finite and positive
    has left double range: that t_max is a ValueError.
    """
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max}")
    n = check_dimension(n, minimum=2)
    ts = np.linspace(0.0, t_max, n_t)
    later = ts[ts > 0]
    if later.size and not cfg.r > 0.5 * (n - 3.0):
        raise ValueError(f"diagonal bound requires r > (n-3)/2, got r={cfg.r} at n={n}")
    fracs = np.array([0.0, 0.5, 1.0])
    R, r = cfg.R, cfg.r
    # the ratios are checked below, so their over- and underflow warn nowhere
    with np.errstate(all="ignore"):
        # (t, 0, x), shape (n_t, 3)
        e, k = _kernel_values(cfg, n, ts[:, None], 0.0, fracs * R)
        ratios = {BoundId.XI0: k, BoundId.ETA0: e * bracket(ts)[:, None]}
        # (t, s, x), shape (t, s, x) = (later, 4, 3)
        t = later[:, None, None]
        s = t * np.array([0.0, 0.3, 0.6, 0.9])[:, None]
        e, k = _kernel_values(cfg, n, t, s, fracs * (s + R))
        ratios[BoundId.XIS] = k * bracket(s) ** (r + 1.0)
        ratios[BoundId.ETAS] = e * bracket(t) * bracket(s) ** r
        # (t, t, x), shape (later, 3)
        t = later[:, None]
        x = fracs * (t + R)
        shape = bracket(t) ** (-0.5 * (n - 1.0)) * bracket(t - x) ** (0.5 * (n - 3.0) - r)
        ratios[BoundId.ETA_DIAG] = _kernel_values(cfg, n, t, t, x)[0] / shape
    for bid, v in ratios.items():
        if not np.all((v > 0) & (v < math.inf)):  # a NaN fails too
            raise ValueError(
                f"kernel bound ratio {bid.value} leaves double range at t_max={t_max:g} "
                f"(n={n}, r={r:g}); use a shorter horizon"
            )
    return [
        BoundReport(bid, float(v.min()), float(v.max()), int(v.size))
        for bid, v in ratios.items()
        if v.size
    ]


def psi_moment(n, exponent: float, t: float, R: float) -> float:
    """Integral of Psi(t, .)**exponent over the ball of radius R + t.

    Radial reduction: surface_area(n) * int_0^{R+t}
    (exp(-t) phi(rho))**exponent rho^(n-1) drho, evaluated in log space
    so that large radii do not overflow.  The integral is a sum over
    equal panels, each with one MOMENT_NODES-point Gauss-Legendre rule,
    so many that exponent * width stays at most MOMENT_SPAN: the
    integrand grows like exp(exponent * rho), and one panel per
    MOMENT_SPAN of that growth keeps it resolved.  A t that needs more
    than MOMENT_PANELS panels, exponent * (R + t) > MOMENT_SPAN *
    MOMENT_PANELS, is a ValueError.
    """
    n = check_dimension(n)
    if not 1.0 < exponent < math.inf:
        raise ValueError(f"moment exponent must be finite and > 1, got {exponent}")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    if not 0.0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    upper = R + t
    if not exponent * upper <= MOMENT_SPAN * MOMENT_PANELS:
        raise ValueError(
            f"t = {t:g} needs more than MOMENT_PANELS = {MOMENT_PANELS} quadrature panels: "
            f"exponent * (R + t) must be at most {MOMENT_SPAN * MOMENT_PANELS:g}"
        )
    panels = max(1, math.ceil(exponent * upper / MOMENT_SPAN))
    width = upper / panels
    x, w = _jacobi_rule(0.0, 0.0, MOMENT_NODES)
    rho = width * np.add.outer(np.arange(panels), 0.5 * (x + 1.0))
    wts = 0.5 * width * w
    logs = exponent * (log_phi(n, rho) - t)
    if n > 1:
        logs = logs + (n - 1.0) * np.log(rho)
    return surface_area(n) * float(np.sum(wts * np.exp(logs)))
