"""Critical-exponent algebra for the weakly coupled wave system.

The blow-up theory for the system

    u_tt - Lap(u) + b1(t) u_t = |v|^q,
    v_tt - Lap(v) + b2(t) v_t = |u_t|^p,

is organised around two lifespan exponents,

    theta1(n, p, q) = (q + 1 + 1/p) / (pq - 1) - (n - 1)/2,
    theta2(n, p, q) = (2 + 1/q) / (pq - 1) - (n - 1)/2,

whose sign pattern splits the p-q plane into a subcritical region
(max{theta1, theta2} > 0, finite-time blow-up for all small data), two
critical sub-curves, their intersection (the cusp point), and a
supercritical region.  This module evaluates the exponents, classifies
pairs, produces the cusp point in closed form together with the Strauss
and Glassey reference exponents, and returns the predicted epsilon
scaling of the lifespan in each region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "EQUALITY_TOL",
    "ExponentPair",
    "Region",
    "CriticalData",
    "CuspPoint",
    "PredictionKind",
    "LifespanPrediction",
    "as_pair",
    "check_dimension",
    "kernel_exponents",
    "theta1",
    "theta2",
    "classify",
    "cusp_exponents",
    "cusp_residuals",
    "lifespan_prediction",
    "theta1_critical_q",
    "theta2_critical_p",
]

# Tolerance for deciding theta = 0: closed-form cusp inputs evaluate to
# double-precision residuals far below this.
EQUALITY_TOL = 1e-9


def check_dimension(n, minimum: int = 1) -> int:
    """Validate a spatial dimension: integer-valued and >= minimum."""
    if isinstance(n, bool):
        raise ValueError("dimension must be an integer, got a bool")
    try:
        ok = int(n) == n
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"dimension must be an integer, got {n!r}")
    n = int(n)
    if n < minimum:
        raise ValueError(f"dimension must be >= {minimum}, got {n}")
    return n


@dataclass(frozen=True)
class ExponentPair:
    """Pair of nonlinearity exponents (p, q), both finite and strictly above 1."""

    p: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError(f"exponents must be finite, got p={self.p}, q={self.q}")
        if not (self.p > 1.0 and self.q > 1.0):
            raise ValueError(
                f"exponents must satisfy p > 1 and q > 1, got p={self.p}, q={self.q}"
            )

    @property
    def product(self) -> float:
        return self.p * self.q


def as_pair(pq) -> ExponentPair:
    """Coerce an (p, q) tuple or ExponentPair to ExponentPair."""
    if isinstance(pq, ExponentPair):
        return pq
    p, q = pq
    return ExponentPair(float(p), float(q))


class Region(Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL_THETA1 = "critical-theta1"
    CRITICAL_THETA2 = "critical-theta2"
    DOUBLE_CRITICAL = "double-critical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class CriticalData:
    """Classification of an (n, p, q) triple against the critical curve."""

    theta1: float
    theta2: float
    region: Region


@dataclass(frozen=True)
class CuspPoint:
    """Cusp of the critical curve plus the classical reference exponents."""

    p_mix: float
    q_mix: float
    p_strauss: float
    p_glassey: float

    @property
    def ordered(self) -> bool:
        """The exponent ordering q_mix < p_glassey < p_strauss < p_mix,
        which ``cusp`` prints and ``verify`` checks."""
        return self.q_mix < self.p_glassey < self.p_strauss < self.p_mix


class PredictionKind(Enum):
    POWER_LAW = "power-law"
    EXP_THETA1 = "exp-theta1"
    EXP_THETA2 = "exp-theta2"
    EXP_DOUBLE = "exp-double"
    NONE = "none"


@dataclass(frozen=True)
class LifespanPrediction:
    """Predicted epsilon scaling of the lifespan upper bound.

    For POWER_LAW the bound is T <= C * eps**exponent; for the EXP_*
    kinds it is T <= exp(C * eps**exponent).  ``exponent`` is NaN for
    kind NONE (supercritical: no blow-up claim).
    """

    kind: PredictionKind
    exponent: float


def theta1(n, pq) -> float:
    """First lifespan exponent (q + 1 + 1/p)/(pq - 1) - (n - 1)/2."""
    n = check_dimension(n)
    pq = as_pair(pq)
    return (pq.q + 1.0 + 1.0 / pq.p) / (pq.product - 1.0) - 0.5 * (n - 1)


def theta2(n, pq) -> float:
    """Second lifespan exponent (2 + 1/q)/(pq - 1) - (n - 1)/2."""
    n = check_dimension(n)
    pq = as_pair(pq)
    return (2.0 + 1.0 / pq.q) / (pq.product - 1.0) - 0.5 * (n - 1)


def kernel_exponents(n, pq) -> tuple[float, float]:
    """Kernel exponents r1 = (n-1)/2 - 1/p and r2 = (n-1)/2 - 1/q of
    curlyU and curlyV: their equality values on the critical curves and
    the kernel of ``functionals.probes``.  The theta1-critical log seed
    reads curlyU (r1), the theta2-critical one curlyV (r2), and at the
    cusp, where both equalities hold, r1 = n - 1 - (n-1)q/2 and r2 = n -
    (n-1)p/2 (the exchange identities)."""
    n = check_dimension(n)
    pq = as_pair(pq)
    return 0.5 * (n - 1.0) - 1.0 / pq.p, 0.5 * (n - 1.0) - 1.0 / pq.q


def classify(n, pq) -> CriticalData:
    """Classify (n, p, q) by the signs of theta1, theta2.

    Equality with zero is decided up to ``EQUALITY_TOL``.  Supercritical
    pairs are accepted and classified (the sweep harness probes both
    sides of the curve).
    """
    n = check_dimension(n)
    pq = as_pair(pq)
    t1 = theta1(n, pq)
    t2 = theta2(n, pq)
    top = max(t1, t2)
    if top > EQUALITY_TOL:
        region = Region.SUBCRITICAL
    elif top < -EQUALITY_TOL:
        region = Region.SUPERCRITICAL
    elif abs(t1) <= EQUALITY_TOL and abs(t2) <= EQUALITY_TOL:
        region = Region.DOUBLE_CRITICAL
    elif abs(t1) <= EQUALITY_TOL:
        region = Region.CRITICAL_THETA1
    else:
        region = Region.CRITICAL_THETA2
    return CriticalData(theta1=t1, theta2=t2, region=region)


def cusp_exponents(n) -> CuspPoint:
    """Closed-form cusp point of the critical curve, with references.

    q_mix = (1 + sqrt((n+9)/(n+1)))/2 is the admissible root of the
    cubic reduced to (n+1)/2 q^2 - (n+1)/2 q - 1 = 0, and p_mix follows
    from p = 1/(1 + 1/q - q).  p_strauss is the positive root of
    (n-1)p^2 - (n+1)p - 2 = 0 and p_glassey = (n+1)/(n-1).
    """
    n = check_dimension(n, minimum=2)
    q_mix = 0.5 * (1.0 + math.sqrt((n + 9.0) / (n + 1.0)))
    p_mix = (n + 1.0 + math.sqrt((n + 9.0) * (n + 1.0))) / (2.0 * (n - 1.0))
    p_strauss = (n + 1.0 + math.sqrt(n * n + 10.0 * n - 7.0)) / (2.0 * (n - 1.0))
    p_glassey = (n + 1.0) / (n - 1.0)
    return CuspPoint(p_mix=p_mix, q_mix=q_mix, p_strauss=p_strauss, p_glassey=p_glassey)


def cusp_residuals(n) -> tuple[float, float, float]:
    """Residuals certifying the cusp algebra at dimension n.

    Returns (cubic residual at q_mix, theta1 at the cusp, theta2 at the
    cusp); all three vanish up to double-precision rounding.
    """
    n = check_dimension(n, minimum=2)
    cusp = cusp_exponents(n)
    q = cusp.q_mix
    cubic = (n + 1.0) * q**3 - 0.5 * (n + 1.0) * q**2 - 0.5 * (n + 5.0) * q - 1.0
    pair = ExponentPair(cusp.p_mix, cusp.q_mix)
    return cubic, theta1(n, pair), theta2(n, pair)


def lifespan_prediction(n, pq) -> LifespanPrediction:
    """Predicted epsilon scaling of the lifespan bound for (n, p, q)."""
    data = classify(n, pq)
    pq = as_pair(pq)
    p, q = pq.p, pq.q
    x = pq.product
    if data.region is Region.SUBCRITICAL:
        return LifespanPrediction(
            PredictionKind.POWER_LAW, -1.0 / max(data.theta1, data.theta2)
        )
    if data.region is Region.CRITICAL_THETA1:
        return LifespanPrediction(PredictionKind.EXP_THETA1, -p * (x - 1.0))
    if data.region is Region.CRITICAL_THETA2:
        return LifespanPrediction(PredictionKind.EXP_THETA2, -q * (x - 1.0))
    if data.region is Region.DOUBLE_CRITICAL:
        return LifespanPrediction(PredictionKind.EXP_DOUBLE, -q * (x - 1.0) / (q + 1.0))
    return LifespanPrediction(PredictionKind.NONE, math.nan)


def theta1_critical_q(n, p: float) -> float:
    """q such that theta1(n, p, q) = 0 for the given p."""
    n = check_dimension(n, minimum=2)
    c = 0.5 * (n - 1.0)
    if c * p <= 1.0:
        raise ValueError(f"no admissible q on the theta1 curve for n={n}, p={p}")
    q = (c + 1.0 + 1.0 / p) / (c * p - 1.0)
    if q <= 1.0:
        raise ValueError(f"theta1 curve leaves q > 1 at n={n}, p={p}")
    return q


def theta2_critical_p(n, q: float) -> float:
    """p such that theta2(n, p, q) = 0 for the given q."""
    n = check_dimension(n, minimum=2)
    p = (1.0 + 2.0 * (2.0 + 1.0 / q) / (n - 1.0)) / q
    if p <= 1.0:
        raise ValueError(f"theta2 curve leaves p > 1 at n={n}, q={q}")
    return p
