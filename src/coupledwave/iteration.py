"""Iteration machinery: lower-bound sequences, closed forms, frame
constants, blow-up threshold times and divergence drivers.

The subcritical argument generates sequences (C_j, a_j, b_j) and
(K_j, alpha_j, beta_j) through

    V(t)  >= C_j (1+t)^(-b_j) t^(a_j),
    U'(t) >= K_j (1+t)^(-beta_j) t^(alpha_j),

with multiplicative recursions a_{j+1} = pq a_j + p + 2, b_{j+1} =
pq b_j + n(pq-1), alpha_{j+1} = pq alpha_j + 2q + 1, beta_{j+1} =
pq beta_j + n(pq-1) and explicit closed forms.  The critical (slicing)
argument generates (C_j, a_j, b_j), (K_j, alpha_j, beta_j) and
(D_j, g_j, h_j) for the three critical cases, against slicing times
ell_j = 2 - 2^{-j}.  Coefficient sequences are doubly exponential in j
and therefore held in log scale.

Threshold times invert the divergence drivers:  subcritical
eps^p J(t) (or eps^q Jtilde(t)) with J(t) = 2^{-((n-1)p/2+n)} N t^{p
theta1}; critical H(t, eps) = E eps^{pq} (log t)^{q/(pq-1)} and its
analogues.  A driver value above 1 certifies divergence of the
lower-bound sequence at (t, eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exponents import (
    EQUALITY_TOL,
    PredictionKind,
    Region,
    as_pair,
    check_dimension,
    kernel_exponents,
    theta1,
    theta2,
)

__all__ = [
    "J_MAX_LIMIT",
    "CLOSED_FORM_TOL",
    "CriticalCase",
    "SequenceTable",
    "IterationConstants",
    "ThresholdTime",
    "subcritical_sequences",
    "critical_sequences",
    "closed_form_deviation",
    "geometric_sums",
    "series_S",
    "threshold_time",
    "r_parameters",
    "divergence_driver",
    "divergence_certificate",
    "write_table_csv",
]

# (pq)^j exceeds double range in driver subexpressions beyond this
J_MAX_LIMIT = 60
# largest closed_form_deviation accepted between a recursion and its closed form
CLOSED_FORM_TOL = 1e-12

LOG2 = math.log(2.0)


class CriticalCase(Enum):
    THETA1 = "theta1"
    THETA2 = "theta2"
    DOUBLE = "double"


@dataclass
class SequenceTable:
    """Iteration sequences with brute-recursion and closed-form columns.

    ``coeff_log`` holds log C_j (or log K_j, log D_j) from the step
    recursion; ``coeff_log_closed`` evaluates the same unrolled sum
    directly from the closed-form power sequences.  ``ell`` carries the
    slicing times for critical families and is None otherwise.
    """

    family: str
    n: int
    p: float
    q: float
    j: np.ndarray
    coeff_log: np.ndarray
    coeff_log_closed: np.ndarray
    t_power: np.ndarray
    t_power_closed: np.ndarray
    weight_power: np.ndarray
    weight_power_closed: np.ndarray
    ell: np.ndarray | None = None


@dataclass(frozen=True)
class IterationConstants:
    """Frame and seed constants with every derived constant materialised.

    The nine inputs are n, p, q and the frame constants: C, K of the
    coupled integral inequalities; Ctilde, Ktilde the nonlinearity
    lower-bound constants; m1_0, m2_0 the damping multipliers at t = 0.
    None of the six is computable in closed form, so they default to 1;
    each must be positive and finite.  Every other field is derived from
    the inputs on construction, ``dataclasses.replace`` included, and
    cannot be passed: M, N (theta1-critical coefficient recursion), M1,
    N1 (theta2), M2, N2 (double), S = pq/(pq-1)^2, Nconst and Ntilde
    (subcritical threshold constants) and the critical lifespan
    constants E, E1, E2.  Nconst, Ntilde, E, E1 and E2 are also kept as
    logs, which the thresholds and drivers read, so that they stay
    finite where the linear values underflow or overflow.  A product pq
    or a log beyond double range is a ValueError.
    """

    n: int
    p: float
    q: float
    C: float = 1.0
    K: float = 1.0
    Ctilde: float = 1.0
    Ktilde: float = 1.0
    m1_0: float = 1.0
    m2_0: float = 1.0
    M: float = field(init=False)
    N: float = field(init=False)
    M1: float = field(init=False)
    N1: float = field(init=False)
    M2: float = field(init=False)
    N2: float = field(init=False)
    S: float = field(init=False)
    Ntilde: float = field(init=False)
    Nconst: float = field(init=False)
    E: float = field(init=False)
    E1: float = field(init=False)
    E2: float = field(init=False)
    log_E: float = field(init=False)
    log_E1: float = field(init=False)
    log_E2: float = field(init=False)
    log_Ntilde: float = field(init=False)
    log_Nconst: float = field(init=False)

    def __post_init__(self):
        n = check_dimension(self.n)
        pq = as_pair((self.p, self.q))
        p, q = pq.p, pq.q
        x = pq.product
        try:
            S = x / (x - 1.0) ** 2
        except OverflowError:
            raise ValueError(f"exponents beyond double range: (pq - 1)^2 at p={p}, q={q}") from None
        for name in ("C", "K", "Ctilde", "Ktilde", "m1_0", "m2_0"):
            val = getattr(self, name)
            if not 0 < val < math.inf:
                raise ValueError(f"constant {name} must be positive and finite, got {val}")
        C, K, Ctilde, Ktilde, m1_0, m2_0 = (self.C, self.K, self.Ctilde, self.Ktilde,
                                            self.m1_0, self.m2_0)
        # M, M1, M2, Nconst, Ntilde underflow for small frame constants and
        # N, N1, N2 overflow for large exponents; their logs do not
        log_C, log_K = math.log(C), math.log(K)
        log_M = -q * (3.0 * n + 4.0) * LOG2 + log_C + q * log_K + math.log((x - 1.0) / x)
        log_M1 = (-3.0 * n * p - 6.0) * LOG2 + log_K + p * log_C + math.log((x - 1.0) / x)
        log_M2 = (
            (-5.0 * q - 2.0) * LOG2 + log_C + q * log_K
            + (q + 1.0) * math.log((x - 1.0) / (q * (p + 1.0)))
        )
        log_N = 2.0 * q * LOG2 + math.log(x)
        log_N1 = 2.0 * (p + 1.0) * LOG2 + math.log(x)
        log_N2 = q * LOG2 + (q + 1.0) * math.log(x)
        log_Msub = log_C + p * log_K - (p + 2.0) * math.log(n + 1.0 + (p + 2.0) / (x - 1.0))
        log_Msub_t = (
            log_K + q * log_C - (2.0 * q + 1.0) * math.log(n + (2.0 * q + 1.0) / (x - 1.0))
        )
        log_Nconst = (
            math.log(m2_0) + math.log(Ktilde) - math.log(n * (n + 1.0))
            - (p + 2.0) * x / (x - 1.0) ** 2 * math.log(x)
            + log_Msub / (x - 1.0)
        )
        log_Ntilde = (
            math.log(m1_0) + math.log(Ctilde) - math.log(n)
            - (2.0 * q + 1.0) * x / (x - 1.0) ** 2 * math.log(x)
            + log_Msub_t / (x - 1.0)
        )
        log_E = (
            -q * (2.0 * p - 1.0) / (x - 1.0) * LOG2
            + math.log(Ctilde)
            - S * log_N
            + (x - 1.0) * log_M
        )
        log_E1 = (
            -p * (2.0 * q - 1.0) / (x - 1.0) * LOG2
            + math.log(Ktilde)
            - S * log_N1
            + (x - 1.0) * log_M1
        )
        log_E2 = (
            -(2.0 + (q + 1.0) / (x - 1.0)) * LOG2
            + math.log(Ctilde)
            - S * log_N2
            + (x - 1.0) * log_M2
        )
        values = dict(
            n=n, p=p, q=q, M=_exp(log_M), N=_exp(log_N), M1=_exp(log_M1),
            N1=_exp(log_N1), M2=_exp(log_M2), N2=_exp(log_N2), S=S,
            Ntilde=_exp(log_Ntilde), Nconst=_exp(log_Nconst),
            E=_exp(log_E), E1=_exp(log_E1), E2=_exp(log_E2),
            log_E=log_E, log_E1=log_E1, log_E2=log_E2,
            log_Ntilde=log_Ntilde, log_Nconst=log_Nconst,
        )
        for name, val in values.items():
            if name.startswith("log_") and not math.isfinite(val):
                raise ValueError(f"exponents beyond double range: {name} = {val} at p={p}, q={q}")
            object.__setattr__(self, name, val)

    @classmethod
    def from_frame(cls, n, pq, C: float = 1.0, K: float = 1.0,
                   Ctilde: float = 1.0, Ktilde: float = 1.0,
                   m1_0: float = 1.0, m2_0: float = 1.0) -> "IterationConstants":
        pq = as_pair(pq)
        return cls(n, pq.p, pq.q, C, K, Ctilde, Ktilde, m1_0, m2_0)



@dataclass(frozen=True)
class ThresholdTime:
    """Blow-up threshold time; T = exp(log_T) overflows to inf for large
    thresholds.  For critical kinds log_T is itself a negative power of
    eps and overflows to inf as well at tiny eps."""

    kind: PredictionKind
    T: float
    log_T: float
    formula_id: str


def _exp(y: float) -> float:
    """exp(y), with overflow to inf instead of OverflowError."""
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


def closed_form_deviation(brute, closed) -> float:
    """Largest deviation of a brute-recursion column from its closed
    form, relative to max(|closed|, 1)."""
    return float(np.max(np.abs(brute - closed) / np.maximum(np.abs(closed), 1.0)))


def _check_jmax(j_max: int) -> int:
    if int(j_max) != j_max or j_max < 1:
        raise ValueError(f"j_max must be a positive integer, got {j_max}")
    if j_max > J_MAX_LIMIT:
        raise ValueError(f"j_max capped at {J_MAX_LIMIT}, got {j_max}")
    return int(j_max)


def _require_match(consts: IterationConstants, n, pq) -> None:
    if not (consts.n == n and abs(consts.p - pq.p) <= 1e-9 and abs(consts.q - pq.q) <= 1e-9):
        raise ValueError("IterationConstants built for different (n, p, q)")


def _family_table(family, n, p, q, js, seed, recur, step, t_closed, w_closed,
                  ell=None) -> SequenceTable:
    """Run one sequence family's recursion and its unrolled closed form.

    ``seed`` is (log c_0, t_0, w_0); ``recur(j, log_j, t_j, w_j)``
    returns the next triple; ``step(k, t_k)`` is the coefficient term
    d_k of log c_{k+1} = pq log c_k + d_k, so that log c_j = (pq)^j log
    c_0 + sum_{k<j} (pq)^{j-1-k} d_k evaluated on the closed-form power
    sequence t_closed.  Raises ValueError at the first j where a column
    leaves double range.
    """
    x = p * q
    size = len(js)
    rows = [seed]
    for j in range(size - 1):
        rows.append(recur(j, *rows[-1]))
    logc, tp, wp = (np.array(col) for col in zip(*rows))
    _check_range(family, logc, tp, wp, t_closed, w_closed)
    d = np.array([step(k, t) for k, t in enumerate(t_closed[:-1].tolist())])
    powers = x ** np.arange(size)
    logc_closed = np.empty(size)
    logc_closed[0] = log0 = seed[0]
    for j in range(1, size):
        logc_closed[j] = x**j * log0 + float(np.sum(powers[j - 1::-1] * d[:j]))
    _check_range(family, logc_closed)
    return SequenceTable(
        family=family, n=n, p=p, q=q, j=js,
        coeff_log=logc, coeff_log_closed=logc_closed,
        t_power=tp, t_power_closed=t_closed,
        weight_power=wp, weight_power_closed=w_closed,
        ell=ell,
    )


def _check_range(family, *columns) -> None:
    finite = np.isfinite(columns).all(axis=0)
    if not finite.all():
        j = int(np.argmin(finite))
        raise ValueError(f"{family} sequences leave double range at j = {j}; lower j_max or p, q")


@np.errstate(over="ignore", invalid="ignore")
def subcritical_sequences(n, pq, j_max: int, consts: IterationConstants | None = None,
                          eps: float = 1.0):
    """Brute recursions and closed forms for the subcritical families.

    Returns (table for (C_j, a_j, b_j), table for (K_j, alpha_j,
    beta_j)).  Seeds: a0 = n+1, b0 = (n-1)p/2, C0 = m2(0) Ktilde eps^p
    / (n(n+1)); alpha0 = n, beta0 = (n-1)q/2, K0 = m1(0) Ctilde eps^q
    / n.  Coefficients are tracked in log scale.
    """
    n = check_dimension(n)
    pq = as_pair(pq)
    j_max = _check_jmax(j_max)
    if consts is None:
        consts = IterationConstants.from_frame(n, pq)
    _require_match(consts, n, pq)
    p, q = pq.p, pq.q
    x = pq.product
    js = np.arange(j_max + 1)

    # V-family: (C_j, a_j, b_j)
    a0 = n + 1.0
    b0 = 0.5 * (n - 1.0) * p
    logC0 = math.log(consts.m2_0 * consts.Ktilde / (n * (n + 1.0))) + p * math.log(eps)
    logCK = math.log(consts.C) + p * math.log(consts.K)

    def terms_v(a):
        return p * math.log(a * q + 1.0), math.log(a * x + p + 1.0), math.log(a * x + p + 2.0)

    def recur_v(_j, logc, a, b):
        d1, d2, d3 = terms_v(a)
        return logCK + x * logc - d1 - d2 - d3, x * a + p + 2.0, x * b + n * (x - 1.0)

    def step_v(_k, a):
        d1, d2, d3 = terms_v(a)
        return logCK - d1 - d2 - d3

    table_v = _family_table(
        "subcritical-v", n, p, q, js, (logC0, a0, b0), recur_v, step_v,
        (a0 + (p + 2.0) / (x - 1.0)) * x**js - (p + 2.0) / (x - 1.0),
        (b0 + n) * x**js - n,
    )

    # U'-family: (K_j, alpha_j, beta_j)
    al0 = float(n)
    be0 = 0.5 * (n - 1.0) * q
    logK0 = math.log(consts.m1_0 * consts.Ctilde / n) + q * math.log(eps)
    logKC = math.log(consts.K) + q * math.log(consts.C)

    def terms_u(al):
        return (q * math.log(al * p + 1.0), q * math.log(al * p + 2.0),
                math.log(al * x + 2.0 * q + 1.0))

    def recur_u(_j, logk, al, be):
        d1, d2, d3 = terms_u(al)
        return logKC + x * logk - d1 - d2 - d3, x * al + 2.0 * q + 1.0, x * be + n * (x - 1.0)

    def step_u(_k, al):
        d1, d2, d3 = terms_u(al)
        return logKC - d1 - d2 - d3

    table_u = _family_table(
        "subcritical-uprime", n, p, q, js, (logK0, al0, be0), recur_u, step_u,
        (al0 + (2.0 * q + 1.0) / (x - 1.0)) * x**js - (2.0 * q + 1.0) / (x - 1.0),
        (be0 + n) * x**js - n,
    )
    return table_v, table_u


@np.errstate(over="ignore", invalid="ignore")
def critical_sequences(case, n, pq, j_max: int) -> SequenceTable:
    """Slicing-method sequences for one critical case.

    THETA1: a_{j+1} = a_j pq + 1, b_{j+1} = q(p-1) + b_j pq, coefficient
    step 2^{-2qj - 3q(n+2)} C K^q C_j^{pq} (a_j pq + 1)^{-1}, seeds
    a0 = 1, b0 = 0, C0 = Ctilde eps^{pq}.  THETA2 swaps the roles with
    K_j.  DOUBLE uses g_{j+1} = g_j pq + q + 1, h_{j+1} = h_j pq +
    pq - 1, D0 = Ctilde eps^q.  The slicing column is ell_j = 2 - 2^{-j}.
    The tables take the frame constants C, K, Ctilde, Ktilde and eps
    as 1, so log C0 = 0 and the coefficient steps carry powers of 2
    only.
    """
    case = CriticalCase(case)
    n = check_dimension(n, minimum=2)
    pq = as_pair(pq)
    j_max = _check_jmax(j_max)
    t1 = theta1(n, pq)
    t2 = theta2(n, pq)
    if case is CriticalCase.THETA1 and abs(t1) > EQUALITY_TOL:
        raise ValueError(f"(p, q) not on the theta1 curve: theta1 = {t1}")
    if case is CriticalCase.THETA2 and abs(t2) > EQUALITY_TOL:
        raise ValueError(f"(p, q) not on the theta2 curve: theta2 = {t2}")
    if case is CriticalCase.DOUBLE and (abs(t1) > EQUALITY_TOL or abs(t2) > EQUALITY_TOL):
        raise ValueError(f"(p, q) not at the double-critical point: {t1}, {t2}")
    p, q = pq.p, pq.q
    x = pq.product
    js = np.arange(j_max + 1)
    ell = 2.0 - 2.0 ** (-js.astype(float))

    if case is CriticalCase.THETA1:
        t_add, w_add = 1.0, q * (p - 1.0)

        def step(j, ac):
            return (-2.0 * q * j - 3.0 * q * (n + 2.0)) * LOG2 - math.log(ac * x + 1.0)
    elif case is CriticalCase.THETA2:
        t_add, w_add = 1.0, p * (q - 1.0)

        def step(j, ac):
            return (-2.0 * (p + 1.0) * j - (3.0 * n + 2.0) * p - 8.0) * LOG2 - math.log(ac * x + 1.0)
    else:
        t_add, w_add = q + 1.0, x - 1.0

        def step(j, ac):
            return (-(j + 6.0) * q - 2.0) * LOG2 - q * math.log(ac * p + 1.0) - math.log(ac * x + q + 1.0)

    if case is CriticalCase.DOUBLE:
        t_closed = (1.0 + t_add / (x - 1.0)) * x**js - t_add / (x - 1.0)
    else:
        t_closed = (x ** (js + 1.0) - 1.0) / (x - 1.0)
    # w_add / (x - 1) is exactly 1 in the double case, whose w_j = x^j - 1
    w_closed = w_add / (x - 1.0) * (x**js - 1.0)

    def recur(j, logc, t, w):
        return x * logc + step(j, t), x * t + t_add, x * w + w_add

    return _family_table(
        f"critical-{case.value}", n, p, q, js, (0.0, 1.0, 0.0), recur, step,
        t_closed, w_closed, ell=ell,
    )


def geometric_sums(x: float, j: int):
    """The two partial-sum identities used to unroll the recursions.

    Returns (sum_{k<j} x^k, sum_{k<j} (j-k) x^k), each evaluated by
    direct summation and by closed form; raises if the two evaluations
    disagree beyond 1e-12 relative.
    """
    if not x > 1.0:
        raise ValueError(f"geometric base must exceed 1, got {x}")
    if int(j) != j or j < 1:
        raise ValueError(f"j must be a positive integer, got {j}")
    j = int(j)
    ks = np.arange(j, dtype=float)
    powers = x**ks
    direct1 = float(powers.sum())
    direct2 = float(((j - ks) * powers).sum())
    closed1 = (x**j - 1.0) / (x - 1.0)
    closed2 = ((x ** (j + 1.0) - 1.0) / (x - 1.0) - (j + 1.0)) / (x - 1.0)
    for d, c in ((direct1, closed1), (direct2, closed2)):
        if abs(d - c) > CLOSED_FORM_TOL * max(abs(d), abs(c)):
            raise ArithmeticError(f"sum formula disagreement: direct={d}, closed={c}")
    return closed1, closed2


def series_S(pq_product: float, j_max: int = 200):
    """Partial sums S_j = sum_{k<=j} k (pq)^{-k} and the limit
    S = (1/pq) / (1 - 1/pq)^2 = pq/(pq-1)^2."""
    x = float(pq_product)
    if not x > 1.0:
        raise ValueError(f"pq must exceed 1, got {x}")
    j_max = int(j_max)
    ks = np.arange(1, j_max + 1, dtype=float)
    terms = ks * x**-ks
    partial = np.cumsum(terms)
    limit = (1.0 / x) / (1.0 - 1.0 / x) ** 2
    return partial, limit


def threshold_time(n, pq, eps: float, consts: IterationConstants,
                   region: Region) -> ThresholdTime:
    """Explicit blow-up threshold for the given region.

    Subcritical: T = 2^{((n-1)/2 + n/p)/theta1} N^{-1/(p theta1)}
    eps^{-1/theta1} on the theta1-dominant branch (q-analogue with
    Ntilde otherwise).  Critical: log T = E^{-(pq-1)/q} eps^{-p(pq-1)}
    and the analogous expressions with E1, E2.  Values beyond double
    range are returned as inf.
    """
    n = check_dimension(n)
    pq = as_pair(pq)
    if not eps > 0:
        raise ValueError("eps must be positive")
    _require_match(consts, n, pq)
    if region is Region.SUPERCRITICAL:
        raise ValueError("no blow-up threshold in the supercritical region")
    p, q = pq.p, pq.q
    x = pq.product
    log_eps = math.log(eps)
    if region is Region.SUBCRITICAL:
        t1 = theta1(n, pq)
        t2 = theta2(n, pq)
        if t1 >= t2:
            log_T = (
                (0.5 * (n - 1.0) + n / p) / t1 * LOG2
                - consts.log_Nconst / (p * t1)
                - log_eps / t1
            )
            fid = "subcritical-theta1"
        else:
            log_T = (
                (0.5 * (n - 1.0) + n / q) / t2 * LOG2
                - consts.log_Ntilde / (q * t2)
                - log_eps / t2
            )
            fid = "subcritical-theta2"
        return ThresholdTime(PredictionKind.POWER_LAW, _exp(log_T), log_T, fid)
    if region is Region.CRITICAL_THETA1:
        log_T = _exp(-(x - 1.0) / q * consts.log_E - p * (x - 1.0) * log_eps)
        kind, fid = PredictionKind.EXP_THETA1, "critical-theta1"
    elif region is Region.CRITICAL_THETA2:
        log_T = _exp(-(x - 1.0) / p * consts.log_E1 - q * (x - 1.0) * log_eps)
        kind, fid = PredictionKind.EXP_THETA2, "critical-theta2"
    elif region is Region.DOUBLE_CRITICAL:
        log_T = _exp(
            -(x - 1.0) / (q + 1.0) * consts.log_E2
            - q * (x - 1.0) / (q + 1.0) * log_eps
        )
        kind, fid = PredictionKind.EXP_DOUBLE, "critical-double"
    else:
        raise ValueError(f"unknown region {region}")
    return ThresholdTime(kind, _exp(log_T), log_T, fid)


def r_parameters(case, n, pq):
    """Critical kernel exponents (r1, r2) for the given case.

    Equality holds on the case's own curve (``kernel_exponents``): r1 =
    (n-1)/2 - 1/p on the theta1 curve, r2 = (n-1)/2 - 1/q on the theta2
    curve; the strict inequality on the other exponent is realised 0.1
    above the larger of the two equality values.  In the double case
    both equalities hold and the exchange identities (n-1)/2 - 1/p =
    n - 1 - (n-1)q/2 and (n-1)/2 - 1/q = n - (n-1)p/2 are asserted to
    1e-12.
    """
    case = CriticalCase(case)
    n = check_dimension(n, minimum=2)
    pq = as_pair(pq)
    t1 = theta1(n, pq)
    t2 = theta2(n, pq)
    p, q = pq.p, pq.q
    r1_eq, r2_eq = kernel_exponents(n, pq)
    strict = max(r1_eq, r2_eq) + 0.1
    if case is CriticalCase.THETA1:
        if abs(t1) > EQUALITY_TOL:
            raise ValueError(f"(p, q) not on the theta1 curve: theta1 = {t1}")
        return r1_eq, strict
    if case is CriticalCase.THETA2:
        if abs(t2) > EQUALITY_TOL:
            raise ValueError(f"(p, q) not on the theta2 curve: theta2 = {t2}")
        return strict, r2_eq
    if abs(t1) > EQUALITY_TOL or abs(t2) > EQUALITY_TOL:
        raise ValueError(f"(p, q) not double-critical: theta1={t1}, theta2={t2}")
    id1 = abs(r1_eq - (n - 1.0 - 0.5 * (n - 1.0) * q))
    id2 = abs(r2_eq - (n - 0.5 * (n - 1.0) * p))
    if id1 > 1e-12 or id2 > 1e-12:
        raise AssertionError(
            f"double-critical exchange identities violated: {id1}, {id2}"
        )
    return r1_eq, r2_eq


def divergence_driver(family: str, n, pq, eps: float, consts: IterationConstants,
                      t: float | None = None, log_t: float | None = None) -> float:
    """Value of the divergence driver for a sequence family at (t, eps).

    Families: 'subcritical-v' uses eps^p J(t), 'subcritical-uprime'
    eps^q Jtilde(t); the critical families use H, H1, H2.  ``log_t``
    may be given instead of t when t overflows.  A driver value beyond
    double range is returned as inf.
    """
    n = check_dimension(n)
    pq = as_pair(pq)
    if not eps > 0:
        raise ValueError("eps must be positive")
    if log_t is None:
        if t is None or not t > 0:
            raise ValueError("need t > 0 or log_t")
        log_t = math.log(t)
    _require_match(consts, n, pq)
    p, q = pq.p, pq.q
    x = pq.product
    log_eps = math.log(eps)
    if family == "subcritical-v":
        t1 = theta1(n, pq)
        log_val = (
            p * log_eps
            - (0.5 * (n - 1.0) * p + n) * LOG2
            + consts.log_Nconst
            + p * t1 * log_t
        )
    elif family == "subcritical-uprime":
        t2 = theta2(n, pq)
        log_val = (
            q * log_eps
            - (0.5 * (n - 1.0) * q + n) * LOG2
            + consts.log_Ntilde
            + q * t2 * log_t
        )
    elif family == "critical-theta1":
        if not log_t > 0:
            raise ValueError("critical drivers need t > 1")
        log_val = consts.log_E + x * log_eps + q / (x - 1.0) * math.log(log_t)
    elif family == "critical-theta2":
        if not log_t > 0:
            raise ValueError("critical drivers need t > 1")
        log_val = consts.log_E1 + x * log_eps + p / (x - 1.0) * math.log(log_t)
    elif family == "critical-double":
        if not log_t > 0:
            raise ValueError("critical drivers need t > 1")
        log_val = consts.log_E2 + q * log_eps + (q + 1.0) / (x - 1.0) * math.log(log_t)
    else:
        raise ValueError(f"unknown sequence family {family!r}")
    return _exp(log_val)


def divergence_certificate(table: SequenceTable, eps: float, t: float,
                           consts: IterationConstants) -> bool:
    """Whether the divergence driver of the table's family exceeds 1 at
    (t, eps), certifying blow-up of the lower-bound sequence there."""
    value = divergence_driver(table.family, table.n, (table.p, table.q), eps,
                              consts, t=t)
    return bool(value > 1.0)


def write_table_csv(table: SequenceTable, path) -> None:
    """CSV export with brute and closed-form columns side by side, in one
    write to ``path``, a file path or an open text stream."""
    cols = [table.j, table.coeff_log, table.coeff_log_closed, table.t_power,
            table.t_power_closed, table.weight_power, table.weight_power_closed]
    if table.ell is not None:
        cols.append(table.ell)
    row = "%d" + ",%.17g" * 6 + ("," if table.ell is None else ",%.17g") + "\n"
    text = "".join(row % values for values in zip(*(c.tolist() for c in cols)))
    header = ("j,coeff_log,coeff_log_closed,t_power,t_power_closed,"
              "weight_power,weight_power_closed,ell_j\n")
    if hasattr(path, "write"):
        path.write(header + text)
    else:
        with open(path, "w") as fh:
            fh.write(header + text)
