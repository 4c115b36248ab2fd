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

Each divergence driver is stated once, as its log a + b h: subcritical
eps^p J(t) (or eps^q Jtilde(t)) with J(t) = 2^{-((n-1)p/2+n)} N t^{p
theta1} and h = log t; critical H(t, eps) = E eps^{pq} (log
t)^{q/(pq-1)} and its analogues with h = log log t.  A driver above 1
certifies divergence of the lower-bound sequence at (t, eps).  The
threshold time is the root h = -a/b of the driver of the region
``classify`` gives (n, p, q) of the ``IterationConstants``, and it
names that driver's family: T =
2^{((n-1)/2 + n/p)/theta1} N^{-1/(p theta1)} eps^{-1/theta1} (or its
q-analogue), and log T = E^{-(pq-1)/q} eps^{-p(pq-1)} and its analogues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exponents import (
    EQUALITY_TOL,
    Region,
    as_pair,
    check_dimension,
    classify,
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
    "subcritical_v_sequences",
    "subcritical_uprime_sequences",
    "critical_sequences",
    "closed_form_deviations",
    "threshold_time",
    "divergence_driver",
    "write_table_csv",
]

# (pq)^j exceeds double range in driver subexpressions beyond this
J_MAX_LIMIT = 60
# largest closed_form_deviations value accepted between a recursion and its closed form
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
    """Frame and seed constants with the logs the drivers read.

    The nine inputs are n, p, q and the frame constants: C, K of the
    coupled integral inequalities; Ctilde, Ktilde the nonlinearity
    lower-bound constants; m1_0, m2_0 the damping multipliers at t = 0.
    None of the six is computable in closed form, so they default to 1;
    each must be positive and finite.  The five other fields are derived
    from the inputs on construction, ``dataclasses.replace`` included,
    and cannot be passed: the logs of the subcritical threshold
    constants Nconst and Ntilde and of the critical lifespan constants
    E, E1, E2.  They are built from M, N (theta1-critical coefficient
    recursion), M1, N1 (theta2), M2, N2 (double) and S = pq/(pq-1)^2,
    which are not kept; the logs stay finite where the linear values
    underflow or overflow.  A product pq or a log beyond double range
    is a ValueError.
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
        values = dict(n=n, p=p, q=q, log_E=log_E, log_E1=log_E1, log_E2=log_E2,
                      log_Ntilde=log_Ntilde, log_Nconst=log_Nconst)
        for name, val in values.items():
            if not math.isfinite(val):
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
    """Blow-up threshold time, the root of the divergence driver of
    ``family``; T = exp(log_T) overflows to inf for large thresholds.
    For the critical families log_T is itself a negative power of eps
    and overflows to inf as well at tiny eps."""

    log_T: float
    family: str

    @property
    def T(self) -> float:
        return _exp(self.log_T)


def _exp(y: float) -> float:
    """exp(y), with overflow to inf instead of OverflowError."""
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


def closed_form_deviations(table: SequenceTable) -> tuple:
    """Largest deviation of the table's t_power, weight_power and
    coeff_log columns from their closed forms, relative to max(|closed|,
    1), in that order: the table agrees with its closed forms when the
    largest is below CLOSED_FORM_TOL."""
    cols = [(getattr(table, col), getattr(table, col + "_closed"))
            for col in ("t_power", "weight_power", "coeff_log")]
    return tuple(float(np.max(np.abs(b - c) / np.maximum(np.abs(c), 1.0))) for b, c in cols)


def _check_eps(eps) -> None:
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")


def _check_jmax(j_max: int) -> int:
    if int(j_max) != j_max or j_max < 1:
        raise ValueError(f"j_max must be a positive integer, got {j_max}")
    if j_max > J_MAX_LIMIT:
        raise ValueError(f"j_max capped at {J_MAX_LIMIT}, got {j_max}")
    return int(j_max)


def _family_table(family, x, js, seed, recur, t_closed, w_closed,
                  ell=None) -> SequenceTable:
    """Run one sequence family's recursion and its unrolled closed form.

    ``x`` is pq.  ``seed`` is (log c_0, t_0, w_0); ``recur(j, log_j,
    t_j, w_j)`` returns the next triple, whose first entry is log
    c_{j+1} = pq log c_j + d_j.  The coefficient term d_k is recur's
    first entry from log c_k = 0, so that log c_j = (pq)^j log c_0 +
    sum_{k<j} (pq)^{j-1-k} d_k evaluated on the closed-form power
    sequence t_closed.  Raises ValueError at the first j where a column leaves
    double range.
    """
    size = len(js)
    rows = [seed]
    for j in range(size - 1):
        rows.append(recur(j, *rows[-1]))
    logc, tp, wp = (np.array(col) for col in zip(*rows))
    _check_range(family, logc, tp, wp, t_closed, w_closed)
    d = np.array([recur(k, 0.0, t, 0.0)[0] for k, t in enumerate(t_closed[:-1].tolist())])
    # row j-1 holds (pq)^{j-1-k} d_k at k < j, each prefix summed on its own
    k = np.arange(size - 1)
    prod = x ** np.maximum(k[:, None] - k, 0) * d
    logc_closed = np.empty(size)
    logc_closed[0] = log0 = seed[0]
    for j in range(1, size):
        logc_closed[j] = x**j * log0 + float(np.add.reduce(prod[j - 1, :j]))
    _check_range(family, logc_closed)
    return SequenceTable(
        family=family, j=js,
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


def _subcritical_frame(n, pq, j_max, eps):
    """The checked (n, p, q, pq, j indices) of a subcritical table."""
    n = check_dimension(n)
    pq = as_pair(pq)
    j_max = _check_jmax(j_max)
    _check_eps(eps)
    return n, pq.p, pq.q, pq.product, np.arange(j_max + 1)


@np.errstate(over="ignore", invalid="ignore")
def subcritical_v_sequences(n, pq, j_max: int, eps: float = 1.0) -> SequenceTable:
    """Brute recursion and closed form of the subcritical V-family (C_j,
    a_j, b_j), V(t) >= C_j (1+t)^(-b_j) t^(a_j).  Seeds: a0 = n+1, b0 =
    (n-1)p/2, C0 = m2(0) Ktilde eps^p / (n(n+1)), with the frame
    constants 1 (see ``subcritical_sequences``)."""
    n, p, q, x, js = _subcritical_frame(n, pq, j_max, eps)
    a0 = n + 1.0
    b0 = 0.5 * (n - 1.0) * p
    logC0 = math.log(1.0 / (n * (n + 1.0))) + p * math.log(eps)

    def recur_v(_j, logc, a, b):
        return (x * logc - p * math.log(a * q + 1.0) - math.log(a * x + p + 1.0)
                - math.log(a * x + p + 2.0), x * a + p + 2.0, x * b + n * (x - 1.0))

    return _family_table(
        "subcritical-v", x, js, (logC0, a0, b0), recur_v,
        (a0 + (p + 2.0) / (x - 1.0)) * x**js - (p + 2.0) / (x - 1.0),
        (b0 + n) * x**js - n,
    )


@np.errstate(over="ignore", invalid="ignore")
def subcritical_uprime_sequences(n, pq, j_max: int, eps: float = 1.0) -> SequenceTable:
    """Brute recursion and closed form of the subcritical U'-family (K_j,
    alpha_j, beta_j), U'(t) >= K_j (1+t)^(-beta_j) t^(alpha_j).  Seeds:
    alpha0 = n, beta0 = (n-1)q/2, K0 = m1(0) Ctilde eps^q / n, with the
    frame constants 1 (see ``subcritical_sequences``)."""
    n, p, q, x, js = _subcritical_frame(n, pq, j_max, eps)
    al0 = float(n)
    be0 = 0.5 * (n - 1.0) * q
    logK0 = math.log(1.0 / n) + q * math.log(eps)

    def recur_u(_j, logk, al, be):
        return (x * logk - q * math.log(al * p + 1.0) - q * math.log(al * p + 2.0)
                - math.log(al * x + 2.0 * q + 1.0), x * al + 2.0 * q + 1.0, x * be + n * (x - 1.0))

    return _family_table(
        "subcritical-uprime", x, js, (logK0, al0, be0), recur_u,
        (al0 + (2.0 * q + 1.0) / (x - 1.0)) * x**js - (2.0 * q + 1.0) / (x - 1.0),
        (be0 + n) * x**js - n,
    )


def subcritical_sequences(n, pq, j_max: int, eps: float = 1.0):
    """Brute recursions and closed forms for the subcritical families.

    Returns (``subcritical_v_sequences``, ``subcritical_uprime_sequences``)
    of the same arguments: the tables for (C_j, a_j, b_j) and for (K_j,
    alpha_j, beta_j).  Coefficients are tracked in log scale.  As in
    ``critical_sequences``, the frame constants C, K, Ctilde, Ktilde,
    m1(0) and m2(0) are 1.
    """
    return (subcritical_v_sequences(n, pq, j_max, eps),
            subcritical_uprime_sequences(n, pq, j_max, eps))


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
    only.  Exponents off the case's curve (theta1 = 0 for THETA1,
    theta2 = 0 for THETA2, both for DOUBLE, up to EQUALITY_TOL) are a
    ValueError.
    """
    case = CriticalCase(case)
    n = check_dimension(n, minimum=2)
    pq = as_pair(pq)
    j_max = _check_jmax(j_max)
    data = classify(n, pq)
    t1, t2 = data.theta1, data.theta2
    off = {CriticalCase.THETA1: abs(t1), CriticalCase.THETA2: abs(t2),
           CriticalCase.DOUBLE: max(abs(t1), abs(t2))}[case]
    if off > EQUALITY_TOL:
        raise ValueError(f"(p, q) is not {case.value}-critical: theta1 = {t1}, theta2 = {t2}")
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
        f"critical-{case.value}", x, js, (0.0, 1.0, 0.0), recur,
        t_closed, w_closed, ell=ell,
    )


# the driver family of each critical region
_CRITICAL_FAMILY = {Region.CRITICAL_THETA1: "critical-theta1",
                    Region.CRITICAL_THETA2: "critical-theta2", Region.DOUBLE_CRITICAL: "critical-double"}


def _driver_terms(family: str, consts: IterationConstants, eps: float) -> tuple:
    """(a, b) of the family's log driver a + b h at eps: h = log t for
    the subcritical families, log log t for the critical ones."""
    _check_eps(eps)
    n, p, q = consts.n, consts.p, consts.q
    x = p * q
    log_eps = math.log(eps)
    if family == "subcritical-v":
        a = p * log_eps - (0.5 * (n - 1.0) * p + n) * LOG2 + consts.log_Nconst
        return a, p * theta1(n, (p, q))
    if family == "subcritical-uprime":
        a = q * log_eps - (0.5 * (n - 1.0) * q + n) * LOG2 + consts.log_Ntilde
        return a, q * theta2(n, (p, q))
    if family == "critical-theta1":
        return consts.log_E + x * log_eps, q / (x - 1.0)
    if family == "critical-theta2":
        return consts.log_E1 + x * log_eps, p / (x - 1.0)
    if family == "critical-double":
        return consts.log_E2 + q * log_eps, (q + 1.0) / (x - 1.0)
    raise ValueError(f"unknown sequence family {family!r}")


def divergence_driver(family: str, consts: IterationConstants, eps: float,
                      log_t: float) -> float:
    """Value of the divergence driver for a sequence family at (log t,
    eps) and (n, p, q) of ``consts``: eps^p J(t) for 'subcritical-v',
    eps^q Jtilde(t) for 'subcritical-uprime', and H, H1, H2 (t > 1) for
    the critical families.  A value beyond double range is inf."""
    a, b = _driver_terms(family, consts, eps)
    if family.startswith("critical-"):
        if not log_t > 0:
            raise ValueError("critical drivers need t > 1")
        log_t = math.log(log_t)
    return _exp(a + b * log_t)


def threshold_time(consts: IterationConstants, eps: float) -> ThresholdTime:
    """Blow-up threshold at (n, p, q) of ``consts``: the root of the
    divergence driver of their region's family (``classify``).

    Subcritical: the driver eps^p J(t) on the theta1-dominant branch
    (eps^q Jtilde(t) otherwise) is 1 at T = 2^{((n-1)/2 + n/p)/theta1}
    N^{-1/(p theta1)} eps^{-1/theta1} (the q-analogue with Ntilde).
    Critical: H, H1, H2 are 1 at log T = E^{-(pq-1)/q} eps^{-p(pq-1)}
    and the analogous expressions with E1, E2.  ``family`` is that
    driver's, the name ``divergence_driver`` takes.  Values beyond
    double range are returned as inf; supercritical exponents are a
    ValueError.
    """
    data = classify(consts.n, (consts.p, consts.q))
    if data.region is Region.SUPERCRITICAL:
        raise ValueError("no blow-up threshold in the supercritical region")
    if data.region is Region.SUBCRITICAL:
        family = "subcritical-v" if data.theta1 >= data.theta2 else "subcritical-uprime"
    else:
        family = _CRITICAL_FAMILY[data.region]
    a, b = _driver_terms(family, consts, eps)
    log_T = -a / b if data.region is Region.SUBCRITICAL else _exp(-a / b)
    return ThresholdTime(log_T, family)


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
