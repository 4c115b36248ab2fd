"""Exact-arithmetic (sympy) checks of the cusp algebra, the
subcritical power closed forms, the threshold formulas, the sum
identities of the iteration and the logs of its constants.

The closed forms are written here as the paper states them, then
checked symbolically against the equations they solve, and the
package's double values are compared with the exact ones.
"""

import math

import pytest
import sympy as sp

from coupledwave.exponents import cusp_exponents, theta1_critical_q, theta2_critical_p
from coupledwave.iteration import (
    IterationConstants,
    divergence_driver,
    subcritical_sequences,
    threshold_time,
)


@pytest.mark.parametrize("n", range(2, 11))
def test_cusp_point_solves_its_equations_exactly(n):
    q = (1 + sp.sqrt(sp.Rational(n + 9, n + 1))) / 2
    p = (n + 1 + sp.sqrt((n + 9) * (n + 1))) / (2 * (n - 1))
    # q_mix is the admissible root of (n+1)/2 q^2 - (n+1)/2 q - 1 = 0
    assert sp.expand(sp.Rational(n + 1, 2) * q**2 - sp.Rational(n + 1, 2) * q - 1) == 0
    assert q > 1
    # and p_mix = 1/(1 + 1/q - q)
    assert sp.simplify(p - 1 / (1 + 1 / q - q)) == 0
    c = cusp_exponents(n)
    assert c.q_mix == pytest.approx(float(q), rel=4e-16, abs=0.0)
    assert c.p_mix == pytest.approx(float(p), rel=4e-16, abs=0.0)


def test_subcritical_power_closed_forms_solve_their_recursions():
    n, p, q, j = sp.symbols("n p q j", positive=True)
    x = p * q

    # a_j and alpha_j, as subcritical_sequences evaluates them
    def a(k):
        return (n + 1 + (p + 2) / (x - 1)) * x**k - (p + 2) / (x - 1)

    def alpha(k):
        return (n + (2 * q + 1) / (x - 1)) * x**k - (2 * q + 1) / (x - 1)

    assert sp.simplify(a(0) - (n + 1)) == 0
    assert sp.simplify(alpha(0) - n) == 0
    assert sp.simplify(a(j + 1) - (x * a(j) + p + 2)) == 0
    assert sp.simplify(alpha(j + 1) - (x * alpha(j) + 2 * q + 1)) == 0

    # the package's closed-form columns are these expressions
    values = {n: 3, p: sp.Rational(3, 2), q: sp.Rational(7, 4)}
    tv, tu = subcritical_sequences(3, (1.5, 1.75), 12)
    for table, closed in ((tv, a), (tu, alpha)):
        exact = [float(closed(k).subs(values)) for k in range(13)]
        assert table.t_power_closed.tolist() == pytest.approx(exact, rel=1e-14, abs=0.0)


# Each driver family's divergence driver as coefficient * h_var^power,
# where h_var is T (subcritical) or log T (critical), and the paper's
# closed threshold, the value of h_var at which the driver is 1.  N, Nt,
# E, E1, E2 stand for Nconst, Ntilde and the critical lifespan constants.
n, p, q, eps, N, Nt, E, E1, E2 = sp.symbols("n p q epsilon N Ntilde E E1 E2", positive=True)
x = p * q
th1 = (q + 1 + 1 / p) / (x - 1) - (n - 1) / 2
th2 = (2 + 1 / q) / (x - 1) - (n - 1) / 2
DRIVERS = {
    "subcritical-v": (
        eps**p * 2 ** (-((n - 1) * p / 2 + n)) * N, p * th1,
        2 ** (((n - 1) / 2 + n / p) / th1) * N ** (-1 / (p * th1)) * eps ** (-1 / th1),
    ),
    "subcritical-uprime": (
        eps**q * 2 ** (-((n - 1) * q / 2 + n)) * Nt, q * th2,
        2 ** (((n - 1) / 2 + n / q) / th2) * Nt ** (-1 / (q * th2)) * eps ** (-1 / th2),
    ),
    "critical-theta1": (
        E * eps**x, q / (x - 1), E ** (-(x - 1) / q) * eps ** (-p * (x - 1)),
    ),
    "critical-theta2": (
        E1 * eps**x, p / (x - 1), E1 ** (-(x - 1) / p) * eps ** (-q * (x - 1)),
    ),
    "critical-double": (
        E2 * eps**q, (q + 1) / (x - 1),
        E2 ** (-(x - 1) / (q + 1)) * eps ** (-q * (x - 1) / (q + 1)),
    ),
}


def _log(expr):
    return sp.expand_log(sp.log(expr), force=True)


@pytest.mark.parametrize("family", sorted(DRIVERS))
def test_threshold_closed_forms_solve_their_driver_equations(family):
    coeff, power, closed = DRIVERS[family]
    h = sp.Symbol("h")  # log of T (subcritical) or of log T (critical)
    (root,) = sp.solve(sp.Eq(_log(coeff) + power * h, 0), h)
    assert sp.simplify(root - _log(closed)) == 0


def _sampled_constants():
    """Frame constants at a point of each blow-up region: both
    subcritical branches, both critical curves and the cusp."""
    cusp = cusp_exponents(4)
    kw = dict(C=0.8, K=1.3, Ctilde=0.7, Ktilde=1.2, m1_0=0.6, m2_0=0.9)
    points = [(3, (2.0, 2.0)), (2, (3.0, 1.1)), (3, (2.0, theta1_critical_q(3, 2.0))),
              (4, (theta2_critical_p(4, 1.3), 1.3)), (4, (cusp.p_mix, cusp.q_mix))]
    return [IterationConstants(dim, pq, **kw) for dim, pq in points]


@pytest.mark.parametrize("con", _sampled_constants(), ids=lambda c: f"n{c.n}-p{c.pq.p:.4g}-q{c.pq.q:.4g}")
@pytest.mark.parametrize("e", [0.9, 0.35, 0.05])
def test_threshold_time_is_the_closed_form(con, e):
    th = threshold_time(con, e)
    coeff, power, closed = DRIVERS[th.family]
    logs = {sp.log(N): con.log_Nconst, sp.log(Nt): con.log_Ntilde, sp.log(E): con.log_E,
            sp.log(E1): con.log_E1, sp.log(E2): con.log_E2}
    point = {n: con.n, p: sp.Float(con.pq.p, 40), q: sp.Float(con.pq.q, 40), eps: sp.Float(e, 40)}
    h_T = float(_log(closed).subs(logs).evalf(40, subs=point))  # log T, or log log T
    critical = th.family.startswith("critical-")
    log_T = math.exp(h_T) if critical else h_T
    assert th.log_T == pytest.approx(log_T, rel=1e-12, abs=0.0)
    # the driver is the family's coefficient times its power of T (or of
    # log T), here at t = sqrt(T)
    h = math.log(0.5 * log_T) if critical else 0.5 * log_T
    drv = float((_log(coeff) + power * h).subs(logs).evalf(40, subs=point))
    assert divergence_driver(th.family, con, e, log_t=0.5 * log_T) == pytest.approx(
        math.exp(drv), rel=1e-12)


def test_sum_identities_and_the_limit_S():
    k, j = sp.symbols("k j", integer=True, positive=True)
    y = sp.Symbol("y", positive=True)
    x = 1 + y  # pq > 1
    assert sp.simplify(sp.summation(x**k, (k, 0, j - 1)) - (x**j - 1) / (x - 1)) == 0
    assert sp.simplify(
        sp.summation((j - k) * x**k, (k, 0, j - 1))
        - ((x ** (j + 1) - 1) / (x - 1) - (j + 1)) / (x - 1)
    ) == 0
    S = sp.summation(k * x ** (-k), (k, 1, sp.oo))
    assert sp.simplify(S - x / (x - 1) ** 2) == 0


def _product_constants(con):
    """Nconst, Ntilde, E, E1, E2 of ``con`` from their product
    definitions, at 40 digits, where no product leaves range."""
    n, p, q, C, K, Ct, Kt, m1, m2 = (
        sp.Float(value, 40)
        for value in (con.n, con.pq.p, con.pq.q, con.C, con.K, con.Ctilde, con.Ktilde, con.m1_0, con.m2_0))
    x, two = p * q, sp.Integer(2)
    S = x / (x - 1) ** 2
    M = two ** (-q * (3 * n + 4)) * C * K**q * (x - 1) / x
    M1 = two ** (-3 * n * p - 6) * K * C**p * (x - 1) / x
    M2 = two ** (-5 * q - 2) * C * K**q * ((x - 1) / (q * (p + 1))) ** (q + 1)
    N, N1, N2 = two ** (2 * q) * x, two ** (2 * (p + 1)) * x, two**q * x ** (q + 1)
    Msub = C * K**p * (n + 1 + (p + 2) / (x - 1)) ** (-(p + 2))
    Msub_t = K * C**q * (n + (2 * q + 1) / (x - 1)) ** (-(2 * q + 1))
    return {
        "log_Nconst": m2 * Kt / (n * (n + 1)) * x ** (-(p + 2) * S) * Msub ** (1 / (x - 1)),
        "log_Ntilde": m1 * Ct / n * x ** (-(2 * q + 1) * S) * Msub_t ** (1 / (x - 1)),
        "log_E": two ** (-q * (2 * p - 1) / (x - 1)) * Ct * N ** (-S) * M ** (x - 1),
        "log_E1": two ** (-p * (2 * q - 1) / (x - 1)) * Kt * N1 ** (-S) * M1 ** (x - 1),
        "log_E2": two ** (-(2 + (q + 1) / (x - 1))) * Ct * N2 ** (-S) * M2 ** (x - 1),
    }


@pytest.mark.parametrize(
    "con", [*_sampled_constants(), IterationConstants(3, (600.0, 2.0))],
    ids=lambda c: f"n{c.n}-p{c.pq.p:.4g}-q{c.pq.q:.4g}")
def test_constant_logs_are_their_product_definitions(con):
    # at p = 600, N1 = 2^1202 pq and E1 are far beyond double range
    for name, value in _product_constants(con).items():
        assert getattr(con, name) == pytest.approx(float(sp.log(value)), rel=1e-12, abs=0.0), name
