"""Exact-arithmetic (sympy) checks of the cusp algebra and the
subcritical power closed forms.

The closed forms are written here as the package evaluates them, then
checked symbolically against the equations they solve, and the
package's double values are compared with the exact ones.
"""

import pytest
import sympy as sp

from coupledwave.exponents import cusp_exponents
from coupledwave.iteration import subcritical_sequences


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
