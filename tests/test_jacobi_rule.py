"""The numpy Gauss-Jacobi rule against an mpmath oracle and against scipy.

The oracle polishes each double node to 34 digits by a Halley step on
P_m^(a,b) in mpmath and takes its weight from the closed form
2^(a+b+1) Gamma(m+a+1) Gamma(m+b+1) / (Gamma(m+a+b+1) m!) / ((1-x^2) P_m'(x)^2),
so it shares neither the eigen-solve nor the mass normalisation of the
rule under test.  scipy.special.roots_jacobi, which the package used to
call, is a test-only cross-check: the numpy weights must be no farther
from the oracle than scipy's.
"""

import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import roots_jacobi

from coupledwave.exponents import kernel_exponents
from coupledwave.special import MOMENT_NODES, PHI_NODES, KernelConfig, _jacobi_rule

KERNEL_NODES = KernelConfig(r=0.0).quad_nodes  # also the identity default


def _built_rules():
    """(alpha, beta, m) of every rule the package builds by default: phi's
    sphere rule for n = 2..6, the lam^r kernel rules for r in {r1, r1+2, r2}
    at a few (n, p, q), r1 = -0.909 near -1 among them, and psi_moment's
    panel rule."""
    rules = {((n - 3) / 2, (n - 3) / 2, PHI_NODES) for n in range(2, 7)}
    for n, p, q in ((3, 2.0, 2.0), (2, 3.0, 1.5), (1, 1.1, 1.25)):
        r1, r2 = kernel_exponents(n, (p, q))
        rules |= {(0.0, r, KERNEL_NODES) for r in (r1, r1 + 2.0, r2)}
    rules.add((0.0, 0.0, MOMENT_NODES))
    return sorted(rules)


def _oracle(a, b, m, x0):
    """Nodes polished from the doubles x0, and their weights, as mpf."""
    with mp.workdps(34):
        a, b = mp.mpf(a), mp.mpf(b)
        coef = []
        for k in range(2, m + 1):
            s = 2 * k + a + b
            c0 = 2 * k * (k + a + b) * (s - 2)
            coef.append(((s - 1) * s * (s - 2) / c0, (s - 1) * (a * a - b * b) / c0,
                         2 * (k + a - 1) * (k + b - 1) * s / c0))

        def p_and_dp(x):
            p0, p1, d0, d1 = 1, ((a + b + 2) * x + a - b) / 2, 0, (a + b + 2) / 2
            for A, B, C in coef:
                f = A * x + B
                p0, p1, d0, d1 = p1, f * p1 - C * p0, d1, f * d1 + A * p1 - C * d0
            return p1, d1

        scale = (mp.mpf(2) ** (a + b + 1) * mp.gamma(m + a + 1) * mp.gamma(m + b + 1)
                 / (mp.gamma(m + a + b + 1) * mp.factorial(m)))
        nodes, weights = [], []
        for x in map(mp.mpf, x0):
            # one Halley step, cubic from a double's 1e-16, with P'' from
            # the Jacobi equation
            p, d = p_and_dp(x)
            dd = ((a - b + (a + b + 2) * x) * d - m * (m + a + b + 1) * p) / (1 - x * x)
            x -= 2 * p * d / (2 * d * d - p * dd)
            d = p_and_dp(x)[1]
            nodes.append(x)
            weights.append(scale / ((1 - x * x) * d * d))
    return nodes, weights


def _errors(x, w, nodes, weights):
    """Largest absolute node error and relative weight error."""
    with mp.workdps(34):
        ex = max(abs(mp.mpf(xi) - X) for xi, X in zip(x, nodes))
        ew = max(abs(mp.mpf(wi) / W - 1) for wi, W in zip(w, weights))
    return float(ex), float(ew)


@pytest.mark.parametrize("a, b, m", _built_rules(), ids=lambda v: f"{v:g}")
def test_rule_matches_mpmath_and_beats_scipy(a, b, m):
    x, w = _jacobi_rule(a, b, m)
    assert x.shape == w.shape == (m,)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    half = slice(None)
    if a == b:
        # a symmetric rule is exactly so; the oracle checks its upper half
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        half = slice(m // 2, None)
    nodes, weights = _oracle(a, b, m, x[half])
    # every node polishes to its own root: the rule misses none
    assert all(u < v for u, v in zip(nodes, nodes[1:]))
    node_err, weight_err = _errors(x[half], w[half], nodes, weights)
    xs, ws = roots_jacobi(m, a, b)
    _, scipy_weight_err = _errors(xs[half], ws[half], nodes, weights)
    assert node_err <= 1e-15
    assert weight_err <= 1e-12
    assert weight_err <= scipy_weight_err


@pytest.mark.parametrize("a, b", [(-0.5, -0.5), (-0.25, -0.75)])
def test_rule_at_a_plus_b_minus_one_warns_nothing(a, b):
    # the general recurrence coefficients are 0/0 at k = 1 when a + b = -1
    m = 40
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, w = _jacobi_rule.__wrapped__(a, b, m)
    nodes, weights = _oracle(a, b, m, x)
    node_err, weight_err = _errors(x, w, nodes, weights)
    assert node_err <= 1e-15
    assert weight_err <= 1e-12


def test_rule_with_a_node_on_an_endpoint_is_refused():
    # beta one ulp above -1 (the kernel exponent r2 = -1/q at n = 1, q
    # one ulp above 1) rounds a node onto x = -1, where the weight is 1/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="has a node on an endpoint"):
            _jacobi_rule.__wrapped__(0.0, -1.0 + 2.0**-52, KERNEL_NODES)
