"""The flat-data ODE limit: an exact reference for the coupled nonlinear solve.

Blow-up is at the axis, and as the support radius R grows at fixed eps
the bump's Laplacian at r = 0 is O(n / R^2), so the axis values tend
to the solution of the flat ODE

    u'' = |v|^q,  v'' = |u'|^p

with the data's amplitudes eps (A_u0, A_u1, A_v0, A_v1).  Its blow-up
time T_ODE does not depend on n.  At p = q = 2, data (4, 4, 4, 4),
eps 1 and the level 1e8, mpmath.odefun (tol 1e-20) with bisection on
the level gives T_ODE = 0.7033402918294.
"""

import math

import pytest

from coupledwave.exponents import ExponentPair
from coupledwave.solver import GridSpec, InitialDataFamily, ProblemSpec, run
from coupledwave.special import DampingSpec

T_ODE = 0.7033402918294
DATA = (4.0, 4.0, 4.0, 4.0)
LEVEL = 1e8


def _rk4(y, h, p, q):
    def f(y):
        _u, ut, v, vt = y
        return (ut, abs(v) ** q, vt, abs(ut) ** p)

    k1 = f(y)
    k2 = f(tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
    k3 = f(tuple(a + 0.5 * h * b for a, b in zip(y, k2)))
    k4 = f(tuple(a + h * b for a, b in zip(y, k3)))
    return tuple(a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def _level(y):
    """The solver's blow-up level: max(|u|, |u'|, |v|)."""
    return max(abs(y[0]), abs(y[1]), abs(y[2]))


def ode_blowup_time(p=2.0, q=2.0, data=DATA, level=LEVEL):
    """RK4 with steps 1e-4 / sqrt(level), so the steps shrink as the
    solution grows; the step that reaches ``level`` is bisected to it."""
    t, y = 0.0, tuple(data)
    while True:
        h = 1e-4 / math.sqrt(_level(y))
        nxt = _rk4(y, h, p, q)
        if _level(nxt) >= level:
            lo, hi = 0.0, h
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if _level(_rk4(y, mid, p, q)) >= level:
                    hi = mid
                else:
                    lo = mid
            return t + 0.5 * (lo + hi)
        t, y = t + h, nxt


def test_ode_blowup_time_is_the_mpmath_value():
    assert ode_blowup_time() == pytest.approx(T_ODE, abs=1e-10)


def _solver_error(R):
    spec = ProblemSpec(
        n=2, pq=ExponentPair(2.0, 2.0), b1=DampingSpec.zero(), b2=DampingSpec.zero(), R=R,
        eps=1.0, data=InitialDataFamily(k=3, amplitudes=DATA),
        grid=GridSpec(dr=0.0125, t_max=2.0, blowup_threshold=LEVEL),
    )
    rec = run(spec)
    assert rec.blew_up
    return rec.t_blowup - T_ODE


def test_solver_tends_to_the_ode_limit_as_R_grows():
    # dr 0.0125: 7.96e-3 at R 10 and 2.25e-3 at R 40, where the dr part
    # of the error starts to show
    err_10, err_40 = _solver_error(10.0), _solver_error(40.0)
    assert abs(err_40) < 2.5e-3
    assert abs(err_40) < abs(err_10) / 3.0
