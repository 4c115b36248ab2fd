import dataclasses
import math

import numpy as np
import pytest

from coupledwave.exponents import (
    CriticalData,
    ExponentPair,
    PredictionKind,
    Region,
    check_dimension,
    classify,
    cusp_exponents,
    cusp_residuals,
    kernel_exponents,
    lifespan_prediction,
    theta1,
    theta1_critical_q,
    theta2,
    theta2_critical_p,
)
from coupledwave.special import phi


def test_exponent_pair_rejects_at_construction():
    with pytest.raises(ValueError):
        ExponentPair(1.0, 2.0)
    with pytest.raises(ValueError):
        ExponentPair(2.0, 0.5)


@pytest.mark.parametrize(
    "p, q", [(math.inf, 2.0), (2.0, math.inf), (-math.inf, 2.0), (math.nan, 2.0), (2.0, math.nan)]
)
def test_exponent_pair_rejects_non_finite(p, q):
    with pytest.raises(ValueError, match="exponents must be finite") as exc:
        ExponentPair(p, q)
    assert f"p={p}" in str(exc.value) and f"q={q}" in str(exc.value)


def test_dimension_validation():
    with pytest.raises(ValueError):
        theta1(0, (2, 2))
    with pytest.raises(ValueError):
        theta1(2.5, (2, 2))
    with pytest.raises(ValueError):
        cusp_exponents(1)


@pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("reader", ["check_dimension", "theta1", "classify", "phi", "ProblemSpec"])
def test_non_finite_dimension_is_a_value_error(standard_spec, reader, n):
    calls = {
        "check_dimension": lambda: check_dimension(n),
        "theta1": lambda: theta1(n, (2, 2)),
        "classify": lambda: classify(n, (2, 2)),
        "phi": lambda: phi(n, 1.0),
        "ProblemSpec": lambda: dataclasses.replace(standard_spec, n=n),
    }
    with pytest.raises(ValueError, match="dimension must be an integer"):
        calls[reader]()


def test_kernel_exponents():
    # (n-1)/2 - 1/p and (n-1)/2 - 1/q, bitwise, for an integer n too
    c = cusp_exponents(3)
    assert kernel_exponents(3, (c.p_mix, c.q_mix)) == (1.0 - 1.0 / c.p_mix, 1.0 - 1.0 / c.q_mix)
    assert kernel_exponents(2, (2, 4)) == (0.0, 0.25)
    with pytest.raises(ValueError):
        kernel_exponents(math.inf, (2, 2))
    # the exchange identities at each cusp, where both equalities hold
    for n in range(2, 11):
        c = cusp_exponents(n)
        r1, r2 = kernel_exponents(n, (c.p_mix, c.q_mix))
        assert r1 == pytest.approx(n - 1 - 0.5 * (n - 1) * c.q_mix, abs=1e-12), n
        assert r2 == pytest.approx(n - 0.5 * (n - 1) * c.p_mix, abs=1e-12), n


def test_theta_values_n3():
    assert theta1(3, (2, 2)) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert theta2(3, (2, 2)) == pytest.approx(-1.0 / 6.0, abs=1e-12)
    assert theta2(2, (2, 2)) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_theta1_positive_for_n1():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = float(rng.uniform(1.01, 6.0))
        q = float(rng.uniform(1.01, 6.0))
        assert theta1(1, (p, q)) > 0


def test_thetas_vanish_at_cusp():
    for n in range(2, 11):
        c = cusp_exponents(n)
        pair = ExponentPair(c.p_mix, c.q_mix)
        assert abs(theta1(n, pair)) < 1e-12
        assert abs(theta2(n, pair)) < 1e-12


def test_theta_decreasing_in_n():
    for p, q in [(2.0, 2.0), (1.5, 3.0), (2.5, 1.3)]:
        t1 = [theta1(n, (p, q)) for n in range(1, 8)]
        t2 = [theta2(n, (p, q)) for n in range(1, 8)]
        assert all(a > b for a, b in zip(t1, t1[1:]))
        assert all(a > b for a, b in zip(t2, t2[1:]))


def test_classify_regions():
    data = classify(3, (2, 2))
    assert isinstance(data, CriticalData)
    assert data.region is Region.SUBCRITICAL
    c = cusp_exponents(3)
    assert classify(3, (c.p_mix, c.q_mix)).region is Region.DOUBLE_CRITICAL
    sup = classify(3, (4, 4))
    assert sup.region is Region.SUPERCRITICAL
    assert sup.theta1 == pytest.approx(-0.65, abs=1e-12)
    assert sup.theta2 == pytest.approx(-0.85, abs=1e-12)


def test_classify_single_critical_cases():
    q = theta1_critical_q(3, 2.0)
    assert classify(3, (2.0, q)).region is Region.CRITICAL_THETA1
    p = theta2_critical_p(3, 1.2)
    assert classify(3, (p, 1.2)).region is Region.CRITICAL_THETA2


def test_classify_tolerance_symmetry():
    c = cusp_exponents(3)
    # perturbing exact-critical inputs by less than half the 1e-9
    # equality tolerance keeps the critical label
    for dp in (-4e-10, 0.0, 4e-10):
        region = classify(3, (c.p_mix + dp, c.q_mix)).region
        assert region is Region.DOUBLE_CRITICAL


def test_cusp_closed_forms_n3():
    c = cusp_exponents(3)
    assert c.q_mix == pytest.approx((1 + math.sqrt(3)) / 2, abs=1e-14)
    assert c.p_mix == pytest.approx((4 + math.sqrt(48)) / 4, abs=1e-14)
    assert c.p_glassey == pytest.approx(2.0, abs=0)
    assert c.p_strauss == pytest.approx(1 + math.sqrt(2), abs=1e-14)


def test_cusp_residuals_small():
    for n in (2, 3, 10):
        cubic, t1, t2 = cusp_residuals(n)
        assert abs(cubic) < 1e-12
        assert abs(t1) < 1e-12
        assert abs(t2) < 1e-12


def test_cusp_n2_values():
    c = cusp_exponents(2)
    assert c.q_mix == pytest.approx(0.5 * (1 + math.sqrt(11.0 / 3.0)), abs=1e-14)
    assert c.p_mix == pytest.approx((3 + math.sqrt(33.0)) / 2, abs=1e-14)


def test_exponent_ordering_up_to_n50():
    for n in range(2, 51):
        c = cusp_exponents(n)
        assert c.q_mix < c.p_glassey < c.p_strauss < c.p_mix
        assert c.ordered


def test_ordered_fails_on_a_swapped_pair():
    c = cusp_exponents(3)
    assert not dataclasses.replace(c, p_glassey=c.p_strauss, p_strauss=c.p_glassey).ordered
    assert not dataclasses.replace(c, q_mix=c.p_mix).ordered


def test_qmix_below_golden_ratio():
    golden = (1 + math.sqrt(5.0)) / 2
    for n in range(2, 200):
        assert cusp_exponents(n).q_mix < golden


def test_lifespan_predictions():
    pred = lifespan_prediction(3, (2, 2))
    assert pred.kind is PredictionKind.POWER_LAW
    assert pred.exponent == pytest.approx(-6.0, abs=1e-10)

    c = cusp_exponents(3)
    pred = lifespan_prediction(3, (c.p_mix, c.q_mix))
    assert pred.kind is PredictionKind.EXP_DOUBLE
    x = c.p_mix * c.q_mix
    assert pred.exponent == pytest.approx(-c.q_mix * (x - 1) / (c.q_mix + 1), rel=1e-12)

    pred = lifespan_prediction(3, (4, 4))
    assert pred.kind is PredictionKind.NONE
    assert math.isnan(pred.exponent)

    q = theta1_critical_q(3, 2.0)
    pred = lifespan_prediction(3, (2.0, q))
    assert pred.kind is PredictionKind.EXP_THETA1
    assert pred.exponent == pytest.approx(-2.0 * (2.0 * q - 1), rel=1e-12)


def test_critical_curve_parametrisations():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        # q > 1 on the theta1 curve needs p below 1 + 4/(n-1)
        lo = max(1.05, 2.0 / (n - 1) + 0.05)
        hi = 1.0 + 4.0 / (n - 1) - 0.1
        p = float(rng.uniform(lo, hi))
        q = theta1_critical_q(n, p)
        assert q > 1.0
        assert abs(theta1(n, (p, q))) < 1e-12
        qq = float(rng.uniform(1.05, 1.0 + 2.0 / n))
        pp = theta2_critical_p(n, qq)
        assert abs(theta2(n, (pp, qq))) < 1e-12
