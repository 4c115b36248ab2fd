"""Acceptance suite: one test per claim of ``verify.CLAIMS``, each
printing a PASS line.

The registry measures every claim once per session (the ``claims``
fixture).  Each test asserts its criterion's tolerances, spelled out
here as literals, against the numbers the claim measured, so they pin
the registry's constants independently of it:
  1. cusp algebra residuals < 1e-10, exponent ordering, n = 2..10
  2. closed-form vs brute recursion 1e-12 relative, j <= 60, >= 80 tuples
  3. kernel bound ratios positive/finite and stable (< 20%) under
     t-range doubling, for (n, r) in {2,3,4} x {critical r1, r2}
  4. convergence order in [1.8, 2.2] of ``run`` at tiny eps against the
     exact n = 3 free wave; its energy drift < 5e-3 and shrinking more
     than 2.5x per dr halving undamped, non-increasing damped, where
     the energy lost to the damping balances it to 5e-3;
     light-cone spill shrinking at least 4x per dr halving (order >= 2)
  5. fundamental identity residuals < 2% on the ``identity`` verb's run
  6. functional floors and nonlinearity envelopes on damped and
     undamped runs; sign-flipped u1 fails the U2 floor
  7. six-point epsilon sweep: monotone T, negative slope with
     |slope| <= 6 * 1.4, grid-refinement change < 5% per row
  8. divergence drivers equal 1 (1e-9) at threshold times; halving law
     ratio 2^(1/max theta) exact to 1e-12
"""

import math

import pytest


def _measured(claims, name, criterion):
    """The claim's measured numbers; it must pass by the registry's rule
    too, and then prints its PASS line."""
    passed, measured, detail = claims[name]
    assert passed, detail
    print(f"PASS {criterion}: {detail}")
    return measured


def test_criterion_1_cusp_algebra(claims):
    m = _measured(claims, "cusp-algebra", "criterion-1 cusp-algebra")
    assert m["max_residual"] < 1e-10
    assert m["ordered"] is True


def test_criterion_2_closed_form_equivalence(claims):
    m = _measured(claims, "closed-forms", "criterion-2 closed-forms")
    assert m["tuples"] >= 80
    assert m["worst_deviation"] < 1e-12


def test_criterion_3_kernel_bounds(claims):
    m = _measured(claims, "kernel-bounds", "criterion-3 kernel-bounds")
    assert m["min_lower_ratio"] > 0
    assert math.isfinite(m["max_diag_ratio"])
    assert m["max_drift"] < 0.20
    assert m["band_min"] > 0
    assert m["band_ratio"] < 100.0


def test_criterion_4_solver_convergence(claims):
    m = _measured(claims, "solver-convergence", "criterion-4 solver")
    assert len(m["orders"]) == 2  # dr 0.04, 0.02, 0.01
    for order in m["orders"]:
        assert 1.8 <= order <= 2.2, m["orders"]
    assert m["drift"] < 5e-3
    assert m["drift_ratio"] > 2.5  # about fourfold per dr halving
    assert m["damped_end"] < 1.0
    assert m["damped_rise"] <= 1e-4
    assert m["damped_balance"] < 5e-3
    assert m["spill_ratio"] >= 4.0


def test_criterion_5_fundamental_identities(claims):
    m = _measured(claims, "fundamental-identity", "criterion-5 identities")
    assert m["residual_curlyU"] < 0.02
    assert m["residual_curlyV"] < 0.02


def test_criterion_6_functional_floors(claims):
    m = _measured(claims, "functional-floors", "criterion-6 floors")
    # U1/V1/U2 floors and both envelopes, undamped and damped
    assert m["checks"] == m["held"] == 10
    assert m["negative_u2_held"] is False


def test_criterion_7_lifespan_sweep(claims):
    m = _measured(claims, "lifespan-sweep", "criterion-7 lifespan-sweep")
    assert m["rows"] == m["blown_up"] == 6
    assert m["max_decrease"] <= 16.0 / 2000.0  # one output stride
    assert m["max_grid_change"] < 0.05
    assert m["exponent"] == pytest.approx(-6.0)
    assert m["slope"] < 0
    assert abs(m["slope"]) <= 6.0 * 1.4
    assert m["consistent"] is True


def test_criterion_8_threshold_consistency(claims):
    m = _measured(claims, "threshold-consistency", "criterion-8 thresholds")
    assert m["halving_error"] < 1e-12
    assert m["driver_deviation"] < 1e-9
