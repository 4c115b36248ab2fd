"""Iteration sequences, closed forms and blow-up thresholds.

Builds the subcritical lower-bound sequences and the double-critical
slicing sequences, compares brute recursion against the closed forms,
and evaluates the explicit threshold times together with their
divergence drivers (driver > 1 certifies the lower-bound sequence
diverges at that time): each threshold is the root of the driver of
the region its constants' exponents lie in.

Run:  python3 demos/04_iteration_sequences.py
"""

import math

import numpy as np

from coupledwave import (
    IterationConstants,
    critical_sequences,
    cusp_exponents,
    divergence_driver,
    subcritical_sequences,
    threshold_time,
)

print("--- subcritical sequences at n=3, p=q=2 ---")
tv, tu = subcritical_sequences(3, (2.0, 2.0), 12)
print("j   a_j (brute)   a_j (closed)   b_j     log C_j")
for j in (0, 1, 2, 5, 12):
    print(f"{j:<3} {tv.t_power[j]:<13g} {tv.t_power_closed[j]:<14g} "
          f"{tv.weight_power[j]:<7g} {tv.coeff_log[j]:.5g}")
dev = np.max(np.abs(tv.t_power - tv.t_power_closed) / np.abs(tv.t_power_closed))
print(f"closed-form deviation over j<=12: {dev:.2e}")

print("\n--- slicing sequences at the n=3 cusp ---")
c = cusp_exponents(3)
td = critical_sequences("double", 3, (c.p_mix, c.q_mix), 10)
print("j   ell_j    g_j         h_j (= (pq)^j - 1)")
for j in (0, 1, 2, 5, 10):
    print(f"{j:<3} {td.ell[j]:<8g} {td.t_power[j]:<11.6g} {td.weight_power[j]:.6g}")

print("\n--- thresholds and divergence drivers (unit frame constants) ---")
con = IterationConstants.from_frame(3, (2.0, 2.0))
for eps in (0.8, 0.4, 0.2):
    th = threshold_time(con, eps)
    below = divergence_driver(th.family, con, eps, log_t=th.log_T - math.log(2.0))
    at = divergence_driver(th.family, con, eps, log_t=th.log_T)
    print(f"eps={eps:<4} T={th.T:.6g}  driver(T/2)={below:.4f}  driver(T)={at:.12f}")
print("halving eps multiplies T by 2^(1/max theta) = 2^6 =",
      f"{threshold_time(con, 0.2).T / threshold_time(con, 0.4).T:.10g}")

print("\n--- critical thresholds grow beyond any horizon ---")
cond = IterationConstants.from_frame(3, (c.p_mix, c.q_mix))
for eps in (0.9, 0.5):
    th = threshold_time(cond, eps)
    print(f"eps={eps}: log T = {th.log_T:.6g} (T = {th.T:.3g})")
