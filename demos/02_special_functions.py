"""Eigenfunction, damping multipliers and the kernel family.

Shows the exponential eigenfunction Phi (Lap Phi = Phi) and its
asymptotic normalisation, the multipliers m(t) = exp(-int_t^inf b) for
the three damping families, pointwise kernel values with their
quadrature self-convergence, and the empirical constants of the kernel
bounds estimated over a sample grid.

Run:  python3 demos/02_special_functions.py
"""

import numpy as np

from coupledwave import (
    DampingSpec,
    KernelConfig,
    cusp_exponents,
    eta,
    kernel_exponents,
    multiplier,
    phi,
    psi_moment,
    verify_kernel_bounds,
    xi,
)
from coupledwave.special import bracket, log_phi

print("--- eigenfunction ---")
print(f"phi(1, 0) = {phi(1, 0.0):.9g}   (= 2)")
print(f"phi(3, 0) = {phi(3, 0.0):.9g}   (= 4 pi)")
print(f"phi(3, 1) = {phi(3, 1.0):.9g}   (= 4 pi sinh(1))")
for n in (2, 3, 4):
    radii = np.linspace(0.0, 100.0, 201)
    band = np.exp(log_phi(n, radii) + 0.5 * (n - 1) * np.log(bracket(radii)) - radii)
    print(f"n={n}: phi * <r>^((n-1)/2) e^-r stays in [{band.min():.3f}, {band.max():.3f}]")

print("\n--- damping multipliers ---")
for label, b in [
    ("zero", DampingSpec.zero()),
    ("power-decay mu=1 beta=2", DampingSpec.power_decay(1.0, 2.0)),
    ("exp-decay mu=1", DampingSpec.exp_decay(1.0)),
]:
    vals = ", ".join(f"m({t:g})={multiplier(b, t):.6f}" for t in (0.0, 1.0, 10.0))
    print(f"{label:<24} {vals}")

print("\n--- kernels ---")
cfg = KernelConfig(r=0.0, R=1.0)
print(f"eta(t=0, s=0, x=0) = {eta(cfg, 3, 0, 0, 0.0):.9g}  (= 4 pi (1 - 1/e))")
cfg5 = KernelConfig(r=0.5, R=1.0)
a = eta(cfg5, 2, 5.0, 2.0, 1.0)
b = eta(KernelConfig(r=0.5, quad_nodes=128), 2, 5.0, 2.0, 1.0)
print(f"eta(r=0.5, t=5, s=2, x=1) = {a:.9g}; node doubling moves it by {abs(a - b) / b:.1e}")
print(f"xi  >= eta check: {xi(cfg5, 2, 5.0, 2.0, 1.0):.9g} >= {a:.9g}")

print("\n--- kernel bound constants (empirical minima/maxima of ratios) ---")
n = 3
c = cusp_exponents(n)
r1 = kernel_exponents(n, (c.p_mix, c.q_mix))[0]
for rep in verify_kernel_bounds(KernelConfig(r=r1, R=1.0), n, 50.0):
    print(
        f"{rep.bound_id.value:<9} min_ratio={rep.min_ratio:.4g} "
        f"max_ratio={rep.max_ratio:.4g} over {rep.samples} samples"
    )

print("\n--- weighted moment of Psi ---")
for t in (1.0, 10.0, 100.0):
    m = psi_moment(3, 2.0, t, 1.0)
    print(f"int_B(1+t) Psi^2 dx at t={t:>5}: {m:.6g} (flat in t at n=3, q'=2)")
