"""One blow-up run, start to finish.

Integrates the coupled system for strongly subcritical exponents
(n = 3, p = q = 2) with large bump data, detects the sup-norm blow-up,
reports the truncation-level spill the light-cone zeroing removed, and
then extracts the functional series (streamed by the run as probe
projections, and read from the record alone, which carries its
ProblemSpec as ``rec.spec``) to check the data floors, the
nonlinearity envelopes and the undamped ODE balance U'' = int |v|^q dx.
Every check takes the record alone.

Run:  python3 demos/03_blowup_run.py
"""

import numpy as np

from coupledwave import (
    DampingSpec,
    ExponentPair,
    GridSpec,
    InitialDataFamily,
    ProblemSpec,
    run,
)
from coupledwave import functionals as fn

spec = ProblemSpec(
    n=3,
    pq=ExponentPair(2.0, 2.0),
    b1=DampingSpec.zero(),
    b2=DampingSpec.power_decay(0.5, 2.0),
    R=1.0,
    eps=1.0,
    data=InitialDataFamily(k=3, amplitudes=(4.0, 4.0, 4.0, 4.0)),
    grid=GridSpec(dr=0.02, t_max=10.0),
)

print("integrating ...")
rec = run(spec, probes=fn.probes(spec))
print(f"blew_up = {rec.blew_up}, t_blowup = {rec.t_blowup:.4f}")
print(f"samples: {len(rec.times)}, final sup norms {rec.sup_norms[-1]} "
      f"(crossed by {rec.crossed})")
print(f"cone spill (largest value zeroed beyond r = t + R): {rec.cone_spill:.1e}")

print("\nextracting functionals ...")
series = fn.extract(rec)
ints = fn.data_integrals(spec)
print(f"data integrals: I1[u0]={ints.I1_u0:.4f} I1[u1]={ints.I1_u1:.4f} "
      f"I2[v0]={ints.I2_v0:.4f}")

for check in fn.check_floor_bounds(rec):
    print(f"floor {check.bound_id.value:<8} pass={check.passed} "
          f"min_margin={check.min_margin:+.4f}")
for check in fn.check_nonlinearity_bounds(rec):
    print(f"envelope {check.bound_id.value:<7} pass={check.passed} "
          f"window={check.window}")

# ODE balance away from the start-up step and the blow-up phase
nl_q, _ = fn.nonlinearity_integrals(rec)
t, U, Up = series.times, series.U, series.Uprime
end = np.searchsorted(t, 0.7 * t[-1])
dt = t[1] - t[0]
d2U = (U[2:end] - 2 * U[1:end - 1] + U[:end - 2]) / dt**2
b1 = spec.b1.b(t[1:end - 1])
resid = np.abs(d2U + b1 * Up[1:end - 1] - nl_q[1:end - 1])
rel = resid[3:] / np.abs(nl_q[4:end - 1])
print(f"\nODE balance U'' + b1 U' = int |v|^q: max relative residual "
      f"{rel.max():.2e} on the interior window")
