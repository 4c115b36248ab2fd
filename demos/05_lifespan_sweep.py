"""Empirical lifespan scaling against the predicted power law.

Sweeps the data amplitude eps over a decreasing ladder at n = 3,
p = q = 2 (max theta = 1/6, predicted T <= C eps^-6), with a
grid-refinement repeat per row, then fits log T against log eps.  The
theorem is a one-sided bound with an unknown constant: the check
asserts the sign and a magnitude band, not the exact exponent.

Run:  python3 demos/05_lifespan_sweep.py  (about a second)
"""

import os
import tempfile

from coupledwave import (
    DampingSpec,
    ExponentPair,
    GridSpec,
    InitialDataFamily,
    ProblemSpec,
    SweepConfig,
    report,
    sweep,
)

base = ProblemSpec(
    n=3,
    pq=ExponentPair(2.0, 2.0),
    b1=DampingSpec.zero(),
    b2=DampingSpec.zero(),
    R=1.0,
    eps=1.0,
    data=InitialDataFamily(k=3, amplitudes=(4.0, 4.0, 4.0, 4.0)),
    grid=GridSpec(dr=0.02, t_max=16.0),
)
cfg = SweepConfig(base=base, eps_values=(1.6, 1.4, 1.2, 1.0, 0.9, 0.8), repeats=2)

print("sweeping ...")
table = sweep(cfg)
print(f"{'eps':>5} {'T_numeric':>12} {'grid change':>12} {'prediction shape':>17}")
for row in table.rows:
    print(f"{row.eps:>5} {row.T_numeric:>12.5f} {row.grid_change:>11.2%} "
          f"{row.T_predicted_shape:>17.5g}")

print(f"\n{len(table.tasks)} batches on {table.workers} worker process(es):")
for task in table.tasks:
    print(f"  repeat {task['repeat']}, {len(task['eps'])} eps: {task['wall_s']:.2f} s")

fit = table.fit
print(f"\nregion: {table.region}; predicted exponent {table.prediction.exponent:+.1f}")
print(f"fitted slope {fit.slope:+.3f} (ci half-width {fit.ci_halfwidth:.3f}), "
      f"consistent with the one-sided bound: {fit.consistent}")
print(f"caveat: {table.caveat}")

dest = os.path.join(tempfile.gettempdir(), "coupledwave_sweep")
csv_path, json_path = report(table, dest)
print(f"\nwrote {csv_path} and {json_path}")
