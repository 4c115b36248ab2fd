"""Numerical laboratory for finite-time blow-up in weakly coupled
semilinear damped wave systems with mixed nonlinearities.

Subpackages by role: :mod:`~coupledwave.exponents` (critical-curve
algebra), :mod:`~coupledwave.special` (eigenfunction, weight,
multipliers, kernels), :mod:`~coupledwave.solver` (radial
finite-difference integrator with blow-up detection),
:mod:`~coupledwave.functionals` (functional extraction and bound
checks), :mod:`~coupledwave.iteration` (lower-bound sequences and
threshold times), :mod:`~coupledwave.lifespan` (epsilon sweeps),
:mod:`~coupledwave.cli` (command-line front end).
"""

from .exponents import (
    CriticalData,
    CuspPoint,
    ExponentPair,
    LifespanPrediction,
    PredictionKind,
    Region,
    classify,
    cusp_exponents,
    cusp_residuals,
    kernel_exponents,
    lifespan_prediction,
    theta1,
    theta2,
)
from .iteration import (
    CriticalCase,
    IterationConstants,
    SequenceTable,
    ThresholdTime,
    critical_sequences,
    divergence_driver,
    subcritical_sequences,
    threshold_time,
)
from .lifespan import LifespanTable, SweepConfig, report, sweep
from .solver import (
    GridSpec,
    InitialDataFamily,
    ProblemSpec,
    SolutionRecord,
    detect_blowup,
    run,
)
from .special import (
    BoundReport,
    DampingFamily,
    DampingSpec,
    KernelConfig,
    eta,
    multiplier,
    phi,
    psi,
    psi_moment,
    surface_area,
    verify_kernel_bounds,
    xi,
)

__version__ = "0.1.0"
