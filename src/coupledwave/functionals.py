"""Functional extraction and bound verification for solver records.

From the probe projections of a radial run this module computes the
spatial averages U = int u dx and V = int v dx with their time
derivatives, the weighted averages U1 = int u Psi dx, V1 = int v Psi dx,
U2 = int u_t Psi dx, and the kernel-weighted functionals

    curlyU(t) = int u_t(t, x) eta_{r1}(t, t, x) dx,
    curlyV(t) = int v(t, x)  eta_{r2}(t, t, x) dx,

then verifies numerically the statements the blow-up proofs rest on:
the data floors U1 >= eps*I1[u0], V1 >= eps*I2[v0], U2 >= eps*I1[u1],
the power-envelope lower bounds for int |v|^q dx and int |u_t|^p dx,
the exact integral representations of curlyU/curlyV in the undamped
case, and the logarithmic seed bounds on the critical curve.

All spatial quadrature is trapezoidal on the solver grid, matching the
scheme's order.  Bound checks fit the (unknown) constants at the window
start and test the claimed shape, not absolute constants.

Every series is read from one record: ``run(spec, probes=probes(spec,
r1, r2, lambda0, quad_nodes))`` projects the profiles and the nonlinear
sources |v|^q, |u_t|^p at each sample onto the radial weights, the
Phi-weighted radial weights and the kernel lam-bases, so memory grows
with samples * quad_nodes, not samples * grid points.  ``extract``,
``nonlinearity_integrals``, ``check_nonlinearity_bounds`` and
``check_fundamental_identity`` take the record alone: they read row
slices of those projections, the problem from ``record.spec`` and the
kernel rows with the (r1, r2, lambda0, quad_nodes) the record carries
as ``record.kernel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exponents import Region, classify
from .solver import (
    PROBE_SOURCES,
    IntegralProbes,
    ProblemSpec,
    SolutionRecord,
    integral_probes,
    radial_grid,
    radial_weights,
)
from .special import KernelConfig, kernel_nodes, multiplier, phi, sinhc

__all__ = [
    "FunctionalSeries",
    "InitialDataIntegrals",
    "CheckId",
    "BoundCheck",
    "extract",
    "data_integrals",
    "nonlinearity_integrals",
    "check_floor_bounds",
    "check_nonlinearity_bounds",
    "check_fundamental_identity",
    "require_zero_damping",
    "probes",
    "check_log_seeds",
    "IDENTITY_TOL",
]

FLOOR_SLACK = 0.02
# largest relative residual accepted for the fundamental identities
IDENTITY_TOL = 0.02


@dataclass
class FunctionalSeries:
    """Sampled functional values over a run.

    U, Uprime, V, Vprime are plain spatial integrals; U1, V1, U2 the
    Psi-weighted ones; curlyU, curlyV the kernel-weighted ones with the
    kernel exponents (r1, r2) recorded.
    """

    times: np.ndarray
    U: np.ndarray
    Uprime: np.ndarray
    V: np.ndarray
    Vprime: np.ndarray
    U1: np.ndarray
    V1: np.ndarray
    U2: np.ndarray
    curlyU: np.ndarray
    curlyV: np.ndarray
    r1: float
    r2: float


@dataclass(frozen=True)
class InitialDataIntegrals:
    """Data integrals I_j[f] = (m_j(0)/2) int f Phi dx (eps excluded)."""

    I1_u0: float
    I1_u1: float
    I2_v0: float
    I2_v1: float


class CheckId(Enum):
    U1_FLOOR = "U1Floor"
    V1_FLOOR = "V1Floor"
    U2_FLOOR = "U2Floor"
    NONLIN_Q = "NonlinQ"
    NONLIN_P = "NonlinP"
    CURLY_U_LOG = "CurlyULog"
    CURLY_V_LOG = "CurlyVLog"


@dataclass(frozen=True)
class BoundCheck:
    """Result of one lower-bound shape check.

    min_margin is the minimum over the window of (observed value -
    claimed shape x fitted constant); the check passes when it is
    nonnegative up to the stated numerical slack.
    """

    bound_id: CheckId
    min_margin: float
    window: tuple
    passed: bool


def _projections(record: SolutionRecord, kernel: bool = True) -> dict:
    """``record.projections``, checked to start with the rows of
    ``integral_probes`` on every source (as ``probes(spec, ...)`` do)
    and, with ``kernel``, to carry the ``kernel`` stamp of ``probes``."""
    proj = record.projections
    if (not record.integrals or not all(name in proj for name in PROBE_SOURCES)
            or (kernel and record.kernel is None)):
        raise ValueError(
            "record needs the projections of probes(spec, r1, r2, lambda0, quad_nodes); "
            "pass them to run(spec, probes=...)"
        )
    return proj


class _KernelProbes(IntegralProbes):
    """The probe mapping of ``probes``, stamped with ``kernel`` = (r1, r2,
    lambda0, quad_nodes); ``run`` copies the stamp to the record."""

    def __init__(self, mats: dict, kernel: tuple):
        super().__init__(mats)
        self.kernel = kernel


def _kernel_nodes(spec, r, lambda0, quad_nodes):
    """Nodes lam and weights wl of the kernel with exponent r."""
    return kernel_nodes(KernelConfig(r=r, lambda0=lambda0, R=spec.R, quad_nodes=quad_nodes))


def _kernel_basis(n, grid, lam):
    """The (m, M) basis Phi(lam x) * w on the radial grid.

    basis @ f is the lam-projection int f(x) Phi(lam x) dx of a radial
    profile f at every node; w are the grid's radial weights.
    """
    return phi(n, np.multiply.outer(lam, grid)) * radial_weights(grid, n)


def _diag_kernel_series(times, R, lam, wl, proj):
    """int profile(t) * eta_r(t, t, .) dx for every sample, from the
    (N, m) lam-projections ``proj`` of the sampled profiles.

    eta on the diagonal is a pure lam-integral of exp(-lam(R+t)) *
    Phi(lam rho) lam^r, so the t-dependence reduces to per-node
    exponential factors on the lam-projections.
    """
    decay = np.exp(-np.multiply.outer(times + R, lam))  # (N, m)
    return (proj * decay) @ wl


def probes(spec: ProblemSpec, r1: float, r2: float,
           lambda0: float = 1.0, quad_nodes: int = 64) -> dict:
    """Probe matrices for ``run(spec, probes=...)`` whose projections
    ``extract``, ``nonlinearity_integrals`` and
    ``check_fundamental_identity`` read.

    Per source, on ``radial_grid(spec)``: row 0 is ``integral_probes``
    (U, U', V, V', int |v|^q, int |u_t|^p); row 1 is Phi * w (U1, U2,
    V1 before their e^{-t} factor, read for u, u_t and v); the other
    ``quad_nodes`` rows are a kernel basis, exponent r1 + 2 for u (the
    u0 term), r1 for u_t and |v|^q (curlyU and its source), r2 for v,
    v_t and |u_t|^p (curlyV, its data and its source).  Sources with
    one basis share one matrix, which keeps the probes as small as the
    three bases.  The mapping carries ``kernel`` = (r1, r2, lambda0,
    quad_nodes), which the run records and the readers use.
    """
    grid = radial_grid(spec)
    w = integral_probes(spec)["u"]  # one row, the same for every source
    head = np.vstack((w, w * phi(spec.n, grid)))
    basis1s, basis1, basis2 = (
        np.vstack((head, _kernel_basis(spec.n, grid, _kernel_nodes(spec, r, lambda0, quad_nodes)[0])))
        for r in (r1 + 2.0, r1, r2)
    )
    return _KernelProbes({"u": basis1s, "ut": basis1, "v": basis2, "vt": basis2,
                          "|v|^q": basis1, "|u_t|^p": basis2},
                         (float(r1), float(r2), float(lambda0), int(quad_nodes)))


def extract(record: SolutionRecord) -> FunctionalSeries:
    """All nine functional series of a run with ``probes(spec, r1, r2,
    lambda0, quad_nodes)``, whose kernel the record carries."""
    spec = record.spec
    proj = _projections(record)
    r1, r2, lambda0, quad_nodes = record.kernel
    decay = np.exp(-record.times)

    def curly(r, name):
        lam, wl = _kernel_nodes(spec, r, lambda0, quad_nodes)
        return _diag_kernel_series(record.times, spec.R, lam, wl, proj[name][:, 2:])

    return FunctionalSeries(
        times=record.times.copy(),
        U=proj["u"][:, 0],
        Uprime=proj["ut"][:, 0],
        V=proj["v"][:, 0],
        Vprime=proj["vt"][:, 0],
        U1=decay * proj["u"][:, 1],
        V1=decay * proj["v"][:, 1],
        U2=decay * proj["ut"][:, 1],
        curlyU=curly(r1, "ut"),
        curlyV=curly(r2, "v"),
        r1=r1,
        r2=r2,
    )


def data_integrals(spec: ProblemSpec) -> InitialDataIntegrals:
    """Quadrature of I_j[f] for the four data profiles (without eps)."""
    r = radial_grid(spec)
    w = radial_weights(r, spec.n) * phi(spec.n, r)
    bump = spec.data.profile(r, spec.R)
    base = float(bump @ w)
    m1 = float(multiplier(spec.b1, 0.0))
    m2 = float(multiplier(spec.b2, 0.0))
    return InitialDataIntegrals(
        I1_u0=0.5 * m1 * spec.data.a_u0 * base,
        I1_u1=0.5 * m1 * spec.data.a_u1 * base,
        I2_v0=0.5 * m2 * spec.data.a_v0 * base,
        I2_v1=0.5 * m2 * spec.data.a_v1 * base,
    )


def nonlinearity_integrals(record: SolutionRecord):
    """Series int |v|^q dx and int |u_t|^p dx on the samples of a run
    with ``probes(spec, ...)`` or ``integral_probes(spec)``: row 0 of
    the |v|^q and |u_t|^p projections."""
    proj = _projections(record, kernel=False)
    return proj["|v|^q"][:, 0], proj["|u_t|^p"][:, 0]


def _shape_check(check_id, times, observed, shape, window_mask, rel_slack):
    idx = np.nonzero(window_mask)[0]
    if idx.size < 2:
        raise ValueError(f"empty check window for {check_id.value}")
    i0 = idx[0]
    const = observed[i0] / shape[i0]
    margins = observed[idx] - const * shape[idx]
    min_margin = float(margins.min())
    # rel_slack loosens the fitted (maximal) constant by a small factor
    slacked = observed[idx] - (1.0 - rel_slack) * const * shape[idx]
    tol = 1e-12 * abs(float(observed[i0]))
    return BoundCheck(
        bound_id=check_id,
        min_margin=min_margin,
        window=(float(times[i0]), float(times[idx[-1]])),
        passed=bool(float(slacked.min()) >= -tol),
    )


def check_floor_bounds(series: FunctionalSeries, integrals: InitialDataIntegrals,
                       eps: float) -> list[BoundCheck]:
    """Verify U1 >= eps I1[u0], V1 >= eps I2[v0], U2 >= eps I1[u1].

    The floors hold at every sample up to blow-up, with a small relative
    slack absorbing discretisation error.
    """
    results = []
    floors = [
        (CheckId.U1_FLOOR, series.U1, eps * integrals.I1_u0),
        (CheckId.V1_FLOOR, series.V1, eps * integrals.I2_v0),
        (CheckId.U2_FLOOR, series.U2, eps * integrals.I1_u1),
    ]
    window = (float(series.times[0]), float(series.times[-1]))
    for cid, observed, floor in floors:
        margins = observed - floor
        min_margin = float(margins.min())
        tol = FLOOR_SLACK * abs(floor) + 1e-15
        results.append(
            BoundCheck(
                bound_id=cid,
                min_margin=min_margin,
                window=window,
                passed=bool(min_margin >= -tol),
            )
        )
    return results


def check_nonlinearity_bounds(record: SolutionRecord) -> list[BoundCheck]:
    """Power-envelope checks for the nonlinearity integrals.

    Fits the constant at the window start (t = 1) and verifies
    that (1+t)^(n-1-(n-1)q/2) (resp. with p) remains a valid lower
    envelope up to the end of the record.
    """
    nl_q, nl_p = nonlinearity_integrals(record)
    n, pq = record.spec.n, record.spec.pq
    t = record.times
    mask = t >= 1.0
    results = []
    for cid, observed, expo in (
        (CheckId.NONLIN_Q, nl_q, pq.q),
        (CheckId.NONLIN_P, nl_p, pq.p),
    ):
        shape = (1.0 + t) ** (n - 1.0 - 0.5 * (n - 1.0) * expo)
        results.append(_shape_check(cid, t, observed, shape, mask, FLOOR_SLACK))
    return results


def require_zero_damping(spec: ProblemSpec) -> None:
    """Refuse a damped spec, for which the fundamental identities fail."""
    if not (spec.b1.is_zero and spec.b2.is_zero):
        raise ValueError("the fundamental identities hold for zero damping only")


def check_fundamental_identity(record: SolutionRecord, checkpoints=None):
    """Residuals of the exact integral representations of curlyU, curlyV.

    Valid for the undamped system only.  ``record`` must come from
    ``run(spec, probes=probes(spec, r1, r2, lambda0, quad_nodes))``:
    the check reads the kernel rows of its projections, with the kernel
    the record carries.  Both sides are evaluated at checkpoint times;
    the time integral of the nonlinear source against the kernels uses
    the trapezoid rule over the samples.  Returns the maximum relative
    residual for each identity, NaN if any residual is NaN.
    """
    spec = record.spec
    require_zero_damping(spec)
    proj = {name: rows[:, 2:] for name, rows in _projections(record).items()}
    r1, r2, lambda0, quad_nodes = record.kernel

    times = record.times
    if checkpoints is None:
        picks = np.unique((len(times) - 1) * np.array([0.25, 0.5, 0.75, 1.0]))
        checkpoints = [int(round(i)) for i in picks]
    else:
        checkpoints = [int(np.argmin(np.abs(times - tc))) for tc in checkpoints]

    (lam1s, wl1s), (lam1, wl1), (lam2, wl2) = (
        _kernel_nodes(spec, r, lambda0, quad_nodes) for r in (r1 + 2.0, r1, r2))
    curlyU = _diag_kernel_series(times, spec.R, lam1, wl1, proj["ut"])
    curlyV = _diag_kernel_series(times, spec.R, lam2, wl2, proj["v"])
    # the data are the sources at sample 0
    proj_u0, proj_u1 = proj["u"][0], proj["ut"][0]
    proj_v0, proj_v1 = proj["v"][0], proj["vt"][0]
    proj_vq = proj["|v|^q"].T  # (m, N)
    proj_utp = proj["|u_t|^p"].T

    res_u, res_v = [], []
    for ci in checkpoints:
        tc = times[ci]
        decay1s = np.exp(-lam1s * (spec.R + tc))
        decay1 = np.exp(-lam1 * (spec.R + tc))
        decay2 = np.exp(-lam2 * (spec.R + tc))
        dt_sub = _sub_trapezoid_weights(times, ci)
        span = tc - times[: ci + 1]
        # curlyU identity
        lin1 = tc * float((wl1s * decay1s * sinhc(lam1s * tc)) @ proj_u0)
        lin2 = float((wl1 * decay1 * np.cosh(lam1 * tc)) @ proj_u1)
        hist = proj_vq[:, : ci + 1]  # (m, ci+1)
        cosh_fac = np.cosh(np.multiply.outer(lam1, span))
        src = float((wl1 * decay1) @ ((hist * cosh_fac) @ dt_sub))
        rhs = lin1 + lin2 + src
        res_u.append(abs(curlyU[ci] - rhs) / max(abs(curlyU[ci]), 1e-300))
        # curlyV identity
        lin1v = float((wl2 * decay2 * np.cosh(lam2 * tc)) @ proj_v0)
        lin2v = tc * float((wl2 * decay2 * sinhc(lam2 * tc)) @ proj_v1)
        histv = proj_utp[:, : ci + 1]
        sinh_fac = span * sinhc(np.multiply.outer(lam2, span))
        srcv = float((wl2 * decay2) @ ((histv * sinh_fac) @ dt_sub))
        rhsv = lin1v + lin2v + srcv
        res_v.append(abs(curlyV[ci] - rhsv) / max(abs(curlyV[ci]), 1e-300))
    # np.max, unlike max, keeps a NaN residual, which then fails every check
    return float(np.max(res_u)), float(np.max(res_v))


def _sub_trapezoid_weights(times, ci):
    """Trapezoid weights for integrating over samples 0..ci."""
    sub = np.zeros(ci + 1)
    if ci == 0:
        return sub
    sub[1:-1] = 0.5 * (times[2 : ci + 1] - times[: ci - 1])
    sub[0] = 0.5 * (times[1] - times[0])
    sub[-1] = 0.5 * (times[ci] - times[ci - 1])
    return sub


def check_log_seeds(series: FunctionalSeries, spec: ProblemSpec) -> list[BoundCheck]:
    """Logarithmic seed bounds for the kernel functionals on the critical curve.

    CurlyULog: curlyU dominates const * log(t) from t = e on (theta1
    critical and double critical); CurlyVLog: curlyV dominates const *
    log(2t/3) (theta2 critical and double critical).  Constants are
    fitted at the window start.
    """
    if not (spec.b1.is_zero and spec.b2.is_zero):
        raise ValueError("log seed bounds are formulated for zero damping")
    region = classify(spec.n, spec.pq).region
    if region not in (
        Region.CRITICAL_THETA1,
        Region.CRITICAL_THETA2,
        Region.DOUBLE_CRITICAL,
    ):
        raise ValueError(f"log seed bounds need a critical spec, got {region.value}")
    t = series.times
    checks = []
    if region in (Region.CRITICAL_THETA1, Region.DOUBLE_CRITICAL):
        mask = t >= math.e
        shape = np.where(t > 1.0, np.log(np.maximum(t, 1.0)), np.nan)
        checks.append(_shape_check(CheckId.CURLY_U_LOG, t, series.curlyU, shape, mask, FLOOR_SLACK))
    if region in (Region.CRITICAL_THETA2, Region.DOUBLE_CRITICAL):
        mask = t >= math.e
        arg = 2.0 * t / 3.0
        shape = np.where(arg > 1.0, np.log(np.maximum(arg, 1.0)), np.nan)
        checks.append(_shape_check(CheckId.CURLY_V_LOG, t, series.curlyV, shape, mask, FLOOR_SLACK))
    return checks
