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

The kernel is the paper's: exponents r1, r2 from ``kernel_exponents``,
cutoff ``special.LAMBDA0``, and quad_nodes lam-nodes.  Every series is
read from one record: ``run(spec, probes=probes(spec, quad_nodes))``
projects the profiles and the nonlinear sources |v|^q, |u_t|^p at each
sample.  Every source carries two head columns, from the radial weights
and the Phi-weighted radial weights.  u_t and v carry a third, curlyU
and curlyV, which the run contracts from their kernel lam-projections
(r1 for u_t, r2 for v) at each sample's time; |v|^q and |u_t|^p keep
the quad_nodes lam-projections of their kernel (r1 and r2), which the
identity check integrates in time.  That is 2 + 3 + 3 + 2 + 2 *
(quad_nodes + 2) columns per sample: memory grows with samples *
quad_nodes, not samples * grid points.  ``extract``,
``nonlinearity_integrals`` and every check take the record alone: they
read column slices of those projections, the problem and the kernel
exponents from ``record.spec``, and quad_nodes from the width of |v|^q.
The identity check projects the four data terms from ``record.spec``'s
data itself, on the grid points inside B_R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exponents import Region, classify, kernel_exponents
from .solver import (
    PROBE_SOURCES,
    IntegralProbes,
    ProblemSpec,
    SolutionRecord,
    integral_probes,
    radial_grid,
    radial_weights,
)
from .special import QUAD_NODES, KernelConfig, kernel_nodes, multiplier, phi, sinhc

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
    Psi-weighted ones; curlyU, curlyV the kernel-weighted ones, with the
    spec's ``kernel_exponents``.
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
    and, with ``kernel``, to have the widths of ``probes``: 2 columns on
    u and v_t, 3 on u_t and v, one width quad_nodes + 2 >= 18 on the
    sources |v|^q and |u_t|^p."""
    proj = record.projections
    if not record.integrals or not all(name in proj for name in PROBE_SOURCES):
        raise ValueError("record needs the projections of probes(spec, quad_nodes); "
                         "pass them to run(spec, probes=...)")
    widths = {name: proj[name].shape[1] for name in PROBE_SOURCES}
    if kernel and not (widths["u"] == widths["vt"] == 2 and widths["ut"] == widths["v"] == 3
                       and widths["|v|^q"] == widths["|u_t|^p"] >= 18):
        raise ValueError(f"projection widths {widths} are not those of probes(spec, quad_nodes): "
                         "2 columns on u and vt, 3 on ut and v, "
                         "one width quad_nodes + 2 >= 18 on |v|^q and |u_t|^p")
    return proj


def _kernel_nodes(spec, r, quad_nodes):
    """Nodes lam and weights wl of the kernel with exponent r."""
    return kernel_nodes(KernelConfig(r=r, R=spec.R, quad_nodes=quad_nodes))


def _kernel_basis(n, points, weights, lam):
    """The (m, P) basis Phi(lam x) * weights on the radial grid points
    ``points``.

    basis @ f is the lam-projection int f(x) Phi(lam x) dx of a radial
    profile f at every node, when ``weights`` are the grid's radial
    weights at ``points``.
    """
    return phi(n, np.multiply.outer(lam, points)) * weights


def _diag_kernel_series(times, R, lam, wl, proj):
    """int profile(t) * eta_r(t, t, .) dx for every sample, from the
    (N, m) lam-projections ``proj`` of the sampled profiles: curlyU or
    curlyV, which ``probes`` has ``run`` record block by block.

    eta on the diagonal is a pure lam-integral of exp(-lam(R+t)) *
    Phi(lam rho) lam^r, so the t-dependence reduces to per-node
    exponential factors on the lam-projections.
    """
    fac = np.multiply.outer(times + R, lam)  # (N, m), formed in place
    np.negative(fac, out=fac)
    np.exp(fac, out=fac)
    fac *= proj
    return fac @ wl


def probes(spec: ProblemSpec, quad_nodes: int = QUAD_NODES) -> IntegralProbes:
    """Probe matrices for ``run(spec, probes=...)`` whose projections
    ``extract``, ``nonlinearity_integrals`` and
    ``check_fundamental_identity`` read.

    Per source, on ``radial_grid(spec)``: row 0 is ``integral_probes``
    (U, U', V, V', int |v|^q, int |u_t|^p); row 1 is Phi * w (U1, U2,
    V1 before their e^{-t} factor, read for u, u_t and v).  u and v_t
    carry these two head rows only.  The other four sources carry
    ``quad_nodes`` more rows, a kernel basis of exponent r1 for u_t and
    |v|^q (curlyU and its source) and r2 for v and |u_t|^p (curlyV and
    its source), with (r1, r2) = ``kernel_exponents(spec.n, spec.pq)``.
    There is one basis matrix per distinct exponent, so with r1 == r2
    one matrix serves all four.  The reductions contract u_t's and v's
    kernel rows at each sample's time as they are recorded: their
    projections keep the two head columns and curlyU (resp. curlyV), 3
    columns, while |v|^q and |u_t|^p keep all quad_nodes + 2, from whose
    width the readers take quad_nodes back.  The identity check projects
    the four data terms from the spec's data.
    """
    r1, r2 = kernel_exponents(spec.n, spec.pq)
    grid = radial_grid(spec)
    w = integral_probes(spec)["u"]  # one row, the same for every source
    head = np.vstack((w, w * phi(spec.n, grid)))
    nodes = {r: _kernel_nodes(spec, r, quad_nodes) for r in {r1, r2}}
    basis = {r: np.vstack((head, _kernel_basis(spec.n, grid, w, lam))) for r, (lam, _wl) in nodes.items()}

    def curly(r):
        """A block's head columns and its kernel series at the block's times."""
        lam, wl = nodes[r]
        return lambda times, rows: np.column_stack(
            (rows[:, :2], _diag_kernel_series(times, spec.R, lam, wl, rows[:, 2:])))

    return IntegralProbes({"u": head, "ut": basis[r1], "v": basis[r2], "vt": head,
                           "|v|^q": basis[r1], "|u_t|^p": basis[r2]},
                          reductions={"ut": curly(r1), "v": curly(r2)})


def extract(record: SolutionRecord) -> FunctionalSeries:
    """All nine functional series of a run with ``probes(spec, ...)``."""
    proj = _projections(record)
    decay = np.exp(-record.times)
    return FunctionalSeries(
        times=record.times.copy(),
        U=proj["u"][:, 0],
        Uprime=proj["ut"][:, 0],
        V=proj["v"][:, 0],
        Vprime=proj["vt"][:, 0],
        U1=decay * proj["u"][:, 1],
        V1=decay * proj["v"][:, 1],
        U2=decay * proj["ut"][:, 1],
        curlyU=proj["ut"][:, 2],
        curlyV=proj["v"][:, 2],
    )


def data_integrals(spec: ProblemSpec) -> InitialDataIntegrals:
    """Quadrature of I_j[f] for the four data profiles (without eps)."""
    r = radial_grid(spec)
    w = radial_weights(r, spec.n) * phi(spec.n, r)
    bump = spec.data.profile(r, spec.R)
    base = float(bump @ w)
    m1 = float(multiplier(spec.b1, 0.0))
    m2 = float(multiplier(spec.b2, 0.0))
    a_u0, a_u1, a_v0, a_v1 = (float(a) for a in spec.data.amplitudes)
    return InitialDataIntegrals(
        I1_u0=0.5 * m1 * a_u0 * base,
        I1_u1=0.5 * m1 * a_u1 * base,
        I2_v0=0.5 * m2 * a_v0 * base,
        I2_v1=0.5 * m2 * a_v1 * base,
    )


def nonlinearity_integrals(record: SolutionRecord):
    """Series int |v|^q dx and int |u_t|^p dx on the samples of a run
    with ``probes(spec, ...)`` or ``integral_probes(spec)``: row 0 of
    the |v|^q and |u_t|^p projections."""
    proj = _projections(record, kernel=False)
    return proj["|v|^q"][:, 0], proj["|u_t|^p"][:, 0]


def _shape_check(check_id, times, observed, shape, window_mask):
    idx = np.nonzero(window_mask)[0]
    if idx.size < 2:
        raise ValueError(f"empty check window for {check_id.value}")
    i0 = idx[0]
    const = observed[i0] / shape[i0]
    margins = observed[idx] - const * shape[idx]
    min_margin = float(margins.min())
    # FLOOR_SLACK loosens the fitted (maximal) constant by a small factor
    slacked = observed[idx] - (1.0 - FLOOR_SLACK) * const * shape[idx]
    tol = 1e-12 * abs(float(observed[i0]))
    return BoundCheck(
        bound_id=check_id,
        min_margin=min_margin,
        window=(float(times[i0]), float(times[idx[-1]])),
        passed=bool(float(slacked.min()) >= -tol),
    )


def check_floor_bounds(record: SolutionRecord) -> list[BoundCheck]:
    """Verify U1 >= eps I1[u0], V1 >= eps I2[v0], U2 >= eps I1[u1] on a
    run with ``probes(spec, ...)``, with eps and the data integrals of
    ``record.spec``.

    The floors hold at every sample up to blow-up, with a small relative
    slack absorbing discretisation error.
    """
    series = extract(record)
    integrals = data_integrals(record.spec)
    eps = record.spec.eps
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
        results.append(_shape_check(cid, t, observed, shape, mask))
    return results


def require_zero_damping(spec: ProblemSpec) -> None:
    """Refuse a damped spec, for which the fundamental identities, and
    the log seeds resting on them, fail."""
    if not (spec.b1.is_zero and spec.b2.is_zero):
        raise ValueError("the fundamental identities hold for zero damping only")


def _data_terms(spec: ProblemSpec, nodes: dict, exponents):
    """The lam-projections of the data u0, u1, v0 and v1, each on the
    kernel of its entry of ``exponents``, from (eps * amplitude) *
    profile on the grid points r <= R, outside which the data vanish.
    ``nodes`` maps each exponent to its (lam, wl); one basis is built per
    distinct exponent."""
    grid = radial_grid(spec)
    k = int(grid.searchsorted(spec.R, side="right"))
    points, w = grid[:k], radial_weights(grid, spec.n)[:k]
    bump = spec.data.profile(points, spec.R)
    basis = {r: _kernel_basis(spec.n, points, w, nodes[r][0]) for r in set(exponents)}
    return tuple(basis[r] @ ((spec.eps * float(amplitude)) * bump)
                 for r, amplitude in zip(exponents, spec.data.amplitudes))


def check_fundamental_identity(record: SolutionRecord, checkpoints=None):
    """Residuals of the exact integral representations of curlyU, curlyV.

    Valid for the undamped system only.  ``record`` must come from
    ``run(spec, probes=probes(spec, quad_nodes))``: with the spec's
    ``kernel_exponents`` (r1, r2), the check reads curlyU and curlyV
    (column 2 of u_t and v) at its checkpoints and the kernel rows of
    |v|^q and |u_t|^p (the sources).  The data terms u0 (on the r1 + 2
    kernel), u1 (on the r1 kernel), v0 and v1 (on the r2 kernel) it
    projects from ``record.spec``'s data.  Both sides are evaluated at
    checkpoint times; the time integral of the nonlinear source against
    the kernels uses the trapezoid rule over the samples.  Returns the
    maximum relative residual for each identity, NaN if any residual is
    NaN.  A record of one sample, t = 0 alone, where both sides are the
    same sums, is a ValueError.
    """
    spec = record.spec
    require_zero_damping(spec)
    times = record.times
    if len(times) < 2:
        raise ValueError(
            f"the identity check needs two samples at least, but the run to "
            f"t_max={spec.grid.t_max:g} at dt={record.dt_initial:g} recorded {len(times)}"
        )
    proj = _projections(record)
    quad_nodes = proj["|v|^q"].shape[1] - 2
    r1, r2 = kernel_exponents(spec.n, spec.pq)

    if checkpoints is None:
        picks = np.unique((len(times) - 1) * np.array([0.25, 0.5, 0.75, 1.0]))
        checkpoints = [int(round(i)) for i in picks]
    else:
        checkpoints = [int(np.argmin(np.abs(times - tc))) for tc in checkpoints]

    # u0 on the r1 + 2 kernel, u1 on the r1 kernel, v0 and v1 on the r2 kernel
    exponents = (r1 + 2.0, r1, r2, r2)
    nodes = {r: _kernel_nodes(spec, r, quad_nodes) for r in set(exponents)}
    (lam1s, wl1s), (lam1, wl1), (lam2, wl2) = (nodes[r] for r in exponents[:3])
    curlyU, curlyV = proj["ut"][checkpoints, 2], proj["v"][checkpoints, 2]
    proj_u0, proj_u1, proj_v0, proj_v1 = _data_terms(spec, nodes, exponents)
    proj_vq = proj["|v|^q"][:, 2:].T  # (m, N)
    proj_utp = proj["|u_t|^p"][:, 2:].T

    res_u, res_v = [], []
    for j, ci in enumerate(checkpoints):
        tc = times[ci]
        decay1s = np.exp(-lam1s * (spec.R + tc))
        decay1 = np.exp(-lam1 * (spec.R + tc))
        decay2 = np.exp(-lam2 * (spec.R + tc))
        dt_sub = _sub_trapezoid_weights(times, ci)
        span = tc - times[: ci + 1]
        # curlyU identity
        lin1 = tc * float((wl1s * decay1s * sinhc(lam1s * tc)) @ proj_u0)
        lin2 = float((wl1 * decay1 * np.cosh(lam1 * tc)) @ proj_u1)
        # the (m, ci+1) kernel factors times the source history, formed
        # in place; curlyV's reuses curlyU's buffer for its argument
        fac = np.multiply.outer(lam1, span)
        np.cosh(fac, out=fac)
        fac *= proj_vq[:, : ci + 1]
        src = float((wl1 * decay1) @ (fac @ dt_sub))
        rhs = lin1 + lin2 + src
        res_u.append(abs(curlyU[j] - rhs) / max(abs(curlyU[j]), 1e-300))
        # curlyV identity
        lin1v = float((wl2 * decay2 * np.cosh(lam2 * tc)) @ proj_v0)
        lin2v = tc * float((wl2 * decay2 * sinhc(lam2 * tc)) @ proj_v1)
        fac = sinhc(np.multiply.outer(lam2, span, out=fac))
        fac *= span
        fac *= proj_utp[:, : ci + 1]
        srcv = float((wl2 * decay2) @ (fac @ dt_sub))
        rhsv = lin1v + lin2v + srcv
        res_v.append(abs(curlyV[j] - rhsv) / max(abs(curlyV[j]), 1e-300))
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


def check_log_seeds(record: SolutionRecord) -> list[BoundCheck]:
    """Logarithmic seed bounds for the kernel functionals on the critical
    curve, on an undamped run with ``probes(spec, ...)``.

    CurlyULog: curlyU dominates const * log(t) from t = e on (theta1
    critical and double critical); CurlyVLog: curlyV dominates const *
    log(2t/3) (theta2 critical and double critical).  Constants are
    fitted at the window start.
    """
    spec = record.spec
    require_zero_damping(spec)
    region = classify(spec.n, spec.pq).region
    if region not in (
        Region.CRITICAL_THETA1,
        Region.CRITICAL_THETA2,
        Region.DOUBLE_CRITICAL,
    ):
        raise ValueError(f"log seed bounds need a critical spec, got {region.value}")
    series = extract(record)
    t = series.times
    mask = t >= math.e
    checks = []
    if region in (Region.CRITICAL_THETA1, Region.DOUBLE_CRITICAL):
        shape = np.where(t > 1.0, np.log(np.maximum(t, 1.0)), np.nan)
        checks.append(_shape_check(CheckId.CURLY_U_LOG, t, series.curlyU, shape, mask))
    if region in (Region.CRITICAL_THETA2, Region.DOUBLE_CRITICAL):
        arg = 2.0 * t / 3.0
        shape = np.where(arg > 1.0, np.log(np.maximum(arg, 1.0)), np.nan)
        checks.append(_shape_check(CheckId.CURLY_V_LOG, t, series.curlyV, shape, mask))
    return checks
