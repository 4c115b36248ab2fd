"""Radially symmetric finite-difference solver for the coupled system

    u_tt - Lap(u) + b1(t) u_t = |v|^q,
    v_tt - Lap(v) + b2(t) v_t = |u_t|^p,

with compactly supported bump data u(0) = eps*A_u0*B, u_t(0) =
eps*A_u1*B, etc., damping coefficients in the scattering class, and
numerical blow-up detection by sup-norm threshold crossing.

Scheme: explicit leapfrog in time and centered second order in the
radial variable.  The damping term is discretised as b(t_n) *
(w^{n+1} - w^{n-1}) / (2 dt) and solved for w^{n+1}, which adds no
stability restriction.  The axis uses the ghost-node symmetry
w_{-1} = w_1, giving Lap(w)(0) ~ 2 n (w_1 - w_0) / dr^2.  The coupling
stays second order because u is advanced first, so |u_t|^p can be
evaluated with the centered difference (u^{n+1} - u^{n-1}) / (2 dt).

When the per-step sup-norm growth exceeds 10x in the final growth
phase, the step size is halved (a Taylor restart rebuilds the two-level
history), which resolves the last decades before threshold crossing
without implicit solves.

Finite propagation speed is enforced exactly: solutions launched from
data supported in B_R vanish for r > t + R, so every update zeroes the
profiles beyond the light cone.  This removes the small dispersive
spill of the explicit scheme ahead of the front, which sits at the
truncation-error level; each run records the largest spill it removed
as ``cone_spill``, so the cut can be checked to shrink with dr.

Because everything beyond the cone is exactly zero, each step works
only on the active window [:L] of the grid, L = k + 2 with k the first
point beyond the next level's cone (or the whole grid once the cone
reaches its end).  One stepping core, ``_Leapfrog``, does every update
with out= ufuncs in buffers allocated once per run (three rotating
time levels per field plus laplacian, forcing and velocity buffers),
in the same floating-point order as the formulas above, so the results
do not depend on the window.  ``evolve_scalar`` runs the same core on
the whole grid with no cone: its data need not be compactly supported
and its forcing is arbitrary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exponents import ExponentPair, as_pair, check_dimension
from .special import DampingSpec, surface_area

__all__ = [
    "InitialDataFamily",
    "GridSpec",
    "ProblemSpec",
    "SolutionRecord",
    "run",
    "detect_blowup",
    "evolve_scalar",
    "radial_grid",
    "radial_weights",
    "integral_probes",
    "radial_energy",
    "write_summary_csv",
    "write_blowup_json",
]

GROWTH_REFINE_FACTOR = 10.0
MAX_DT_HALVINGS = 24
# what a probe can read at a sample: the four profiles and the two
# nonlinear terms
PROBE_SOURCES = ("u", "ut", "v", "vt", "|v|^q", "|u_t|^p")
# samples projected together, in one matrix product per shared probe matrix
PROBE_BLOCK = 8
# the sup-norm columns, named for SolutionRecord.crossed
SUP_FIELDS = ("u", "u_t", "v")


@dataclass(frozen=True)
class InitialDataFamily:
    """Radial bump data A * (1 - (rho/R)^2)_+^k for the four fields.

    ``amplitudes`` is (A_u0, A_u1, A_v0, A_v1); the blow-up theorems
    require all nonnegative with A_u1 > 0 and A_v0 > 0.
    """

    k: int = 3
    amplitudes: tuple = (1.0, 1.0, 1.0, 1.0)
    shape: str = "bump"

    def __post_init__(self):
        if self.shape != "bump":
            raise ValueError(f"unknown data shape {self.shape!r}")
        if int(self.k) != self.k or self.k < 2:
            raise ValueError(f"bump smoothness k must be an integer >= 2, got {self.k}")
        if len(self.amplitudes) != 4:
            raise ValueError("amplitudes must be (A_u0, A_u1, A_v0, A_v1)")

    @property
    def a_u0(self) -> float:
        return float(self.amplitudes[0])

    @property
    def a_u1(self) -> float:
        return float(self.amplitudes[1])

    @property
    def a_v0(self) -> float:
        return float(self.amplitudes[2])

    @property
    def a_v1(self) -> float:
        return float(self.amplitudes[3])

    def hypotheses_ok(self) -> bool:
        """Nonnegative data with A_u1 > 0 and A_v0 > 0."""
        return (
            all(a >= 0 for a in self.amplitudes)
            and self.a_u1 > 0
            and self.a_v0 > 0
        )

    def profile(self, rho, R: float):
        """Unit bump (1 - (rho/R)^2)_+^k on the grid rho."""
        rho = np.asarray(rho, dtype=float)
        return np.clip(1.0 - (rho / R) ** 2, 0.0, None) ** self.k


@dataclass(frozen=True)
class GridSpec:
    """Radial grid and horizon; dt = cfl * dr.

    ``r_max`` = None resolves to R + t_max plus a small margin so that
    the domain contains the light cone.
    """

    dr: float
    t_max: float
    r_max: float | None = None
    cfl: float = 0.45
    blowup_threshold: float = 1e8

    def __post_init__(self):
        if not self.dr > 0:
            raise ValueError("dr must be positive")
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if not self.blowup_threshold > 0:
            raise ValueError("blowup_threshold must be positive")

    @property
    def dt(self) -> float:
        return self.cfl * self.dr


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem description for one solver run."""

    n: int
    pq: ExponentPair
    b1: DampingSpec
    b2: DampingSpec
    R: float
    eps: float
    data: InitialDataFamily
    grid: GridSpec
    enforce_hypotheses: bool = True

    def __post_init__(self):
        object.__setattr__(self, "n", check_dimension(self.n))
        object.__setattr__(self, "pq", as_pair(self.pq))
        if not self.R > 0:
            raise ValueError("support radius R must be positive")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.grid.dr > self.R / 20.0:
            raise ValueError(
                f"grid too coarse for the data: dr={self.grid.dr} > R/20={self.R / 20.0}"
            )
        if self.enforce_hypotheses and not self.data.hypotheses_ok():
            raise ValueError(
                "initial data violates the blow-up hypotheses "
                "(nonnegative amplitudes with A_u1 > 0 and A_v0 > 0); "
                "pass enforce_hypotheses=False for negative-control runs"
            )
        r_max = self.grid.r_max
        needed = self.R + self.grid.t_max
        if r_max is None:
            r_max = needed + 10.0 * self.grid.dr
            object.__setattr__(self, "grid", replace(self.grid, r_max=r_max))
        elif r_max < needed:
            raise ValueError(
                f"r_max={r_max} does not contain the light cone R + t_max = {needed}"
            )


@dataclass
class SolutionRecord:
    """Sampled probe projections of the radial solution plus blow-up metadata.

    The sup-norm series is kept at full step resolution for blow-up
    detection; every sample time is also a sup-norm time.
    ``projections`` maps each probe source given to ``run`` to the
    (N, K) array of its probe matrix applied to the source at the N
    sampled times (row i belongs to ``times[i]``); it is empty when the
    run had no probes.  ``kernel`` is the ``kernel`` stamp of the probes
    mapping, the (r1, r2, lambda0, quad_nodes) of ``functionals.probes``,
    and None for probes without one.
    ``crossed`` names the field whose sup norm was largest on the
    crossing row (``"u"``, ``"u_t"`` or ``"v"``), None without blow-up.
    ``steps`` counts the leapfrog levels after t = 0 (one per sup-norm
    row), ``halvings`` holds one (t, dt_new, level_norm) per dt
    halving, ``window_max`` is the largest active window L and
    ``cone_spill`` the largest |value| the cone zeroing removed.
    """

    # no profiles are stored; perfbench/tracing.py's _record_bytes reads these
    u = ut = v = vt = None

    n: int
    R: float
    eps: float
    r: np.ndarray
    times: np.ndarray
    sup_times: np.ndarray
    sup_norms: np.ndarray  # columns: max|u|, max|u_t|, max|v|
    blew_up: bool
    t_blowup: float | None
    failed: bool = False
    failure_reason: str = ""
    dt_initial: float = 0.0
    dt_final: float = 0.0
    halvings: tuple = ()
    window_max: int = 0
    cone_spill: float = 0.0
    crossed: str | None = None
    projections: dict = field(default_factory=dict)
    kernel: tuple | None = None

    @property
    def steps(self) -> int:
        return len(self.sup_times) - 1


def radial_grid(spec: ProblemSpec) -> np.ndarray:
    """Radial grid points 0, dr, ..., covering r_max."""
    grid = spec.grid
    m = int(np.floor(grid.r_max / grid.dr + 1e-9)) + 1
    return np.arange(m) * grid.dr


def radial_weights(r: np.ndarray, n: int) -> np.ndarray:
    """Trapezoid weights w with w @ f = |S^{n-1}| int f(rho) rho^(n-1) drho,
    the integral over R^n of a radial profile f sampled on the grid r."""
    dr = r[1] - r[0]
    w = r ** (n - 1) * dr
    w[0] *= 0.5
    w[-1] *= 0.5
    return surface_area(n) * w


def integral_probes(spec: ProblemSpec) -> dict:
    """Probes for ``run(spec, probes=...)`` whose one row is the radial
    weights: row 0 of each projection is the integral over R^n of its
    source (U, U', V, V', int |v|^q, int |u_t|^p).  Larger probe sets
    stack their rows under this one."""
    return dict.fromkeys(PROBE_SOURCES, radial_weights(radial_grid(spec), spec.n)[np.newaxis])


class _Field:
    """Buffers of one field: three rotating time levels, and the
    laplacian, forcing and centred velocity of the current level."""

    __slots__ = ("prev", "cur", "next", "lap", "force", "vel")

    def __init__(self, m: int):
        self.prev, self.cur, self.next = np.zeros(m), np.zeros(m), np.zeros(m)
        self.lap, self.force, self.vel = np.zeros(m), np.zeros(m), np.zeros(m)

    def rotate(self):
        self.prev, self.cur, self.next = self.cur, self.next, self.prev


class _Leapfrog:
    """The stepping core: updates on the window [:L] of a field's buffers.

    Points from ``k`` on are zeroed (the cone mask; k = L = M for no
    cone) and ``spill`` keeps the largest |value| zeroed there.  Outside
    [:L] every buffer stays zero, so the window gives the values of the
    whole-grid formulas; the grid-end conditions apply only when L = M.
    """

    def __init__(self, r: np.ndarray, dr: float, n: int):
        self.m = r.size
        self.inv_dr2 = 1.0 / (dr * dr)
        self.two_dr = 2.0 * dr
        self.axis = 2.0 * n
        self.coef = (n - 1.0) / r[1:-1]
        self.tmp = np.zeros(self.m)
        self.spill = 0.0

    def laplacian(self, w, lap, L):
        mid = lap[1 : L - 1]
        tmp = self.tmp[: L - 2]
        np.multiply(w[1 : L - 1], 2.0, out=mid)
        np.subtract(w[2:L], mid, out=mid)
        np.add(mid, w[: L - 2], out=mid)
        np.multiply(mid, self.inv_dr2, out=mid)
        np.subtract(w[2:L], w[: L - 2], out=tmp)
        np.multiply(self.coef[: L - 2], tmp, out=tmp)
        np.divide(tmp, self.two_dr, out=tmp)
        np.add(mid, tmp, out=mid)
        lap[0] = self.axis * (w[1] - w[0]) * self.inv_dr2
        if L == self.m:
            lap[-1] = 0.0

    def _close(self, out, L, k):
        for i in range(k, L):  # at most three points: scalar reads, no reduction
            self.spill = max(self.spill, abs(float(out[i])))
        out[k:] = 0.0
        if L == self.m:
            out[-1] = 0.0

    def step(self, fld: _Field, bval, dt, L, k, k_vel):
        """Laplacian of the current level, the damped leap to the next
        level (cone from k) and the centred velocity (cone from k_vel);
        ``fld.force`` must hold the forcing on [:L]."""
        self.laplacian(fld.cur, fld.lap, L)
        out = fld.next[:L]
        prev = fld.prev[:L]
        tmp = self.tmp[:L]
        np.add(fld.lap[:L], fld.force[:L], out=tmp)
        np.multiply(tmp, dt * dt, out=tmp)
        np.multiply(fld.cur[:L], 2.0, out=out)
        np.subtract(out, prev, out=out)
        np.add(out, tmp, out=out)
        half = 0.5 * bval * dt
        if half:
            np.multiply(prev, half, out=tmp)
            np.add(out, tmp, out=out)
            np.divide(out, 1.0 + half, out=out)
        self._close(out, L, k)
        vel = fld.vel[:L]
        np.subtract(out, prev, out=vel)
        np.divide(vel, 2.0 * dt, out=vel)
        vel[k_vel:] = 0.0

    def taylor(self, fld: _Field, wt, bval, dt, L, k):
        """Second-order Taylor step from (cur, wt) into ``fld.next``, with
        ``fld.lap`` and ``fld.force`` of the current level."""
        acc = fld.lap[:L] - bval * wt + fld.force[:L]
        out = fld.next[:L]
        out[:] = fld.cur[:L] + dt * wt + 0.5 * dt * dt * acc
        self._close(out, L, k)

    def start(self, fld: _Field, wt, bval, dt, L, k):
        """Level 0: Taylor step from the data (cur, wt) with the forcing in
        ``fld.force``, then rotate so that (prev, cur) = (data, level 1)."""
        self.laplacian(fld.cur, fld.lap, L)
        self.taylor(fld, wt, bval, dt, L, k)
        fld.rotate()

    def restart(self, fld: _Field, bval, dt_old, dt, L, k):
        """Replace the leap to ``fld.next`` by a Taylor step of size dt,
        from a one-sided second-order velocity that uses the equation."""
        zt = (fld.cur[:L] - fld.prev[:L]) / dt_old
        acc = fld.lap[:L] - bval * zt + fld.force[:L]
        self.taylor(fld, zt + 0.5 * dt_old * acc, bval, dt, L, k)


def detect_blowup(times, sup_norms, threshold: float):
    """First crossing of the sup-norm threshold, log-interpolated.

    ``sup_norms`` may be one series or an (N, k) array of several; the
    crossing is decided on the pointwise maximum.  Returns (flag,
    t_blowup) with t_blowup None when no crossing occurs.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(sup_norms, dtype=float)
    combined = norms if norms.ndim == 1 else norms.max(axis=1)
    if combined.size and combined[0] >= threshold:
        raise ValueError("threshold must exceed the initial sup norms")
    above = np.nonzero(combined >= threshold)[0]
    if above.size == 0:
        return False, None
    k = int(above[0])
    n0, n1 = combined[k - 1], combined[k]
    if n0 <= 0.0 or n1 <= n0:
        return True, float(times[k])
    frac = (np.log(threshold) - np.log(n0)) / (np.log(n1) - np.log(n0))
    return True, float(times[k - 1] + frac * (times[k] - times[k - 1]))


def _abs_power(w, out, e):
    """out = |w| ** e in place (through the operator, so e = 2 squares);
    returns max |w|."""
    np.abs(w, out=out)
    peak = float(out.max())
    out **= e
    return peak


class _Projector:
    """Probe projections of the samples, in blocks of PROBE_BLOCK.

    Sources whose probe matrix is one object form a group.  ``add``
    copies each source's window [:L] into its group's (PROBE_BLOCK * g,
    M) buffer, row j * g + c for source c of the block's j-th sample,
    and zeroes what a wider earlier sample left past L.  ``flush``
    projects the block with one matrix product per group, over the
    block's widest window, into ``out``: one (capacity, K) array per
    source, doubled when the samples outgrow it.
    """

    def __init__(self, probes: dict, m: int, capacity: int):
        groups = {}
        for name, mat in probes.items():
            groups.setdefault(id(mat), (mat, []))[1].append(name)
        # (matrix, PROBE_SOURCES indices of its sources, block buffer)
        self.groups = [
            (mat, [PROBE_SOURCES.index(name) for name in names], np.zeros((PROBE_BLOCK * len(names), m)))
            for mat, names in groups.values()
        ]
        self.out = {name: np.empty((capacity, mat.shape[0])) for name, mat in probes.items()}
        self.width = [0] * PROBE_BLOCK  # buffer rows of slot j are zero from width[j] on
        self.slot = 0
        self.count = 0

    def add(self, sources, L):
        """Queue one sample: ``sources`` in PROBE_SOURCES order, read on
        their window [:L] only."""
        j = self.slot
        for _mat, index, buf in self.groups:
            g = len(index)
            rows = buf[j * g : (j + 1) * g]
            for c, i in enumerate(index):
                rows[c, :L] = sources[i][:L]
            if self.width[j] > L:
                rows[:, L : self.width[j]] = 0.0
        self.width[j] = L
        self.slot += 1
        if self.slot == PROBE_BLOCK:
            self.flush()

    def flush(self):
        j = self.slot
        if not j:
            return
        start, stop = self.count, self.count + j
        for name, arr in self.out.items():
            if stop > arr.shape[0]:
                grown = np.empty((max(2 * arr.shape[0], stop), arr.shape[1]))
                grown[:start] = arr[:start]
                self.out[name] = grown
        L = max(self.width[:j])
        for mat, index, buf in self.groups:
            block = buf[: j * len(index), :L] @ mat[:, :L].T
            for c, i in enumerate(index):
                self.out[PROBE_SOURCES[i]][start:stop] = block[c :: len(index)]
        self.count = stop
        self.slot = 0

    def projections(self) -> dict:
        """The (samples, K) projection of each source, after a last flush."""
        self.flush()
        return {name: arr[: self.count] for name, arr in self.out.items()}


def run(spec: ProblemSpec, probes=None) -> SolutionRecord:
    """Integrate the coupled system until t_max or blow-up detection.

    Samples the solution every output stride (about 2000 samples per
    run), keeps the sup-norm series at every step, and flags either
    blow-up (threshold crossing, with log-interpolated crossing time) or
    numerical failure (non-finite values before the threshold).

    ``probes`` maps sources from PROBE_SOURCES (the profiles u, ut, v,
    vt and the nonlinear terms |v|^q and |u_t|^p) to (K, M) matrices
    over the radial grid.  The run records matrix @ source at each
    sample, summed over the light-cone window only (the source vanishes
    beyond it), into ``SolutionRecord.projections``: memory O(samples *
    K).  Samples are projected in blocks of PROBE_BLOCK, with one
    matrix product per block for all sources that share one matrix
    object, straight into preallocated output rows; probes never feed
    back into the scheme.  Identity matrices give back the sampled
    profiles themselves.  A ``kernel`` attribute of the mapping (as on
    ``functionals.probes``) is copied to ``SolutionRecord.kernel``.
    """
    n = spec.n
    p, q = spec.pq.p, spec.pq.q
    grid = spec.grid
    dt0 = grid.dt
    threshold = grid.blowup_threshold
    r = radial_grid(spec)
    m = r.size
    kernel = getattr(probes, "kernel", None)
    probes = {name: np.asarray(mat, dtype=float) for name, mat in (probes or {}).items()}
    for name, mat in probes.items():
        if name not in PROBE_SOURCES:
            raise ValueError(f"unknown probe source {name!r}; expected one of {PROBE_SOURCES}")
        if mat.ndim != 2 or mat.shape[1] != m:
            raise ValueError(f"probe {name!r} must be a (K, {m}) matrix, got shape {mat.shape}")
    core = _Leapfrog(r, grid.dr, n)
    u, v = _Field(m), _Field(m)

    bump = spec.data.profile(r, spec.R)
    u.cur[:] = spec.eps * spec.data.a_u0 * bump
    ut0 = spec.eps * spec.data.a_u1 * bump
    v.cur[:] = spec.eps * spec.data.a_v0 * bump
    vt0 = spec.eps * spec.data.a_v1 * bump

    init_norm = max(np.abs(u.cur).max(), np.abs(ut0).max(), np.abs(v.cur).max())
    if threshold <= init_norm:
        raise ValueError("blowup_threshold must exceed the initial sup norms")

    stride = max(1, int(np.floor(grid.t_max / (2000.0 * dt0))))

    times = []
    projector = None
    if probes:
        projector = _Projector(probes, m, math.ceil(grid.t_max / (stride * dt0)) + 2)
    sup_times, sup_rows = [], []

    def emit_sample(t, L, ut, vt):
        """Sample time t: u.cur, ut, v.cur, vt are the profiles, and
        u.force, v.force hold |v|^q, |u_t|^p on the window [:L]."""
        times.append(t)
        if projector is not None:
            projector.add((u.cur, ut, v.cur, vt, u.force, v.force), L)

    sup_times.append(0.0)
    sup_rows.append(
        (np.abs(u.cur).max(), np.abs(ut0).max(), np.abs(v.cur).max())
    )

    dt = dt0
    # overflow past the threshold is an expected terminal state
    with np.errstate(over="ignore", invalid="ignore"):
        # finite propagation speed: data in B_R implies supp w(dt) in B_{dt+R}
        k = int(r.searchsorted(dt + spec.R, side="right"))
        L = min(m, k + 2)
        _abs_power(v.cur[:L], u.force[:L], q)
        _abs_power(ut0[:L], v.force[:L], p)
        emit_sample(0.0, L, ut0, vt0)
        core.start(u, ut0[:L], spec.b1.b(0.0), dt, L, k)
        core.start(v, vt0[:L], spec.b2.b(0.0), dt, L, k)

        blew_up, t_blowup, failed, reason, dt_final, halvings, window_max = _advance(
            spec, r, core, u, v, dt, L, init_norm, stride,
            sup_times, sup_rows, emit_sample,
        )

    sup_norms = np.asarray(sup_rows)
    return SolutionRecord(
        n=n,
        R=spec.R,
        eps=spec.eps,
        r=r,
        times=np.asarray(times),
        sup_times=np.asarray(sup_times),
        sup_norms=sup_norms,
        blew_up=blew_up,
        t_blowup=t_blowup,
        failed=failed,
        failure_reason=reason,
        dt_initial=dt0,
        dt_final=dt_final,
        halvings=tuple(halvings),
        window_max=window_max,
        cone_spill=core.spill,
        crossed=SUP_FIELDS[int(sup_norms[-1].argmax())] if blew_up else None,
        projections={} if projector is None else projector.projections(),
        kernel=kernel,
    )


def _advance(spec, r, core, u, v, dt, window, init_norm, stride,
             sup_times, sup_rows, emit_sample):
    """Main leapfrog loop on the light-cone window.

    At time t the next level vanishes from k = first index with
    r > t + dt + R on, and the step works on [:L], L = min(M, k + 2).
    Returns (blew_up, t_blowup, failed, reason, final_dt, halvings,
    largest window)."""
    grid = spec.grid
    R = spec.R
    p, q = spec.pq.p, spec.pq.q
    threshold = grid.blowup_threshold
    m = r.size
    t = dt
    k_cur = int(r.searchsorted(t + R, side="right"))
    step = 1
    halvings = []
    blew_up = False
    t_blowup = None
    failed = False
    reason = ""
    while t < grid.t_max - 0.5 * dt:
        b1v = spec.b1.b(t)
        b2v = spec.b2.b(t)
        k = int(r.searchsorted(t + dt + R, side="right"))
        L = min(m, k + 2)
        window = max(window, L)
        nv = _abs_power(v.cur[:L], u.force[:L], q)
        core.step(u, b1v, dt, L, k, k_cur)
        nut = _abs_power(u.vel[:L], v.force[:L], p)
        core.step(v, b2v, dt, L, k, k_cur)
        nu = float(np.abs(u.cur[:L], out=core.tmp[:L]).max())
        # each norm on its own: max() would drop a NaN that is not first
        if not (math.isfinite(nu) and math.isfinite(nut) and math.isfinite(nv)):
            failed = True
            reason = f"non-finite values at t={t:.6g} before threshold crossing"
            break
        level_norm = max(nu, nut, nv)

        prev_norm = max(sup_rows[-1])
        sup_times.append(t)
        sup_rows.append((nu, nut, nv))

        if step % stride == 0 or level_norm >= threshold:
            emit_sample(t, L, u.vel, v.vel)

        if level_norm >= threshold:
            blew_up, t_blowup = detect_blowup(
                np.asarray(sup_times), np.asarray(sup_rows), threshold
            )
            break

        # refine dt in the final growth phase
        if (
            level_norm > GROWTH_REFINE_FACTOR * prev_norm
            and level_norm > 1e3 * max(init_norm, 1e-300)
            and len(halvings) < MAX_DT_HALVINGS
        ):
            dt_old = dt
            dt = 0.5 * dt
            halvings.append((t, dt, level_norm))
            k = int(r.searchsorted(t + dt + R, side="right"))
            core.restart(u, b1v, dt_old, dt, L, k)
            core.restart(v, b2v, dt_old, dt, L, k)

        u.rotate()
        v.rotate()
        k_cur = k
        t += dt
        step += 1
    return blew_up, t_blowup, failed, reason, dt, halvings, window


def evolve_scalar(
    n: int,
    dr: float,
    t_max: float,
    b: DampingSpec,
    w0: np.ndarray,
    w1: np.ndarray,
    r_max: float,
    cfl: float = 0.45,
    forcing=None,
    sample_stride: int = 1,
):
    """Integrate a single radial damped wave equation with given forcing.

    Used by the manufactured-solution and energy tests; returns
    (times, W, Wt, r) with profiles sampled every ``sample_stride``
    steps.  ``forcing(t, r)`` is evaluated at the current level.  The
    data need not be compactly supported, so the step covers the whole
    grid with no cone.
    """
    n = check_dimension(n)
    m = int(np.floor(r_max / dr + 1e-9)) + 1
    r = np.arange(m) * dr
    dt = cfl * dr
    wt0 = np.array(w1, dtype=float)
    if np.shape(w0) != r.shape or wt0.shape != r.shape:
        raise ValueError("initial profiles must match the radial grid")
    core = _Leapfrog(r, dr, n)
    w = _Field(m)
    w.cur[:] = w0

    def load_forcing(t):
        if forcing is not None:
            w.force[:] = forcing(t, r)

    times = [0.0]
    ws = [w.cur.copy()]
    wts = [wt0.copy()]

    load_forcing(0.0)
    core.start(w, wt0, b.b(0.0), dt, m, m)

    steps = int(round(t_max / dt))
    for k in range(1, steps + 1):
        t = k * dt
        load_forcing(t)
        core.step(w, b.b(t), dt, m, m, m)
        if k % sample_stride == 0 or k == steps:
            times.append(t)
            ws.append(w.cur.copy())
            wts.append(w.vel.copy())
        w.rotate()
    return np.asarray(times), np.vstack(ws), np.vstack(wts), r


def radial_energy(w: np.ndarray, wt: np.ndarray, r: np.ndarray, n: int) -> float:
    """Wave energy 0.5 * |S^{n-1}| * int (wt^2 + wr^2) r^(n-1) dr."""
    wr = np.gradient(w, r[1] - r[0])
    return 0.5 * float(radial_weights(r, n) @ (wt**2 + wr**2))


def write_summary_csv(record: SolutionRecord, path) -> None:
    """Per-sample summary: t, maxu, maxut, maxv, U, V, Uprime, Vprime: the
    sup-norm rows at the sample times and row 0 of the projections of a
    run whose probes start with ``integral_probes``."""
    proj = record.projections
    if not all(name in proj for name in ("u", "ut", "v", "vt")):
        raise ValueError("summary CSV needs a run with integral_probes")
    norms = record.sup_norms[record.sup_times.searchsorted(record.times)]
    U, V, Up, Vp = (proj[name][:, 0] for name in ("u", "v", "ut", "vt"))
    with open(path, "w") as fh:
        fh.write("t,maxu,maxut,maxv,U,V,Uprime,Vprime\n")
        for i, t in enumerate(record.times):
            row = (t, *norms[i], U[i], V[i], Up[i], Vp[i])
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")


def write_blowup_json(record: SolutionRecord, path) -> None:
    """Sidecar with blow-up metadata and telemetry for a run: step
    count, one [t, dt_new, level_norm] per dt halving, largest window,
    the largest value the cone zeroing removed and the field that
    crossed the threshold."""
    payload = {
        "blew_up": bool(record.blew_up),
        "t_blowup": None if record.t_blowup is None else float(record.t_blowup),
        "failed": bool(record.failed),
        "failure_reason": record.failure_reason,
        "t_end": float(record.times[-1]) if record.times.size else None,
        "dt_initial": record.dt_initial,
        "dt_final": record.dt_final,
        "steps": record.steps,
        "halvings": [list(h) for h in record.halvings],
        "window_max": record.window_max,
        "cone_spill": record.cone_spill,
        "crossed": record.crossed,
        "n": record.n,
        "R": record.R,
        "eps": record.eps,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
