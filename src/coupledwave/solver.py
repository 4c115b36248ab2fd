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
with out= ufuncs, in the same floating-point order as the formulas
above, on contiguous (field, row, point) buffers: three rotating time
levels plus laplacian, forcing and velocity buffers, u and v stacked,
cut to a width just above the window and widened as the cone grows.
So the results do not depend on the window, the width or the rows
stacked together.  ``run_batch`` advances runs that differ only in eps
as rows of one leapfrog, and ``run`` is its one-row case.  A row leaves
its batch by one rule, when it blows up, fails or halves dt, and a row
that halves dt always goes on in a new batch of its own at half the
step (with any row that halves at the same step).  Each row's record
carries the ProblemSpec it solved, so the functional readers take the
record alone.  ``evolve_scalar`` runs the same core on the whole grid
with no cone: its data need not be compactly supported and its forcing
is arbitrary.
"""

from __future__ import annotations

import copy
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
    "run_batch",
    "detect_blowup",
    "evolve_scalar",
    "radial_grid",
    "radial_weights",
    "IntegralProbes",
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

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 2:
            raise ValueError(f"bump smoothness k must be an integer >= 2, got {self.k}")
        if len(self.amplitudes) != 4:
            raise ValueError("amplitudes must be (A_u0, A_u1, A_v0, A_v1)")
        if not all(math.isfinite(a) for a in self.amplitudes):
            raise ValueError(f"amplitudes must be finite, got {self.amplitudes}")

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
        if not 0 < self.dr < math.inf:
            raise ValueError(f"dr must be positive and finite, got {self.dr}")
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.r_max is not None and not math.isfinite(self.r_max):
            raise ValueError(f"r_max must be finite, got {self.r_max}")
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
        if not 0 < self.R < math.inf:
            raise ValueError(f"support radius R must be positive and finite, got {self.R}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
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

    ``spec`` is the ProblemSpec the run solved (a batched row's own eps
    included), ``dt_initial`` its ``grid.dt`` and ``r`` its radial grid.
    The sup-norm series is kept at full step resolution for blow-up
    detection; every sample time is also a sup-norm time.
    ``projections`` maps each probe source given to ``run`` to the
    (N, K) array of its probe matrix applied to the source at the N
    sampled times (row i belongs to ``times[i]``); it is empty when the
    run had no probes.  ``kernel`` is the ``kernel`` stamp of the probes
    mapping, the (r1, r2, lambda0, quad_nodes) of ``functionals.probes``,
    and None for probes without one; ``integrals`` is True when the
    probes were an ``IntegralProbes`` mapping, whose row 0 is the radial
    weights on every source.
    ``crossed`` names the field whose sup norm was largest on the
    crossing row (``"u"``, ``"u_t"`` or ``"v"``), None without blow-up.
    ``steps`` counts the leapfrog levels after t = 0 (one per sup-norm
    row), ``halvings`` holds one (t, dt_new, level_norm) per dt
    halving, ``window_max`` is the largest active window L and
    ``cone_spill`` the largest |value| the cone zeroing removed.
    """

    # no profiles are stored; perfbench/tracing.py's _record_bytes reads these
    u = ut = v = vt = None

    spec: ProblemSpec
    r: np.ndarray
    times: np.ndarray
    sup_times: np.ndarray
    sup_norms: np.ndarray  # columns: max|u|, max|u_t|, max|v|
    blew_up: bool
    t_blowup: float | None
    failed: bool = False
    failure_reason: str = ""
    dt_final: float = 0.0
    halvings: tuple = ()
    window_max: int = 0
    cone_spill: float = 0.0
    crossed: str | None = None
    projections: dict = field(default_factory=dict)
    kernel: tuple | None = None
    integrals: bool = False

    @property
    def dt_initial(self) -> float:
        return self.spec.grid.dt

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
    with np.errstate(over="ignore"):
        w = r ** (n - 1) * dr
    if not np.isfinite(w[-1]):
        raise ValueError(f"dimension {n} too large: r^{n - 1} overflows a double at r = {r[-1]:g}")
    w[0] *= 0.5
    w[-1] *= 0.5
    return surface_area(n) * w


class IntegralProbes(dict):
    """A probe mapping whose row 0 on every source is the radial
    weights; ``run`` records ``integrals`` and the ``kernel`` stamp of
    the rows stacked under it."""

    integrals = True
    kernel = None


def integral_probes(spec: ProblemSpec) -> IntegralProbes:
    """Probes for ``run(spec, probes=...)`` whose one row is the radial
    weights: row 0 of each projection is the integral over R^n of its
    source (U, U', V, V', int |v|^q, int |u_t|^p).  Larger probe sets
    stack their rows under this one."""
    return IntegralProbes.fromkeys(PROBE_SOURCES, radial_weights(radial_grid(spec), spec.n)[np.newaxis])


# the stepping core's buffers, in the order of its block
_BUFFERS = ("prev", "cur", "next", "lap", "force", "vel", "tmp")


def _width(L: int, m: int) -> int:
    """Buffer width for a window of L points: room to grow by an eighth
    before the next resize."""
    return min(m, L + L // 8 + 32)


class _Leapfrog:
    """The stepping core, on (field, row, point) buffers.

    prev, cur and next (three rotating time levels), lap, force and vel
    (the laplacian, forcing and centred velocity of the current level)
    and tmp are contiguous (fields, rows, W) arrays, W at least the
    active window L, so each update is one call on whole buffers (numpy
    takes about twice as long per call on a strided [..., :L] view of
    fixed (fields, rows, M) buffers, which made the eps-ladder sweep
    about 30 % slower end to end than this resize on growth).  Past
    the window every input is zero, hence every output too, and the
    window holds the values of the whole-grid formulas; the grid-end
    conditions apply only once L = M.  Points from ``k`` on lie beyond
    the cone (k = L = M for no cone): ``close`` zeroes them, and
    ``spill`` keeps the largest |value| zeroed per field, row and point
    past k.  Every update is elementwise along the rows, so no row
    depends on the rows stacked with it.
    """

    def __init__(self, r: np.ndarray, dr: float, n: int, fields: int, rows: int, width: int):
        self.m = r.size
        self.inv_dr2 = 1.0 / (dr * dr)
        self.two_dr = 2.0 * dr
        self.axis = 2.0 * n
        # (n - 1) / r at each point; the axis takes its own formula
        self.radial = np.zeros(self.m)
        self.radial[1:] = (n - 1.0) / r[1:]
        # the cut [k:L] spans at most three points: L <= k + 2, and a dt
        # halving moves k back by at most one
        self.spill = np.zeros((fields, rows, 3))
        self._bind(np.zeros((len(_BUFFERS), fields, rows, width)))

    def _bind(self, block):
        for name, buf in zip(_BUFFERS, block):
            setattr(self, name, buf)
        fields, rows, width = block.shape[1:]
        self.width = width
        self.coef = np.tile(self.radial[:width], fields * rows)[1:-1]

    def rotate(self):
        self.prev, self.cur, self.next = self.cur, self.next, self.prev

    def resize(self, rows, width):
        """Keep only ``rows``, in that order, in buffers ``width`` wide."""
        old = [getattr(self, name) for name in _BUFFERS]
        block = np.zeros((len(_BUFFERS), old[0].shape[0], len(rows), width))
        for buf, src in zip(block, old):
            buf[..., : src.shape[-1]] = src[:, rows]
        self.spill = self.spill[:, rows]
        self._bind(block)

    def split(self, rows) -> _Leapfrog:
        """A core holding copies of ``rows``."""
        new = copy.copy(self)
        new.resize(rows, self.width)
        return new

    def laplacian(self):
        """lap = Lap(cur), every field and row.  The stencil runs over the
        flattened buffers, where each row's two end points read the
        neighbouring rows: the axis then takes its own formula, and the
        last point the zero past the window (or the grid end's)."""
        w = self.cur.reshape(-1)
        mid = self.lap.reshape(-1)[1:-1]
        tmp = self.tmp.reshape(-1)[:-2]
        right, left = w[2:], w[:-2]
        np.multiply(w[1:-1], 2.0, out=mid)
        np.subtract(right, mid, out=mid)
        np.add(mid, left, out=mid)
        np.multiply(mid, self.inv_dr2, out=mid)
        np.subtract(right, left, out=tmp)
        np.multiply(self.coef, tmp, out=tmp)
        np.divide(tmp, self.two_dr, out=tmp)
        np.add(mid, tmp, out=mid)
        axis = self.lap[..., 0]
        np.subtract(self.cur[..., 1], self.cur[..., 0], out=axis)
        np.multiply(axis, self.axis, out=axis)
        np.multiply(axis, self.inv_dr2, out=axis)
        self.lap[..., -1] = 0.0

    def free(self):
        """next = 2 cur - prev, every field: the leap before its forcing
        and damping."""
        np.multiply(self.cur, 2.0, out=self.next)
        np.subtract(self.next, self.prev, out=self.next)

    def _grid_end(self, out, L, k):
        # a grid end inside [k:L] is zeroed (and its spill kept) by close
        if L == self.m and k >= self.m:
            out[..., -1] = 0.0

    def leap(self, f, bval, dt, L, k):
        """Field f's damped leap to ``next`` after ``free``, from ``lap``
        and ``force``; the cone cut waits for ``close``."""
        out, prev, tmp = self.next[f], self.prev[f], self.tmp[f]
        np.add(self.lap[f], self.force[f], out=tmp)
        np.multiply(tmp, dt * dt, out=tmp)
        np.add(out, tmp, out=out)
        half = 0.5 * bval * dt
        if half:
            np.multiply(prev, half, out=tmp)
            np.add(out, tmp, out=out)
            np.divide(out, 1.0 + half, out=out)
        self._grid_end(out, L, k)

    def velocity(self, f, dt, k_vel):
        """Field f's centred velocity (next - prev) / (2 dt), zero from
        k_vel on; k_vel <= k, so what ``close`` cuts later never shows."""
        vel = self.vel[f]
        np.subtract(self.next[f], self.prev[f], out=vel)
        np.divide(vel, 2.0 * dt, out=vel)
        vel[:, k_vel:] = 0.0

    def close(self, L, k):
        """The cone cut: zero ``next`` on [k:L], every field, keeping the
        largest |value| removed in ``spill``."""
        if k < L:
            cut = self.next[..., k:L]
            kept = self.spill[..., : L - k]
            np.fmax(kept, np.abs(cut), out=kept)
            cut[...] = 0.0

    def taylor(self, f, wt, bval, dt, L, k):
        """Second-order Taylor step of field f from (cur, wt) into
        ``next``, with ``lap`` and ``force`` of the current level."""
        acc = self.lap[f] - bval * wt + self.force[f]
        out = self.next[f]
        out[:] = self.cur[f] + dt * wt + 0.5 * dt * dt * acc
        self._grid_end(out, L, k)

    def restart(self, f, bval, dt_old, dt, L, k):
        """Replace field f's leap to ``next`` by a Taylor step of size dt,
        from a one-sided second-order velocity that uses the equation."""
        zt = (self.cur[f] - self.prev[f]) / dt_old
        acc = self.lap[f] - bval * zt + self.force[f]
        self.taylor(f, zt + 0.5 * dt_old * acc, bval, dt, L, k)


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
    ``functionals.probes``) is copied to ``SolutionRecord.kernel``, and
    an ``integrals`` one (``integral_probes``) to ``SolutionRecord.integrals``.

    This is ``run_batch`` with one row.
    """
    return run_batch([spec], probes)[0]


def run_batch(specs, probes=None) -> list:
    """Integrate runs that differ only in eps as one batch of rows.

    Returns one record per spec, in order, each equal to ``run`` of
    that spec with these ``probes``.  The rows advance together, through
    one leapfrog on (field, row, point) buffers, until a row blows up,
    fails or halves dt: it then leaves the batch.  A halving row, the
    lone row of ``run`` too, always goes on in a new batch of its own at
    half the step, with any row that halves at the same step.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("run_batch needs at least one spec")
    if any(replace(other, eps=specs[0].eps) != specs[0] for other in specs[1:]):
        raise ValueError("batched runs must differ only in eps")
    records = [None] * len(specs)
    # overflow past the threshold is an expected terminal state
    with np.errstate(over="ignore", invalid="ignore"):
        _Batch(specs, probes).advance(records)
    return records


@dataclass(slots=True)
class _Row:
    """One run's state in a batch: its index in the batch's specs, the
    floor and last level of its sup norms (for the halving rule), its dt
    halvings and its probe projector (None without probes)."""

    id: int
    floor: float
    level: float
    halvings: list
    projector: _Projector | None


class _Batch:
    """Rows that step together: runs that share the grid, dt, the
    damping, the cone window and the sample stride, and differ only in
    eps.  Core row i is ``rows[i]``; its sup norms are ``sup[i, :s]``
    at ``sup_times[:s]``.  ``times`` holds the shared sample times.
    """

    def __init__(self, specs, probes):
        """The rows at t = dt, after the t = 0 sample and the Taylor start."""
        spec = specs[0]
        p, q = spec.pq.p, spec.pq.q
        grid = spec.grid
        dt = grid.dt
        r = radial_grid(spec)
        m = r.size
        self.stamps = getattr(probes, "kernel", None), getattr(probes, "integrals", False)
        probes = {name: np.asarray(mat, dtype=float) for name, mat in (probes or {}).items()}
        for name, mat in probes.items():
            if name not in PROBE_SOURCES:
                raise ValueError(f"unknown probe source {name!r}; expected one of {PROBE_SOURCES}")
            if mat.ndim != 2 or mat.shape[1] != m:
                raise ValueError(f"probe {name!r} must be a (K, {m}) matrix, got shape {mat.shape}")
        # finite propagation speed: data in B_R implies supp w(dt) in B_{dt+R}
        k = int(r.searchsorted(dt + spec.R, side="right"))
        L = min(m, k + 2)
        self.core = core = _Leapfrog(r, grid.dr, spec.n, 2, len(specs), _width(L, m))

        # the data: u, v in cur and u_t, v_t in vel, one row per eps
        eps = np.array([other.eps for other in specs])[:, np.newaxis]
        bump = spec.data.profile(r[: core.width], spec.R)
        core.cur[0] = eps * spec.data.a_u0 * bump
        core.vel[0] = eps * spec.data.a_u1 * bump
        core.cur[1] = eps * spec.data.a_v0 * bump
        core.vel[1] = eps * spec.data.a_v1 * bump
        init = np.stack([np.abs(w).max(axis=-1) for w in (core.cur[0], core.vel[0], core.cur[1])], axis=-1)
        levels = init.max(axis=1).tolist()
        if not all(grid.blowup_threshold > level for level in levels):  # a NaN fails too
            raise ValueError("blowup_threshold must exceed the initial sup norms")

        self.specs, self.spec, self.r = specs, spec, r
        self.stride = max(1, int(np.floor(grid.t_max / (2000.0 * dt))))
        samples = math.ceil(grid.t_max / (self.stride * dt)) + 2
        self.rows = [
            _Row(i, 1e3 * max(level, 1e-300), level, [], _Projector(probes, m, samples) if probes else None)
            for i, level in enumerate(levels)
        ]
        capacity = math.ceil(grid.t_max / dt) + 2  # steps until t_max, and row 0
        self.sup = np.empty((len(specs), capacity, 3))
        self.sup[:, 0] = init
        self.sup_times = np.empty(capacity)
        self.sup_times[0] = 0.0
        self.s = 1
        self.times = [0.0]
        self.t, self.dt, self.step, self.k_cur, self.window = 0.0, dt, 0, k, L

        u_force, v_force = core.force
        np.abs(core.cur[1], out=u_force)
        u_force **= q
        np.abs(core.vel[0], out=v_force)
        v_force **= p
        for i in range(len(specs)):
            self.project(i, L)
        core.laplacian()
        core.taylor(0, core.vel[0], spec.b1.b(0.0), dt, L, k)
        core.taylor(1, core.vel[1], spec.b2.b(0.0), dt, L, k)
        core.close(L, k)
        self.next_level(k)

    def advance(self, records):
        """Step until every row has blown up, failed, halved dt or reached
        t_max; finished rows go to ``records``.  A row that halves dt
        leaves for a batch of its own, advanced to its end first.

        At time t the next level vanishes from k = first index with
        r > t + dt + R on, and the step works on [:L], L = min(M, k + 2).
        u is leapt before |u_t|^p is formed for v's leap.
        """
        spec, r, core = self.spec, self.r, self.core
        grid = spec.grid
        p, q = spec.pq.p, spec.pq.q
        threshold = grid.blowup_threshold
        m = r.size
        while self.rows and self.t < grid.t_max - 0.5 * self.dt:
            t, dt, nb = self.t, self.dt, len(self.rows)
            b1v = spec.b1.b(t)
            b2v = spec.b2.b(t)
            k = int(r.searchsorted(t + dt + spec.R, side="right"))
            L = min(m, k + 2)
            self.window = max(self.window, L)
            if L > core.width:
                core.resize(range(nb), _width(L, m))
            s = self.s
            norms = self.sup[:nb, s]  # max |u|, max |u_t|, max |v| per row
            u_force, v_force = core.force
            np.abs(core.cur[1], out=u_force)
            np.maximum.reduce(u_force, axis=1, out=norms[:, 2])
            u_force **= q
            core.laplacian()
            core.free()
            core.leap(0, b1v, dt, L, k)
            core.velocity(0, dt, self.k_cur)
            np.abs(core.vel[0], out=v_force)
            np.maximum.reduce(v_force, axis=1, out=norms[:, 1])
            v_force **= p
            core.leap(1, b2v, dt, L, k)
            core.velocity(1, dt, self.k_cur)
            core.close(L, k)
            u_abs = core.tmp[0]
            np.abs(core.cur[0], out=u_abs)
            np.maximum.reduce(u_abs, axis=1, out=norms[:, 0])
            self.sup_times[s] = t
            self.s = s + 1

            # a non-finite level passes neither comparison, so it is flagged
            flagged = []
            for i, (row, level) in enumerate(zip(self.rows, np.maximum.reduce(norms, axis=1).tolist())):
                if not level < threshold or (
                    level > GROWTH_REFINE_FACTOR * row.level
                    and level > row.floor
                    and len(row.halvings) < MAX_DT_HALVINGS
                ):
                    flagged.append(i)
                row.level = level
            sampled = self.step % self.stride == 0
            if flagged:
                self._settle(records, flagged, sampled, L, b1v, b2v)
            elif sampled:
                self._sample(range(nb), L)
            self.next_level(k)
        for i in range(len(self.rows)):
            self._finish(records, i, self.s, self.times)

    def _settle(self, records, flagged, sampled, L, b1v, b2v):
        """Take the flagged rows out of the batch: finish those that failed
        or crossed the threshold, and advance the others, which halve dt,
        as a batch of their own."""
        s, t, norms = self.s - 1, self.t, self.sup[:, self.s - 1]
        threshold = self.spec.grid.blowup_threshold
        failed = [i for i in flagged if not np.isfinite(norms[i]).all()]
        for i in failed:  # finished before this step's sample, without its sup row
            reason = f"non-finite values at t={t:.6g} before threshold crossing"
            self._finish(records, i, s, self.times, failed=True, reason=reason)
        if sampled:
            self._sample([i for i in range(len(self.rows)) if i not in failed], L)
        crossed = [i for i in flagged if i not in failed and self.rows[i].level >= threshold]
        for i in crossed:
            if not sampled:
                self.project(i, L)
            _, t_blowup = detect_blowup(self.sup_times[: s + 1], self.sup[i, : s + 1], threshold)
            times = self.times if sampled else [*self.times, t]
            self._finish(records, i, s + 1, times, t_blowup=t_blowup)
        halving = [i for i in flagged if i not in failed and i not in crossed]
        if halving:
            self._halved(halving, L, b1v, b2v).advance(records)
        self._drop(flagged)

    def _sample(self, rows, L):
        """Sample ``rows`` at the current level (t > 0)."""
        self.times.append(self.t)
        for i in rows:
            self.project(i, L)

    def project(self, i, L):
        """Queue a sample of row i."""
        projector = self.rows[i].projector
        if projector is not None:
            core = self.core
            projector.add(
                (core.cur[0, i], core.vel[0, i], core.cur[1, i], core.vel[1, i], core.force[0, i], core.force[1, i]),
                L,
            )

    def _halved(self, rows, L, b1v, b2v):
        """A batch of ``rows`` at half the step: copies of their core and
        sup history, in buffers sized for the steps left, whose next level
        is a Taylor step of the new size from the current one."""
        new = copy.copy(self)
        new.core = core = self.core.split(rows)
        new.rows = [self.rows[i] for i in rows]
        new.times = list(self.times)
        dt_old, s = self.dt, self.s
        new.dt = dt = 0.5 * dt_old
        # at most ceil((t_max - t) / dt) + 1 steps are left
        size = s + math.ceil((self.spec.grid.t_max - self.t) / dt) + 2
        new.sup, new.sup_times = np.empty((len(rows), size, 3)), np.empty(size)
        new.sup[:, :s] = self.sup[rows, :s]
        new.sup_times[:s] = self.sup_times[:s]
        for row in new.rows:
            row.halvings.append((self.t, dt, row.level))
        k = int(self.r.searchsorted(self.t + dt + self.spec.R, side="right"))
        core.restart(0, b1v, dt_old, dt, L, k)
        core.restart(1, b2v, dt_old, dt, L, k)
        core.close(L, k)
        new.next_level(k)
        return new

    def next_level(self, k):
        self.core.rotate()
        self.k_cur = k
        self.t += self.dt
        self.step += 1

    def _drop(self, rows):
        """Remove ``rows`` and compact the buffers."""
        keep = [i for i in range(len(self.rows)) if i not in rows]
        if keep:
            self.core.resize(keep, self.core.width)
            self.sup[: len(keep), : self.s] = self.sup[keep, : self.s]
        self.rows = [self.rows[i] for i in keep]

    def _finish(self, records, i, s, times, t_blowup=None, failed=False, reason=""):
        """Record row i with its first s sup rows."""
        row = self.rows[i]
        sup_norms = self.sup[i, :s].copy()
        blew_up = t_blowup is not None
        kernel, integrals = self.stamps
        records[row.id] = SolutionRecord(
            spec=self.specs[row.id],
            r=self.r,
            times=np.asarray(times),
            sup_times=self.sup_times[:s].copy(),
            sup_norms=sup_norms,
            blew_up=blew_up,
            t_blowup=t_blowup,
            failed=failed,
            failure_reason=reason,
            dt_final=self.dt,
            halvings=tuple(row.halvings),
            window_max=self.window,
            cone_spill=float(self.core.spill[:, i].max()),
            crossed=SUP_FIELDS[int(sup_norms[-1].argmax())] if blew_up else None,
            projections={} if row.projector is None else row.projector.projections(),
            kernel=kernel,
            integrals=integrals,
        )


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
    core = _Leapfrog(r, dr, n, 1, 1, m)
    core.cur[0, 0] = w0
    force = core.force[0, 0]

    def load_forcing(t):
        if forcing is not None:
            force[:] = forcing(t, r)

    times = [0.0]
    ws = [core.cur[0, 0].copy()]
    wts = [wt0.copy()]

    load_forcing(0.0)
    core.laplacian()
    core.taylor(0, wt0, b.b(0.0), dt, m, m)
    core.rotate()

    steps = int(round(t_max / dt))
    for k in range(1, steps + 1):
        t = k * dt
        load_forcing(t)
        core.laplacian()
        core.free()
        core.leap(0, b.b(t), dt, m, m)
        core.velocity(0, dt, m)
        if k % sample_stride == 0 or k == steps:
            times.append(t)
            ws.append(core.cur[0, 0].copy())
            wts.append(core.vel[0, 0].copy())
        core.rotate()
    return np.asarray(times), np.vstack(ws), np.vstack(wts), r


def radial_energy(w: np.ndarray, wt: np.ndarray, r: np.ndarray, n: int) -> float:
    """Wave energy 0.5 * |S^{n-1}| * int (wt^2 + wr^2) r^(n-1) dr."""
    wr = np.gradient(w, r[1] - r[0])
    return 0.5 * float(radial_weights(r, n) @ (wt**2 + wr**2))


def write_summary_csv(record: SolutionRecord, path) -> None:
    """Per-sample summary: t, maxu, maxut, maxv, U, V, Uprime, Vprime: the
    sup-norm rows at the sample times and row 0 of the projections of a
    run whose probes start with ``integral_probes`` (``record.integrals``)."""
    if not record.integrals:
        raise ValueError("summary CSV needs a run whose probes start with integral_probes")
    proj = record.projections
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
        "n": record.spec.n,
        "R": record.spec.R,
        "eps": record.spec.eps,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
