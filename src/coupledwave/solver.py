"""Radially symmetric finite-difference solver for the coupled system

    u_tt - Lap(u) + b1(t) u_t = |v|^q,
    v_tt - Lap(v) + b2(t) v_t = |u_t|^p,

with compactly supported bump data u(0) = eps*A_u0*B, u_t(0) =
eps*A_u1*B, etc., damping coefficients in the scattering class, and
numerical blow-up detection by sup-norm threshold crossing.

Scheme: explicit leapfrog in time, and in the radial variable the
centered stencil Lap(w)_j ~ cl w_{j-1} + cr w_{j+1} - 2 w_j / dr^2 with
cl, cr = 1/dr^2 -+ (n-1) / (2 r_j dr); the axis uses the ghost-node
symmetry w_{-1} = w_1, giving Lap(w)(0) ~ 2 n (w_1 - w_0) / dr^2.  The
damping term b(t_n) (w^{n+1} - w^{n-1}) / (2 dt) is solved for w^{n+1},
which adds no stability restriction.  u is advanced first, so |u_t|^p
takes the centered u_t = (u^{n+1} - u^{n-1}) / (2 dt) and the coupling
stays second order.

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
point beyond the next level's cone (the grid ends 10 dr past the cone
at t_max).  One object, ``_Batch``, owns the buffers and does every
update with out= ufuncs, in one fixed floating-point order per formula,
on contiguous (field, row, point) buffers: three rotating time levels
plus laplacian, forcing and velocity buffers, u and v stacked, cut to
a width just above the window and widened as the cone grows.  So the
results do not depend on the window, the width or the rows stacked
together.  Everything a level touches (views of the buffers, the
laplacian, the scratch of the cone cut) is bound once per buffer
block, not once per call; the cone index moves on by a comparison or
two per level, and the cut forms no temporary.  u_t is formed at every
level, for |u_t|^p and the sup norms; v_t only for a sample whose
probes read it.  ``run_batch`` advances runs that differ only in eps as rows of one
batch, and ``run`` is its one-row case.  Each step puts each row into
one class, once: failed, crossed, halving or on.  Halving rows go on
together in a new batch at half the step, which runs once they have
left, so a batch they empty holds no buffers meanwhile.  Each row's
record carries the ProblemSpec it solved, so the functional readers
take the record alone.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
    "radial_grid",
    "radial_weights",
    "IntegralProbes",
    "integral_probes",
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

    def hypotheses_ok(self) -> bool:
        """Nonnegative data with A_u1 > 0 and A_v0 > 0."""
        _, a_u1, a_v0, _ = (float(a) for a in self.amplitudes)
        return all(a >= 0 for a in self.amplitudes) and a_u1 > 0 and a_v0 > 0

    def profile(self, rho, R: float):
        """Unit bump (1 - (rho/R)^2)_+^k on the grid rho."""
        rho = np.asarray(rho, dtype=float)
        return np.clip(1.0 - (rho / R) ** 2, 0.0, None) ** self.k


@dataclass(frozen=True)
class GridSpec:
    """Radial grid and horizon; dt = cfl * dr.  The grid's end follows
    from the problem's R (``radial_grid``)."""

    dr: float
    t_max: float
    cfl: float = 0.45
    blowup_threshold: float = 1e8

    def __post_init__(self):
        if not 0 < self.dr < math.inf:
            raise ValueError(f"dr must be positive and finite, got {self.dr}")
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if not self.blowup_threshold > 0:
            raise ValueError("blowup_threshold must be positive")

    @property
    def dt(self) -> float:
        return self.cfl * self.dr


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem description for one solver run.  Data that violate
    the blow-up hypotheses are accepted (negative controls); a config
    document with such data is refused by ``configio``."""

    n: int
    pq: ExponentPair
    b1: DampingSpec
    b2: DampingSpec
    R: float
    eps: float
    data: InitialDataFamily
    grid: GridSpec

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


@dataclass
class SolutionRecord:
    """Sampled probe projections of the radial solution plus blow-up metadata.

    ``spec`` is the ProblemSpec the run solved (a batched row's own eps
    included).  The sup-norm series is kept at full step resolution for
    blow-up detection; every sample time is also a sup-norm time.
    ``projections`` maps each probe source given to ``run`` to the
    (N, K) array of its probe matrix applied to the source at the N
    sampled times (row i belongs to ``times[i]``), or to the columns
    its reduction keeps of them; it is empty when the run had no probes.
    ``integrals`` is True when the probes were an ``IntegralProbes``
    mapping, whose row 0 is the radial weights on every source.
    ``t_blowup`` is the log-interpolated crossing time, None without
    blow-up, and ``failure_reason`` is empty unless the run failed.
    ``halvings`` holds one (t, dt_new, level_norm) per dt halving,
    ``window_max`` is the largest active window L and ``cone_spill``
    the largest |value| the cone zeroing removed.

    The rest is derived from these, as properties: ``r`` (the radial
    grid, ``radial_grid(spec)``), ``dt_initial`` (``spec.grid.dt``),
    ``blew_up`` (a crossing time), ``failed`` (a failure reason),
    ``crossed`` (the field whose sup norm was largest on the last,
    crossing row: ``"u"``, ``"u_t"`` or ``"v"``, None without blow-up),
    ``dt_final`` (the last halving's dt, else ``dt_initial``), ``steps``
    (the leapfrog levels after t = 0, one per sup-norm row) and
    ``t_end`` (the last sample time).
    """

    # no profiles are stored; perfbench/tracing.py's _record_bytes reads these
    u = ut = v = vt = None

    spec: ProblemSpec
    times: np.ndarray
    sup_times: np.ndarray
    sup_norms: np.ndarray  # columns: max|u|, max|u_t|, max|v|
    t_blowup: float | None
    failure_reason: str = ""
    halvings: tuple = ()
    window_max: int = 0
    cone_spill: float = 0.0
    projections: dict = field(default_factory=dict)
    integrals: bool = False

    @property
    def blew_up(self) -> bool:
        return self.t_blowup is not None

    @property
    def failed(self) -> bool:
        return bool(self.failure_reason)

    @property
    def crossed(self) -> str | None:
        return SUP_FIELDS[int(self.sup_norms[-1].argmax())] if self.blew_up else None

    @property
    def r(self) -> np.ndarray:
        return radial_grid(self.spec)

    @property
    def dt_initial(self) -> float:
        return self.spec.grid.dt

    @property
    def dt_final(self) -> float:
        return self.halvings[-1][1] if self.halvings else self.dt_initial

    @property
    def steps(self) -> int:
        return len(self.sup_times) - 1

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


def radial_grid(spec: ProblemSpec) -> np.ndarray:
    """Radial grid points 0, dr, ..., covering R + t_max + 10 dr: the
    light cone at t_max and a margin that the cone keeps at zero."""
    grid = spec.grid
    r_max = spec.R + grid.t_max + 10.0 * grid.dr
    m = int(np.floor(r_max / grid.dr + 1e-9)) + 1
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
    weights; ``run`` records ``integrals``.  ``reductions`` maps sources
    to functions f(times, rows): ``run`` records f's columns of each
    block of that source's (samples, K) projections, at the block's
    sample times, in place of the projections."""

    integrals = True

    def __init__(self, mats=(), reductions=None):
        super().__init__(mats)
        self.reductions = dict(reductions or {})


def integral_probes(spec: ProblemSpec) -> IntegralProbes:
    """Probes for ``run(spec, probes=...)`` whose one row is the radial
    weights: row 0 of each projection is the integral over R^n of its
    source (U, U', V, V', int |v|^q, int |u_t|^p).  Larger probe sets
    stack their rows under this one."""
    return IntegralProbes.fromkeys(PROBE_SOURCES, radial_weights(radial_grid(spec), spec.n)[np.newaxis])


# a batch's buffers, in the order of its block
_BUFFERS = ("prev", "cur", "next", "lap", "force", "vel", "tmp")


def _width(L: int, m: int) -> int:
    """Buffer width for a window of L points: room to grow by an eighth
    before the next resize."""
    return min(m, L + L // 8 + 32)


class _Level(NamedTuple):
    """The views of one time-level buffer w that a level reads or writes:
    w itself, its fields (u, v), the flattened stencil slices w[:-2],
    w[1:-1] and w[2:], and its first two columns."""

    whole: np.ndarray
    fields: tuple
    left: np.ndarray
    mid: np.ndarray
    right: np.ndarray
    col0: np.ndarray
    col1: np.ndarray

    @classmethod
    def of(cls, buf):
        flat = buf.reshape(-1)
        return cls(buf, tuple(buf), flat[:-2], flat[1:-1], flat[2:], buf[..., 0], buf[..., 1])


def _stencil(cl, cr, centre, axis, mid, tmp, col0, end):
    """The laplacian of one buffer block, as a function of a ``_Level``
    w: lap = cl * left + cr * right + centre * mid, every field and row,
    over the flattened buffers, into ``mid`` (lap's flattened [1:-1],
    ``tmp`` being tmp's [:-2]).  Each row's two end points read the
    neighbouring rows, so the axis ``col0`` (lap[..., 0]) takes its own
    formula, axis * (w_1 - w_0), and the last point ``end`` the zero past
    the window."""
    multiply, add, subtract = np.multiply, np.add, np.subtract  # bound once, as locals

    def laplacian(w):
        multiply(cl, w.left, out=mid)
        multiply(cr, w.right, out=tmp)
        add(mid, tmp, out=mid)
        multiply(w.mid, centre, out=tmp)
        add(mid, tmp, out=mid)
        subtract(w.col1, w.col0, out=col0)
        multiply(col0, axis, out=col0)
        end.fill(0.0)

    return laplacian


def _cut(cut, kept, mag):
    """The cone cut: zero ``cut``, keeping in ``kept`` the largest |value|
    removed at each point; ``mag`` is scratch of their shape."""
    np.abs(cut, out=mag)
    np.fmax(kept, mag, out=kept)
    cut.fill(0.0)


def detect_blowup(times, sup_norms, threshold: float):
    """First crossing of the sup-norm threshold, log-interpolated.

    ``sup_norms`` may be one series or an (N, k) array of several; the
    crossing is decided on the pointwise maximum.  Returns the crossing
    time, None when no crossing occurs (a record's ``blew_up`` is
    derived from it).
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(sup_norms, dtype=float)
    combined = norms if norms.ndim == 1 else norms.max(axis=1)
    if combined.size and combined[0] >= threshold:
        raise ValueError("threshold must exceed the initial sup norms")
    above = np.nonzero(combined >= threshold)[0]
    if above.size == 0:
        return None
    k = int(above[0])
    n0, n1 = combined[k - 1], combined[k]
    if n0 <= 0.0 or n1 <= n0:
        return float(times[k])
    frac = (np.log(threshold) - np.log(n0)) / (np.log(n1) - np.log(n0))
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))


class _Projector:
    """Probe projections of the samples, in blocks of PROBE_BLOCK.

    Sources whose probe matrix is one object form a group.  ``add``
    copies each source's window [:L] into its group's (PROBE_BLOCK * g,
    M) buffer, row j * g + c for source c of the block's j-th sample,
    zeroes what a wider earlier sample left past L and notes the
    sample's time.  ``flush`` projects the block with one matrix product
    per group, over the block's widest window, into ``out``: one
    (capacity, K) array per source, doubled when the samples outgrow it.
    A source with a reduction f (``reductions[name]``) keeps f(times,
    rows) of its block's rows at their sample times instead, K' columns.
    """

    def __init__(self, probes: dict, m: int, capacity: int, reductions: dict):
        groups = {}
        for name, mat in probes.items():
            groups.setdefault(id(mat), (mat, []))[1].append(name)
        # (matrix, PROBE_SOURCES indices of its sources, block buffer)
        self.groups = [
            (mat, [PROBE_SOURCES.index(name) for name in names], np.zeros((PROBE_BLOCK * len(names), m)))
            for mat, names in groups.values()
        ]
        self.reductions = reductions
        self.times = np.empty(PROBE_BLOCK)
        # a source keeps its matrix's K rows, or the K' columns its
        # reduction gives an empty block
        self.out = {}
        for name, mat in probes.items():
            width = mat.shape[0]
            if name in reductions:
                width = reductions[name](self.times[:0], np.empty((0, width))).shape[1]
            self.out[name] = np.empty((capacity, width))
        self.width = [0] * PROBE_BLOCK  # buffer rows of slot j are zero from width[j] on
        self.slot = 0
        self.count = 0

    def add(self, sources, L, t):
        """Queue one sample at time t: ``sources`` in PROBE_SOURCES
        order, read on their window [:L] only."""
        j = self.slot
        for _mat, index, buf in self.groups:
            g = len(index)
            rows = buf[j * g : (j + 1) * g]
            for c, i in enumerate(index):
                rows[c, :L] = sources[i][:L]
            if self.width[j] > L:
                rows[:, L : self.width[j]] = 0.0
        self.width[j] = L
        self.times[j] = t
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
                name = PROBE_SOURCES[i]
                rows = block[c :: len(index)]
                if name in self.reductions:
                    rows = self.reductions[name](self.times[:j], rows)
                self.out[name][start:stop] = rows
        self.count = stop
        self.slot = 0

    def projections(self) -> dict:
        """The (samples, K') projection of each source, after a last flush."""
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
    profiles themselves.  An ``integrals`` attribute of the mapping (as
    on ``integral_probes`` and ``functionals.probes``) is copied to
    ``SolutionRecord.integrals``; its ``reductions`` (as on
    ``functionals.probes``) are applied to each block of projections at
    the block's sample times, before it is recorded.

    This is ``run_batch`` with one row.
    """
    return run_batch([spec], probes)[0]


def run_batch(specs, probes=None) -> list:
    """Integrate runs that differ only in eps as one batch of rows.

    Returns one record per spec, in order, each equal to ``run`` of
    that spec with these ``probes``.  The rows advance together, through
    one leapfrog on (field, row, point) buffers, until a row fails,
    crosses the threshold or halves dt: it then leaves the batch.
    Halving rows, the lone row of ``run`` too, go on together in a new
    batch at half the step, once the batch they left has let go of them.
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
    eps.  Buffer row i is ``rows[i]``; its sup norms are ``sup[i, :s]``
    at ``sup_times[:s]``.  ``times`` holds the shared sample times.

    The batch owns the (field, row, point) buffers and steps them; the
    fields are u and v.  prev, cur and next (three rotating time levels),
    lap, force and vel (the laplacian, forcing and centred velocity of
    the current level) and tmp are contiguous (fields, rows, W) arrays,
    W at least the active window L, so each update is one call on whole
    buffers (on strided [..., :L] views of fixed (fields, rows, M)
    buffers numpy took twice as long per call, the eps-ladder sweep 30 %
    longer).  Past the window every input is zero, hence every output
    too, and the window holds the values of the whole-grid formulas;
    L < M, the grid ends past the cone.  Every update is elementwise
    along the rows, so no row depends on the rows stacked with it.

    Points from the cone index ``k_cur`` on lie beyond the current
    level's cone.  ``cone``, a searchsorted, sets the index once per
    batch, in ``__init__`` and ``_halved``; ``advance`` moves it on with
    ``while r[k] <= t + dt + R: k += 1``, the same float expression,
    which gives searchsorted's answer because at a fixed dt that
    argument only grows.  So in ``advance`` the next level's cut is
    always [k:k+2]; after a halving, which moves k back by at most one,
    it may be three points, [k:L] of the old L (``close``).  ``_cut``
    zeroes them, and ``spill`` keeps the largest |value| zeroed per
    field, row and point past k, formed in the scratch ``mag`` of its
    shape instead of a temporary.

    Everything a level touches is bound once per buffer block, by
    ``_bind``: one ``_Level`` per time level (``prev_at``, ``cur_at``,
    ``next_at``, which ``next_level`` turns with the buffers) and, in
    ``views``, the block's laplacian (``_stencil``, which the Taylor
    start calls too), the per-field views of lap, force, vel and tmp,
    the first two points of spill and mag, and a (3, rows) scratch
    whose rows take the level's sup norms, copied into ``sup`` in one
    assignment.  ``advance`` takes them as locals whenever the block
    changes, holds its scalar factors as 0-d arrays, and writes out u's
    and v's leap and velocity in the level, so a level makes the same
    ufunc calls on the same values in the same order as per-stage
    methods did, with no attribute look-up or method call per stage.
    """

    def __init__(self, specs, probes):
        """The rows at t = dt, after the t = 0 sample and the Taylor start."""
        spec = specs[0]
        p, q = spec.pq.p, spec.pq.q
        grid = spec.grid
        dt = grid.dt
        r = radial_grid(spec)
        m = r.size
        self.integrals = getattr(probes, "integrals", False)
        reductions = getattr(probes, "reductions", {})
        probes = {name: np.asarray(mat, dtype=float) for name, mat in (probes or {}).items()}
        for name, mat in probes.items():
            if name not in PROBE_SOURCES:
                raise ValueError(f"unknown probe source {name!r}; expected one of {PROBE_SOURCES}")
            if mat.ndim != 2 or mat.shape[1] != m:
                raise ValueError(f"probe {name!r} must be a (K, {m}) matrix, got shape {mat.shape}")
        self.reads_vt = "vt" in probes  # v_t is formed only for samples that read it
        self.specs, self.spec, self.r = specs, spec, r
        self.t, self.dt, self.step = 0.0, dt, 0
        k = self.cone()
        L = k + 2
        self.window = L

        inv_dr2 = 1.0 / (grid.dr * grid.dr)
        self.centre = -2.0 * inv_dr2
        self.axis = 2.0 * spec.n * inv_dr2
        # cl, cr = 1/dr^2 -+ (n - 1) / (2 r dr); the axis has its own formula
        drift = np.zeros(m)
        drift[1:] = (spec.n - 1.0) / r[1:] / (2.0 * grid.dr)
        self.outer = np.stack((inv_dr2 - drift, inv_dr2 + drift))
        # the cut [k:L] spans at most three points: L <= k + 2, and a dt
        # halving moves k back by at most one
        self.spill = np.zeros((2, len(specs), 3))
        self._bind(np.zeros((len(_BUFFERS), 2, len(specs), _width(L, m))))

        # the data: u, v in cur and u_t, v_t in vel, one row per eps
        eps = np.array([other.eps for other in specs])[:, np.newaxis]
        bump = spec.data.profile(r[: self.width], spec.R)
        a_u0, a_u1, a_v0, a_v1 = (float(a) for a in spec.data.amplitudes)
        self.cur[0] = eps * a_u0 * bump
        self.vel[0] = eps * a_u1 * bump
        self.cur[1] = eps * a_v0 * bump
        self.vel[1] = eps * a_v1 * bump
        init = np.stack([np.abs(w).max(axis=-1) for w in (self.cur[0], self.vel[0], self.cur[1])], axis=-1)
        levels = init.max(axis=1).tolist()
        if not all(grid.blowup_threshold > level for level in levels):  # a NaN fails too
            raise ValueError("blowup_threshold must exceed the initial sup norms")

        self.stride = max(1, int(np.floor(grid.t_max / (2000.0 * dt))))
        samples = math.ceil(grid.t_max / (self.stride * dt)) + 2
        self.rows = [
            _Row(i, 1e3 * max(level, 1e-300), level, [],
                 _Projector(probes, m, samples, reductions) if probes else None)
            for i, level in enumerate(levels)
        ]
        # the steps until t_max at this dt, and row 0: all that a batch
        # which never halves dt fills; a batch doubles full buffers
        # (_history), and a halved one starts at twice its steps taken
        capacity = math.ceil(grid.t_max / dt) + 2
        self.sup = np.empty((len(specs), capacity, 3))
        self.sup[:, 0] = init
        self.sup_times = np.empty(capacity)
        self.sup_times[0] = 0.0
        self.s = 1
        self.times = [0.0]

        u_force, v_force = self.force
        np.abs(self.cur[1], out=u_force)
        u_force **= q
        np.abs(self.vel[0], out=v_force)
        v_force **= p
        for i in range(len(specs)):
            self.project(i, L)
        self.laplacian(self.cur_at)
        self.taylor(0, self.vel[0], spec.b1.b(0.0))
        self.taylor(1, self.vel[1], spec.b2.b(0.0))
        self.close(L, k)
        self.next_level(k)

    def _bind(self, block):
        """Take ``block``'s buffers and bind every view of them a level uses."""
        for name, buf in zip(_BUFFERS, block):
            setattr(self, name, buf)
        fields, rows, width = block.shape[1:]
        self.width = width
        self.prev_at, self.cur_at, self.next_at = (_Level.of(buf) for buf in (self.prev, self.cur, self.next))
        cl, cr = np.tile(self.outer[:, :width], fields * rows)[:, 1:-1]
        lap = self.lap
        self.laplacian = _stencil(cl, cr, np.array(self.centre), np.array(self.axis), lap.reshape(-1)[1:-1],
                                  self.tmp.reshape(-1)[:-2], lap[..., 0], lap[..., -1])
        self.mag = np.empty_like(self.spill)
        by_field = np.empty((3, rows))  # a level's sup norms, before they go to sup
        self.views = (self.laplacian, *(tuple(buf) for buf in (lap, self.force, self.vel, self.tmp)),
                      self.spill[..., :2], self.mag[..., :2], by_field, by_field.T)

    def resize(self, rows, width):
        """Keep only ``rows``, in that order, in buffers ``width`` wide."""
        old = [getattr(self, name) for name in _BUFFERS]
        block = np.zeros((len(_BUFFERS), old[0].shape[0], len(rows), width))
        for buf, src in zip(block, old):
            buf[..., : src.shape[-1]] = src[:, rows]
        self.spill = self.spill[:, rows]
        self._bind(block)

    def close(self, L, k):
        """The cone cut of ``next`` on [k:L], every field (``_cut``)."""
        _cut(self.next[..., k:L], self.spill[..., : L - k], self.mag[..., : L - k])

    def taylor(self, f, wt, bval):
        """Second-order Taylor step of field f from (cur, wt) into
        ``next``, with ``lap`` and ``force`` of the current level."""
        dt = self.dt
        acc = self.lap[f] - bval * wt + self.force[f]
        self.next[f] = self.cur[f] + dt * wt + 0.5 * dt * dt * acc

    def advance(self, records):
        """Step until every row has left the batch or reached t_max;
        finished rows go to ``records``.

        Each step puts each row into one class, once: failed (a
        non-finite level), crossed (a level >= threshold), halving or on.
        A failed row ends without the step's sup row and sample.  The
        three exits leave before the halving rows' new batch advances to
        its end, so a batch they empty holds no buffers meanwhile.

        At time t the next level vanishes from k = first index with
        r > t + dt + R on, and the step works on [:L], L = k + 2.
        u is leapt before |u_t|^p is formed for v's leap.
        """
        spec = self.spec
        grid = spec.grid
        p, q = spec.pq.p, spec.pq.q
        # b(t) of a zero damping is 0.0, read without a call
        b1, b2 = (None if b.is_zero else b.b for b in (spec.b1, spec.b2))
        threshold = grid.blowup_threshold
        r, R, dt = self.r, spec.R, self.dt
        t_stop = grid.t_max - 0.5 * dt
        # 0-d arrays: a ufunc takes them without converting a float per call
        two, dt2, rate = (np.array(c) for c in (2.0, dt * dt, 0.5 / dt))
        m = r.size
        absolute, add, multiply, subtract, divide = np.absolute, np.add, np.multiply, np.subtract, np.divide
        peak = np.maximum.reduce
        reads_vt, views = self.reads_vt, None
        while self.rows and self.t < t_stop:
            t, nb, k_cur = self.t, len(self.rows), self.k_cur
            b1v = 0.0 if b1 is None else b1(t)
            b2v = 0.0 if b2 is None else b2(t)
            k = k_cur
            while r[k] <= t + dt + R:  # cone()'s searchsorted: its argument only grows
                k += 1
            L = k + 2
            if L > self.window:
                self.window = L
                if L > self.width:
                    self.resize(range(nb), _width(L, m))
            s = self.s
            if s == self.sup_times.size:  # full: double it
                self.sup, self.sup_times = self._history(range(nb))
            if views is not self.views:  # a new buffer block
                views = self.views
                (laplacian, (u_lap, v_lap), (u_force, v_force), (u_vel, v_vel), (u_tmp, v_tmp), kept, mag,
                 by_field, norms) = views
                u_norm, ut_norm, v_norm = by_field  # max |u|, max |u_t|, max |v| per row
            prev, cur, nxt = self.prev_at, self.cur_at, self.next_at
            (u_prev, v_prev), (u_cur, v_cur), (u_next, v_next) = prev.fields, cur.fields, nxt.fields
            absolute(v_cur, out=u_force)
            peak(u_force, axis=1, out=v_norm)
            u_force **= q
            laplacian(cur)
            multiply(cur.whole, two, out=nxt.whole)  # each leap starts from 2 cur - prev
            subtract(nxt.whole, prev.whole, out=nxt.whole)
            # u's leap: next += dt^2 (lap + force), then the damping solved for next
            add(u_lap, u_force, out=u_tmp)
            multiply(u_tmp, dt2, out=u_tmp)
            add(u_next, u_tmp, out=u_next)
            half = 0.5 * b1v * dt
            if half:
                multiply(u_prev, half, out=u_tmp)
                add(u_next, u_tmp, out=u_next)
                divide(u_next, 1.0 + half, out=u_next)
            # u_t = (next - prev) * (0.5 / dt), zero past the current
            # cone: next is cut later, and data wider than B_R (a negative
            # control) leave values past L
            subtract(u_next, u_prev, out=u_vel)
            multiply(u_vel, rate, out=u_vel)
            u_vel[:, k_cur:].fill(0.0)
            absolute(u_vel, out=v_force)
            peak(v_force, axis=1, out=ut_norm)
            v_force **= p
            # v's leap, as u's
            add(v_lap, v_force, out=v_tmp)
            multiply(v_tmp, dt2, out=v_tmp)
            add(v_next, v_tmp, out=v_next)
            half = 0.5 * b2v * dt
            if half:
                multiply(v_prev, half, out=v_tmp)
                add(v_next, v_tmp, out=v_next)
                divide(v_next, 1.0 + half, out=v_next)
            _cut(nxt.whole[..., k:L], kept, mag)
            absolute(u_cur, out=u_tmp)
            peak(u_tmp, axis=1, out=u_norm)
            self.sup[:nb, s] = norms
            self.sup_times[s] = t
            self.s = s + 1

            failed, crossed, halving = [], [], []
            for i, (row, level) in enumerate(zip(self.rows, peak(norms, axis=1).tolist())):
                if not level < threshold:  # a non-finite level passes neither comparison
                    (crossed if math.isfinite(level) else failed).append(i)
                elif (level > GROWTH_REFINE_FACTOR * row.level and level > row.floor
                      and len(row.halvings) < MAX_DT_HALVINGS):
                    halving.append(i)
                row.level = level
            for i in failed:
                reason = f"non-finite values at t={t:.6g} before threshold crossing"
                self._finish(records, i, s, self.times, reason=reason)
            # on the stride every row that did not fail, a crossed row off it
            sampled = self.step % self.stride == 0
            if sampled:
                self.times.append(t)
            if reads_vt and (sampled or crossed):  # v_t, as u_t
                subtract(v_next, v_prev, out=v_vel)
                multiply(v_vel, rate, out=v_vel)
                v_vel[:, k_cur:].fill(0.0)
            for i in [i for i in range(nb) if i not in failed] if sampled else crossed:
                self.project(i, L)
            for i in crossed:
                t_blowup = detect_blowup(self.sup_times[: s + 1], self.sup[i, : s + 1], threshold)
                self._finish(records, i, s + 1, self.times if sampled else [*self.times, t], t_blowup=t_blowup)
            exits = failed + crossed + halving
            if exits:
                halved = self._halved(halving, L, b1v, b2v) if halving else None
                self._drop(exits)
                if halved is not None:
                    halved.advance(records)
            self.next_level(k)
        for i in range(len(self.rows)):
            self._finish(records, i, self.s, self.times)

    def project(self, i, L):
        """Queue a sample of row i; vel holds the level's u_t, and its v_t
        if the probes read it."""
        projector = self.rows[i].projector
        if projector is not None:
            cur, vel, force = self.cur, self.vel, self.force
            projector.add((cur[0, i], vel[0, i], cur[1, i], vel[1, i], force[0, i], force[1, i]), L, self.t)

    def _halved(self, rows, L, b1v, b2v):
        """A batch of ``rows`` at half the step: a copy of their buffers
        and sup history, the latter in buffers of twice the steps taken,
        whose next level is a Taylor step of the new size from the current
        one, from a one-sided second-order velocity that uses the
        equation."""
        new = copy.copy(self)
        new.resize(rows, self.width)
        new.rows = [self.rows[i] for i in rows]
        new.times = list(self.times)
        dt_old = self.dt
        new.dt = 0.5 * dt_old
        new.sup, new.sup_times = self._history(rows)
        for row in new.rows:
            row.halvings.append((self.t, new.dt, row.level))
        k = new.cone()
        for f, bval in enumerate((b1v, b2v)):
            zt = (new.cur[f] - new.prev[f]) / dt_old
            acc = new.lap[f] - bval * zt + new.force[f]
            new.taylor(f, zt + 0.5 * dt_old * acc, bval)
        new.close(L, k)
        new.next_level(k)
        return new

    def _history(self, rows):
        """Copies of the sup norms of ``rows`` and of the sup times, in
        buffers of twice the steps taken."""
        s = self.s
        sup, times = np.empty((len(rows), 2 * s, 3)), np.empty(2 * s)
        sup[:, :s] = self.sup[rows, :s]
        times[:s] = self.sup_times[:s]
        return sup, times

    def cone(self) -> int:
        """k, the first index past the next level's cone: data in B_R give
        supp w(t + dt) in B_{t+dt+R}.  Searched once per batch; ``advance``
        moves it on level by level."""
        return int(self.r.searchsorted(self.t + self.dt + self.spec.R, side="right"))

    def next_level(self, k):
        """Turn the time levels, next becoming cur, whose cone index is k."""
        self.prev, self.cur, self.next = self.cur, self.next, self.prev
        self.prev_at, self.cur_at, self.next_at = self.cur_at, self.next_at, self.prev_at
        self.k_cur = k
        self.t += self.dt
        self.step += 1

    def _drop(self, rows):
        """Remove ``rows`` and compact the buffers; a batch left with no
        rows keeps none."""
        keep = [i for i in range(len(self.rows)) if i not in rows]
        self.rows = [self.rows[i] for i in keep]
        self.resize(keep, self.width)
        if keep:
            self.sup[: len(keep), : self.s] = self.sup[keep, : self.s]
        else:
            self.sup, self.sup_times = self.sup[:0].copy(), self.sup_times[:0].copy()

    def _finish(self, records, i, s, times, t_blowup=None, reason=""):
        """Record row i with its first s sup rows; a row that has a
        failure ``reason`` failed."""
        row = self.rows[i]
        records[row.id] = SolutionRecord(
            spec=self.specs[row.id],
            times=np.asarray(times),
            sup_times=self.sup_times[:s].copy(),
            sup_norms=self.sup[i, :s].copy(),
            t_blowup=t_blowup,
            failure_reason=reason,
            halvings=tuple(row.halvings),
            window_max=self.window,
            cone_spill=float(self.spill[:, i].max()),
            projections={} if row.projector is None else row.projector.projections(),
            integrals=self.integrals,
        )


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


# the run sidecar's keys: the record's attributes, then its spec's
SIDECAR_FIELDS = ("blew_up", "t_blowup", "failed", "failure_reason", "t_end", "dt_initial",
                  "dt_final", "steps", "halvings", "window_max", "cone_spill", "crossed")
SIDECAR_SPEC_FIELDS = ("n", "R", "eps")


def write_blowup_json(record: SolutionRecord, path) -> None:
    """Sidecar with blow-up metadata and telemetry for a run, one key
    per name in SIDECAR_FIELDS and SIDECAR_SPEC_FIELDS: the step count,
    one [t, dt_new, level_norm] per dt halving, the largest window, the
    largest value the cone zeroing removed and the field that crossed
    the threshold among them."""
    payload = {name: getattr(record, name) for name in SIDECAR_FIELDS}
    payload.update((name, getattr(record.spec, name)) for name in SIDECAR_SPEC_FIELDS)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
