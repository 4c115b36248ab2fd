"""Bitwise checks of the leapfrog core, and the run telemetry.

The windowed core is compared with ``==`` / ``np.array_equal`` against
a whole-grid reference kept here: the solver as it stood before the
light-cone window, which updates every grid point at every step and
then zeroes the points beyond the cone.  Both run on the same machine,
so the checks stay bitwise without depending on how a numpy build
rounds exp or pow.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from coupledwave.exponents import ExponentPair
from coupledwave.solver import (
    GROWTH_REFINE_FACTOR,
    MAX_DT_HALVINGS,
    SUP_FIELDS,
    GridSpec,
    InitialDataFamily,
    ProblemSpec,
    detect_blowup,
    evolve_scalar,
    radial_grid,
    run,
    write_blowup_json,
)
from coupledwave.special import DampingSpec


def _ref_laplacian(w, r, dr, n):
    lap = np.empty_like(w)
    inv_dr2 = 1.0 / (dr * dr)
    lap[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) * inv_dr2 + (n - 1.0) / r[1:-1] * (
        w[2:] - w[:-2]
    ) / (2.0 * dr)
    lap[0] = 2.0 * n * (w[1] - w[0]) * inv_dr2
    lap[-1] = 0.0
    return lap


def _ref_leap(w_prev, w_cur, lap, forcing, bval, dt):
    half = 0.5 * bval * dt
    w_next = (
        2.0 * w_cur - w_prev + dt * dt * (lap + forcing) + half * w_prev
    ) / (1.0 + half)
    w_next[-1] = 0.0
    return w_next


def _ref_taylor(w_cur, wt_cur, lap, forcing, bval, dt):
    w_next = w_cur + dt * wt_cur + 0.5 * dt * dt * (lap - bval * wt_cur + forcing)
    w_next[-1] = 0.0
    return w_next


def _ref_restart(w_prev, w_cur, lap, forcing, bval, dt_old):
    zt = (w_cur - w_prev) / dt_old
    return zt + 0.5 * dt_old * (lap - bval * zt + forcing)


def _ref_b(b, t):
    # the validating array path of DampingSpec.b
    return b.b(np.asarray(t))


def reference_run(spec):
    """Whole-grid leapfrog with the cone mask applied after every update."""
    n, p, q, R, grid = spec.n, spec.pq.p, spec.pq.q, spec.R, spec.grid
    dr, dt, threshold = grid.dr, grid.dt, grid.blowup_threshold
    r = radial_grid(spec)

    def lap(w):
        return _ref_laplacian(w, r, dr, n)

    def mask(w, t):
        w[r > t + R] = 0.0
        return w

    bump = spec.data.profile(r, R)
    u_cur, ut0, v_cur, vt0 = (spec.eps * float(a) * bump for a in spec.data.amplitudes)
    init_norm = max(np.abs(u_cur).max(), np.abs(ut0).max(), np.abs(v_cur).max())
    stride = max(1, int(np.floor(grid.t_max / (2000.0 * dt))))
    sup_times = [0.0]
    rows = [(np.abs(u_cur).max(), np.abs(ut0).max(), np.abs(v_cur).max())]
    samples = [(0.0, u_cur, ut0, v_cur, vt0)]
    t_blowup = None
    with np.errstate(over="ignore", invalid="ignore"):
        u_next = _ref_taylor(u_cur, ut0, lap(u_cur), np.abs(v_cur) ** q, _ref_b(spec.b1, 0.0), dt)
        v_next = _ref_taylor(v_cur, vt0, lap(v_cur), np.abs(ut0) ** p, _ref_b(spec.b2, 0.0), dt)
        u_prev, u_cur = u_cur, mask(u_next, dt)
        v_prev, v_cur = v_cur, mask(v_next, dt)
        t, step, halvings = dt, 1, 0
        while t < grid.t_max - 0.5 * dt:
            b1v, b2v = _ref_b(spec.b1, t), _ref_b(spec.b2, t)
            lap_u, fu = lap(u_cur), np.abs(v_cur) ** q
            u_next = mask(_ref_leap(u_prev, u_cur, lap_u, fu, b1v, dt), t + dt)
            ut_cur = mask((u_next - u_prev) / (2.0 * dt), t)
            lap_v, fv = lap(v_cur), np.abs(ut_cur) ** p
            v_next = mask(_ref_leap(v_prev, v_cur, lap_v, fv, b2v, dt), t + dt)
            vt_cur = mask((v_next - v_prev) / (2.0 * dt), t)
            row = tuple(float(np.abs(w).max()) for w in (u_cur, ut_cur, v_cur))
            level = max(row)
            if not np.isfinite(level):
                break
            prev_norm = max(rows[-1])
            sup_times.append(t)
            rows.append(row)
            if step % stride == 0 or level >= threshold:
                samples.append((t, u_cur, ut_cur, v_cur, vt_cur))
            if level >= threshold:
                _, t_blowup = detect_blowup(sup_times, rows, threshold)
                break
            if (
                level > GROWTH_REFINE_FACTOR * prev_norm
                and level > 1e3 * max(init_norm, 1e-300)
                and halvings < MAX_DT_HALVINGS
            ):
                dt_old, dt = dt, 0.5 * dt
                halvings += 1
                ut_est = _ref_restart(u_prev, u_cur, lap_u, fu, b1v, dt_old)
                vt_est = _ref_restart(v_prev, v_cur, lap_v, fv, b2v, dt_old)
                u_next = mask(_ref_taylor(u_cur, ut_est, lap_u, fu, b1v, dt), t + dt)
                v_next = mask(_ref_taylor(v_cur, vt_est, lap_v, fv, b2v, dt), t + dt)
            u_prev, u_cur, v_prev, v_cur = u_cur, u_next, v_cur, v_next
            t += dt
            step += 1
    times, u, ut, v, vt = (np.asarray(col) for col in zip(*samples))
    return SimpleNamespace(
        t_blowup=t_blowup, sup_times=np.asarray(sup_times), sup_norms=np.asarray(rows),
        dt_final=dt, times=times, u=u, ut=ut, v=v, vt=vt,
    )


def reference_evolve_scalar(n, dr, t_max, b, w0, w1, r_max, forcing, sample_stride):
    m = int(np.floor(r_max / dr + 1e-9)) + 1
    r = np.arange(m) * dr
    dt = 0.45 * dr
    w_cur = np.array(w0, dtype=float)
    times, ws, wts = [0.0], [w_cur], [np.array(w1, dtype=float)]
    w_next = _ref_taylor(
        w_cur, wts[0], _ref_laplacian(w_cur, r, dr, n), forcing(0.0, r), _ref_b(b, 0.0), dt
    )
    w_prev, w_cur = w_cur, w_next
    steps = int(round(t_max / dt))
    for k in range(1, steps + 1):
        t = k * dt
        lap = _ref_laplacian(w_cur, r, dr, n)
        w_next = _ref_leap(w_prev, w_cur, lap, forcing(t, r), _ref_b(b, t), dt)
        if k % sample_stride == 0 or k == steps:
            times.append(t)
            ws.append(w_cur)
            wts.append((w_next - w_prev) / (2.0 * dt))
        w_prev, w_cur = w_cur, w_next
    return np.asarray(times), np.vstack(ws), np.vstack(wts)


def _spec(n, pq, b1, b2, eps, amp, dr, t_max, r_max=None):
    return ProblemSpec(
        n=n, pq=ExponentPair(*pq), b1=b1, b2=b2, R=1.0, eps=eps,
        data=InitialDataFamily(k=3, amplitudes=(amp,) * 4),
        grid=GridSpec(dr=dr, t_max=t_max, r_max=r_max),
    )


# name -> (spec, dt_final, steps), recorded from the whole-grid solver
RUNS = {
    "n1-power-and-exp-damping": (
        _spec(1, (2.0, 3.0), DampingSpec.power_decay(0.5, 2.0),
              DampingSpec.exp_decay(0.3), 1.0, 2.0, 0.02, 10.0),
        0.009000000000000001,
        151,
    ),
    "n2-zero-damping-one-halving": (
        _spec(2, (2.0, 2.0), DampingSpec.zero(), DampingSpec.zero(),
              0.5, 4.0, 0.04, 40.0),
        0.009000000000000001,
        241,
    ),
    "n3-zero-damping-two-halvings": (
        _spec(3, (2.0, 2.0), DampingSpec.zero(), DampingSpec.zero(),
              1.0, 4.0, 0.02, 8.0),
        0.0022500000000000003,
        536,
    ),
    # r_max = R + t_max: the window reaches the end of the grid
    "n3-exp-damping-rmax-at-cone": (
        _spec(3, (2.0, 2.0), DampingSpec.exp_decay(0.5), DampingSpec.exp_decay(0.5),
              0.2, 1.0, 0.02, 3.0, r_max=4.0),
        0.009000000000000001,
        332,
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_equals_whole_grid_reference(name):
    spec, dt_final, steps = RUNS[name]
    rec = run(spec)
    ref = reference_run(spec)
    assert not rec.failed
    assert (rec.t_blowup is None) == name.endswith("rmax-at-cone")
    assert rec.t_blowup == ref.t_blowup
    assert np.array_equal(rec.sup_times, ref.sup_times)
    assert np.array_equal(rec.sup_norms, ref.sup_norms)
    assert rec.dt_final == ref.dt_final == dt_final
    assert len(rec.sup_times) - 1 == steps


def test_window_reaches_grid_end_with_tight_rmax():
    spec = RUNS["n3-exp-damping-rmax-at-cone"][0]
    rec = run(spec)
    assert rec.window_max == rec.r.size


def test_stored_profiles_equal_whole_grid_reference(profile_run):
    # identity-matrix probes give back the sampled profiles bitwise
    spec = RUNS["n3-exp-damping-rmax-at-cone"][0]
    rec = profile_run(spec)
    ref = reference_run(spec)
    assert np.array_equal(rec.times, ref.times)
    for field in ("u", "ut", "v", "vt"):
        assert np.array_equal(rec.projections[field], getattr(ref, field)), field


def test_evolve_scalar_equals_whole_grid_reference():
    n, dr, rmax = 3, 0.02, 6.0
    r = np.arange(int(np.floor(rmax / dr + 1e-9)) + 1) * dr
    w0 = np.clip(1.0 - (r / 2.0) ** 2, 0.0, None) ** 5
    b = DampingSpec.power_decay(0.7, 1.5)

    def forcing(t, r):
        return np.exp(-t) * np.cos(r) / (1.0 + r)

    ts, W, Wt, _r = evolve_scalar(
        n, dr, 2.0, b, w0, 0.5 * w0, rmax, forcing=forcing, sample_stride=7,
    )
    ref = reference_evolve_scalar(n, dr, 2.0, b, w0, 0.5 * w0, rmax, forcing, 7)
    for got, want in zip((ts, W, Wt), ref):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "b",
    [
        DampingSpec.zero(),
        DampingSpec.power_decay(0.0, 2.0),
        DampingSpec.power_decay(0.5, 2.0),
        DampingSpec.power_decay(1.7, 1.25),
        DampingSpec.exp_decay(0.3),
        DampingSpec.exp_decay(2.5),
    ],
)
def test_damping_float_path_equals_array_path(b):
    # the solver's per-step call b.b(t) with a float t skips validation
    ts = np.concatenate([np.linspace(0.0, 100.0, 401),
                         np.random.default_rng(7).uniform(0.0, 50.0, 100)])
    for t in ts.tolist():
        assert b.b(t) == _ref_b(b, t)
    with pytest.raises(ValueError):
        b.b(-0.5)


def test_run_telemetry(standard_run, tmp_path):
    rec = standard_run
    assert rec.steps == len(rec.sup_times) - 1
    # one entry per halving, in time order, each halving the step
    assert len(rec.halvings) == round(np.log2(rec.dt_initial / rec.dt_final)) == 2
    dt = rec.dt_initial
    last_t = 0.0
    for t, dt_new, level_norm in rec.halvings:
        assert dt_new == 0.5 * dt
        assert t > last_t
        row = int(np.nonzero(rec.sup_times == t)[0][0])
        assert level_norm == rec.sup_norms[row].max()
        dt, last_t = dt_new, t
    assert dt == rec.dt_final
    # the window covers the last level's cone plus two points, inside the grid
    t_end = rec.sup_times[-1]
    k = int(np.searchsorted(rec.r, t_end + rec.dt_final + rec.spec.R, side="right"))
    assert rec.window_max == min(rec.r.size, k + 2) < rec.r.size
    path = tmp_path / "run.json"
    write_blowup_json(rec, path)
    meta = json.loads(path.read_text())
    assert meta["steps"] == rec.steps
    assert meta["window_max"] == rec.window_max
    assert meta["halvings"] == [list(h) for h in rec.halvings]


def test_crossed_field(standard_run, tmp_path):
    # the standard run crosses through u_t: its last sup row is about
    # (1.7e5, 4.1e17, 1.9e10)
    assert standard_run.crossed == "u_t"
    last = standard_run.sup_norms[-1]
    assert SUP_FIELDS[int(last.argmax())] == "u_t" and last[1] >= 1e8
    quiet = run(RUNS["n3-exp-damping-rmax-at-cone"][0])
    assert not quiet.blew_up and quiet.crossed is None
    for rec, want in ((standard_run, "u_t"), (quiet, None)):
        path = tmp_path / "run.json"
        write_blowup_json(rec, path)
        assert json.loads(path.read_text())["crossed"] == want
