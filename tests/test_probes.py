"""Probe projections streamed by ``solver.run``, the functionals read
from them, and the identity check."""

import dataclasses

import numpy as np
import pytest

from coupledwave import functionals as fn
from coupledwave.exponents import ExponentPair, kernel_exponents
from coupledwave.solver import (
    PROBE_BLOCK,
    PROBE_SOURCES,
    GridSpec,
    InitialDataFamily,
    IntegralProbes,
    _Projector,
    integral_probes,
    radial_grid,
    radial_weights,
    run,
)
from coupledwave.special import phi


@pytest.fixture(scope="module", params=[(2.0, 2.0), (2.5, 1.7)], ids=["pq-2-2", "pq-2.5-1.7"])
def stored_and_probed(request, standard_spec, profile_run):
    """The profiles of one spec (identity-matrix probes) and its run
    with the probes of ``functionals.probes``: one kernel basis at p = q
    = 2 (r1 = r2 = 0.5), two at p, q = 2.5, 1.7 (r1 = 0.6, r2 = 0.412)."""
    spec = dataclasses.replace(standard_spec, pq=ExponentPair(*request.param))
    probes = fn.probes(spec)
    return spec, probes, profile_run(spec), run(spec, probes=probes)


@pytest.fixture(scope="module")
def unreduced(stored_and_probed):
    """The probed run with the same probe matrices and no reductions:
    every source keeps all rows of its matrix, 66 on u_t and v."""
    spec, probes, _stored, _probed = stored_and_probed
    return run(spec, probes=IntegralProbes(probes))


def _profile_sources(spec, stored):
    prof = stored.projections
    return dict(prof, **{"|v|^q": np.abs(prof["v"]) ** spec.pq.q,
                         "|u_t|^p": np.abs(prof["ut"]) ** spec.pq.p})


def test_probe_run_matches_stored_run(stored_and_probed):
    spec, _probes, stored, probed = stored_and_probed
    assert stored.blew_up and stored.halvings  # exercises the dt-halving restart
    plain = run(spec)
    for rec in (probed, plain):
        assert np.array_equal(rec.times, stored.times)
        assert np.array_equal(rec.sup_norms, stored.sup_norms)
        assert rec.t_blowup == stored.t_blowup
        assert rec.dt_final == stored.dt_final
        assert rec.cone_spill == stored.cone_spill
    assert probed.u is None
    assert plain.projections == {}


def test_projections_agree_with_profiles(stored_and_probed, unreduced):
    spec, probes, stored, _probed = stored_and_probed
    sources = _profile_sources(spec, stored)
    assert set(unreduced.projections) == set(PROBE_SOURCES)
    for name, basis in probes.items():
        got = unreduced.projections[name]
        assert got.shape == (stored.times.size, basis.shape[0])
        np.testing.assert_allclose(got, sources[name] @ basis.T, rtol=1e-13, atol=0.0)


def test_probe_record_widths(stored_and_probed, unreduced):
    # 2, 3, 3, 2, 66, 66 columns at quad_nodes 64: u_t and v keep their
    # head columns and, in column 2, the kernel series that
    # _diag_kernel_series gives over the 66 columns a run without the
    # reductions records; every other column is that run's, bitwise
    spec, probes, _stored, probed = stored_and_probed
    assert set(probes.reductions) == {"ut", "v"}
    widths = {name: rows.shape[1] for name, rows in probed.projections.items()}
    assert widths == {"u": 2, "ut": 3, "v": 3, "vt": 2, "|v|^q": 66, "|u_t|^p": 66}
    r1, r2 = kernel_exponents(spec.n, spec.pq)
    for name, rows in probed.projections.items():
        full = unreduced.projections[name]
        assert np.array_equal(rows[:, :2], full[:, :2]), name
        if name in probes.reductions:
            nodes = fn._kernel_nodes(spec, r1 if name == "ut" else r2, 64)
            curly = fn._diag_kernel_series(unreduced.times, spec.R, *nodes, full[:, 2:])
            np.testing.assert_allclose(rows[:, 2], curly, rtol=1e-12, atol=0.0, err_msg=name)
        else:
            assert np.array_equal(rows, full), name


def test_probe_rows(standard_spec):
    # row 0 is the radial weights, row 1 Phi times them: the head, all
    # that u and v_t carry; the kernel sources add quad_nodes rows of one
    # basis per distinct exponent of kernel_exponents: r1 = 0.6 and r2 =
    # 0.412 at p, q = 2.5, 1.7, one exponent 0.5 at p = q = 2
    r = radial_grid(standard_spec)
    w = radial_weights(r, standard_spec.n)
    for pq, kernel_mats in (((2.5, 1.7), 2), ((2.0, 2.0), 1)):
        spec = dataclasses.replace(standard_spec, pq=ExponentPair(*pq))
        r1, r2 = kernel_exponents(spec.n, spec.pq)
        probes = fn.probes(spec, quad_nodes=16)
        assert probes["u"] is probes["vt"]
        assert probes["u"].shape == (2, r.size)
        for mat in probes.values():
            assert np.array_equal(mat[0], w)
            assert np.array_equal(mat[1], w * phi(spec.n, r))
        for name, rk in (("ut", r1), ("|v|^q", r1), ("v", r2), ("|u_t|^p", r2)):
            lam = fn._kernel_nodes(spec, rk, 16)[0]
            assert probes[name].shape == (18, r.size)
            assert np.array_equal(probes[name][2:], fn._kernel_basis(spec.n, r, w, lam)), name
        assert probes["ut"] is probes["|v|^q"]
        assert probes["v"] is probes["|u_t|^p"]
        assert (probes["ut"] is probes["v"]) == (r1 == r2)
        assert len({id(mat) for mat in probes.values()}) == 1 + kernel_mats
    with pytest.raises(ValueError, match=r"quad_nodes must lie in \[16, 512\], got 8"):
        fn.probes(standard_spec, quad_nodes=8)


def test_extract_matches_profile_formula(stored_and_probed):
    # the formulas extract used on stored profiles, applied here to the
    # identity-probe profiles
    spec, _probes, stored, probed = stored_and_probed
    r1, r2 = kernel_exponents(spec.n, spec.pq)
    src = _profile_sources(spec, stored)
    w = radial_weights(stored.r, spec.n)
    wp = phi(spec.n, stored.r) * w
    decay = np.exp(-stored.times)

    def curly(r, prof):
        lam, wl = fn._kernel_nodes(spec, r, 64)
        proj = prof @ fn._kernel_basis(spec.n, stored.r, w, lam).T
        return fn._diag_kernel_series(stored.times, spec.R, lam, wl, proj)

    expected = {
        "U": src["u"] @ w, "Uprime": src["ut"] @ w, "V": src["v"] @ w, "Vprime": src["vt"] @ w,
        "U1": decay * (src["u"] @ wp), "V1": decay * (src["v"] @ wp),
        "U2": decay * (src["ut"] @ wp),
        "curlyU": curly(r1, src["ut"]), "curlyV": curly(r2, src["v"]),
    }
    series = fn.extract(probed)
    for name, want in expected.items():
        np.testing.assert_allclose(getattr(series, name), want, rtol=1e-12, atol=0.0,
                                   err_msg=name)
    nl_q, nl_p = fn.nonlinearity_integrals(probed)
    np.testing.assert_allclose(nl_q, src["|v|^q"] @ w, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(nl_p, src["|u_t|^p"] @ w, rtol=1e-12, atol=0.0)


def test_run_rejects_bad_probes(standard_spec):
    m = radial_grid(standard_spec).size
    with pytest.raises(ValueError, match="unknown probe source"):
        run(standard_spec, probes={"w": np.ones((2, m))})
    with pytest.raises(ValueError, match="matrix"):
        run(standard_spec, probes={"u": np.ones((2, m + 1))})
    with pytest.raises(ValueError, match="matrix"):
        run(standard_spec, probes={"u": np.ones(m)})


def test_identity_check_needs_its_projections(identity_run):
    bare = dataclasses.replace(identity_run, projections={})
    for reader in (fn.check_fundamental_identity, fn.extract, fn.nonlinearity_integrals):
        with pytest.raises(ValueError, match=r"probes\(spec"):
            reader(bare)


def _per_sample(mat, sources, widths):
    """Reference projection: one matrix-vector product per sample over
    its window."""
    return np.array([mat[:, :L] @ src[:L] for src, L in zip(sources, widths)])


def _support_widths(profiles):
    """Per sample, one past the last nonzero point of any profile."""
    nonzero = np.logical_or.reduce([p != 0.0 for p in profiles])
    return [int(np.nonzero(row)[0][-1]) + 1 for row in nonzero]


@pytest.mark.parametrize("capacity", [1, 64], ids=["grows", "fits"])
@pytest.mark.parametrize("count", [1, PROBE_BLOCK - 1, PROBE_BLOCK, 3 * PROBE_BLOCK, 3 * PROBE_BLOCK + 5])
def test_projector_matches_per_sample_products(count, capacity):
    # windows widen and narrow at random, so a slot often holds a wider
    # earlier sample; values past a sample's window must not be read
    rng = np.random.default_rng(count)
    m = 40
    shared, own = rng.uniform(size=(7, m)), rng.uniform(size=(3, m))
    probes = {"u": own, "ut": shared, "|v|^q": shared, "v": shared}
    widths = rng.integers(2, m + 1, size=count)
    samples = [rng.uniform(size=(len(PROBE_SOURCES), m)) for _ in range(count)]
    times = rng.uniform(size=count)
    # v keeps the sum of its rows and its sample time
    reductions = {"v": lambda t, rows: np.column_stack((rows.sum(axis=1), t))}
    proj = _Projector(probes, m, capacity, reductions)
    assert len(proj.groups) == 2
    for src, L, t in zip(samples, widths, times):
        proj.add(src, L, t)
    got = proj.projections()
    assert list(got) == list(probes)
    for name, mat in probes.items():
        i = PROBE_SOURCES.index(name)
        want = _per_sample(mat, [src[i] for src in samples], widths)
        if name in reductions:
            want = np.column_stack((want.sum(axis=1), times))
        assert got[name].shape == (count, want.shape[1])
        np.testing.assert_allclose(got[name], want, rtol=1e-13, atol=0.0, err_msg=name)


def _short_run(spec):
    """The spec up to t = 0.5, on the grid that horizon gives: 56
    samples, a multiple of PROBE_BLOCK, and no blow-up."""
    return dataclasses.replace(spec, grid=GridSpec(dr=spec.grid.dr, t_max=0.5))


def test_nonlinearity_integrals_need_the_integral_row(standard_spec):
    # row 0 of identity-matrix probes is the source at r = 0, not its
    # integral, so such a record is refused; integral_probes give the integrals
    spec = _short_run(standard_spec)
    w = radial_weights(radial_grid(spec), spec.n)
    eye = run(spec, probes=dict.fromkeys(PROBE_SOURCES, np.eye(w.size)))
    with pytest.raises(ValueError, match=r"probes\(spec"):
        fn.nonlinearity_integrals(eye)
    nl_q, nl_p = fn.nonlinearity_integrals(run(spec, probes=integral_probes(spec)))
    np.testing.assert_allclose(nl_q, eye.projections["|v|^q"] @ w, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(nl_p, eye.projections["|u_t|^p"] @ w, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("distinct", [False, True], ids=["shared", "distinct"])
def test_run_projections_match_per_sample_products(stored_and_probed, unreduced, profile_run, distinct):
    # the blow-up runs (537 and 173 samples, dt halvings) and a short run
    # whose sample count is a multiple of the block, all without the
    # reductions; with ``distinct`` every source has its own copy of its
    # matrix; the short run has probes of its own, on its shorter grid
    spec, probes, stored, _probed = stored_and_probed
    short = _short_run(spec)
    short_probes = dict(fn.probes(short))
    if distinct:
        probes, short_probes = ({name: mat.copy() for name, mat in each.items()}
                                for each in (probes, short_probes))
        assert len(_Projector(probes, stored.r.size, 1, {}).groups) == len(PROBE_SOURCES)
    for spec_, probes_, stored_, probed_ in (
        (spec, probes, stored, run(spec, probes=probes) if distinct else unreduced),
        (short, short_probes, profile_run(short), run(short, probes=short_probes)),
    ):
        sources = _profile_sources(spec_, stored_)
        widths = _support_widths([sources[name] for name in ("u", "ut", "v", "vt")])
        assert probed_.times.size == len(widths)
        assert (probed_.times.size % PROBE_BLOCK == 0) == (spec_ is short)
        for name, mat in probes_.items():
            want = _per_sample(mat, sources[name], widths)
            np.testing.assert_allclose(probed_.projections[name], want, rtol=1e-13, atol=0.0,
                                       err_msg=name)


def test_identity_probes_on_every_source_are_the_profiles(stored_and_probed, profile_run):
    # one group of six sources on one identity matrix gives back the
    # profiles and nonlinear terms bitwise, as the four-source group does
    spec, _probes, stored, _probed = stored_and_probed
    eye = np.eye(stored.r.size)
    rec = run(spec, probes=dict.fromkeys(PROBE_SOURCES, eye))
    sources = _profile_sources(spec, stored)
    for name in PROBE_SOURCES:
        assert np.array_equal(rec.projections[name], sources[name]), name


def test_readers_take_quad_nodes_from_the_widths(identity_spec, monkeypatch):
    # a probes(spec, quad_nodes=16) record holds curlyU of 16 nodes and is
    # read with 16 nodes by the identity check, whose residuals still pass
    probes = fn.probes(identity_spec, quad_nodes=16)
    rec = run(identity_spec, probes=probes)
    widths = {name: rows.shape[1] for name, rows in rec.projections.items()}
    assert widths == {"u": 2, "ut": 3, "v": 3, "vt": 2, "|v|^q": 18, "|u_t|^p": 18}
    full = run(identity_spec, probes=IntegralProbes(probes)).projections["ut"]
    nodes = fn._kernel_nodes(identity_spec, 0.5, 16)
    curlyU = fn._diag_kernel_series(rec.times, identity_spec.R, *nodes, full[:, 2:])
    np.testing.assert_allclose(fn.extract(rec).curlyU, curlyU, rtol=1e-12, atol=0.0)
    read = []
    kernel_nodes = fn._kernel_nodes
    monkeypatch.setattr(fn, "_kernel_nodes", lambda spec, r, quad_nodes: (
        read.append(quad_nodes), kernel_nodes(spec, r, quad_nodes))[1])
    residuals = fn.check_fundamental_identity(rec)
    # one node set per distinct exponent: r1 + 2, and r1 = r2 = 0.5
    assert read == [16, 16]
    assert max(residuals) < fn.IDENTITY_TOL
    # probes copied into a plain dict lose ``integrals``, and so does
    # their run, which the readers refuse
    plain = run(_short_run(identity_spec), probes=dict(fn.probes(_short_run(identity_spec))))
    assert not plain.integrals
    for reader in (fn.extract, fn.check_fundamental_identity):
        with pytest.raises(ValueError, match=r"probes\(spec"):
            reader(plain)


def test_projection_widths_are_checked(identity_run):
    # source kernel rows whose widths disagree, fewer than 16 kernel rows,
    # a head source with a third column, and u_t or v with their 66
    # lam-projection columns instead of curlyU, curlyV are refused before
    # any series is read
    proj = identity_run.projections
    narrow = {name: rows[:, :17] for name, rows in proj.items()}
    lam_rows = np.zeros((identity_run.times.size, 66))
    for bad in (dict(proj, **{"|u_t|^p": proj["|u_t|^p"][:, :34]}), narrow, dict(proj, u=proj["ut"]),
                dict(proj, ut=lam_rows), dict(proj, v=lam_rows)):
        record = dataclasses.replace(identity_run, projections=bad)
        for reader in (fn.extract, fn.check_fundamental_identity):
            with pytest.raises(ValueError, match=r"projection widths .* quad_nodes \+ 2 >= 18"):
                reader(record)
    # the integral row alone is all nonlinearity_integrals reads
    fn.nonlinearity_integrals(dataclasses.replace(identity_run, projections=narrow))


def _sample0_data_terms(spec, r1, r2):
    """u0 on the r1 + 2 kernel rows, u1 on the r1 rows, v0 and v1 on the
    r2 rows, as sample 0 of a run's projections: the data terms the
    identity check read once from a kernel basis on u and v_t and from
    the lam-projections of u_t and v."""
    short = _short_run(spec)
    grid = radial_grid(short)
    w = radial_weights(grid, spec.n)
    basis = {r: np.vstack((w, w * phi(spec.n, grid),
                           fn._kernel_basis(spec.n, grid, w, fn._kernel_nodes(spec, r, 64)[0])))
             for r in (r1 + 2.0, r1, r2)}
    rec = run(short, probes={"u": basis[r1 + 2.0], "ut": basis[r1], "v": basis[r2], "vt": basis[r2]})
    return tuple(rec.projections[name][0, 2:] for name in ("u", "ut", "v", "vt"))


@pytest.mark.parametrize("kernel", [(0.5, 0.5), (0.3, 0.8)], ids=["r-0.5-0.5", "r-0.3-0.8"])
@pytest.mark.parametrize("name", ["identity", "cusp"])
def test_identity_data_terms_from_the_data(request, monkeypatch, name, kernel):
    # the data terms projected from the spec's data agree with sample 0 of
    # the run's projections (also at another eps with four distinct
    # amplitudes), and so do the residuals they give; the spec's (p, q)
    # is the one whose kernel_exponents are ``kernel``
    spec = request.getfixturevalue(f"{name}_spec")
    half = 0.5 * (spec.n - 1)
    spec = dataclasses.replace(spec, pq=ExponentPair(*(1.0 / (half - r) for r in kernel)))
    r1, r2 = kernel_exponents(spec.n, spec.pq)
    assert (r1, r2) == pytest.approx(kernel, rel=0.0, abs=1e-15)
    exponents = (r1 + 2.0, r1, r2, r2)
    nodes = {r: fn._kernel_nodes(spec, r, 64) for r in exponents}
    other = dataclasses.replace(spec, eps=0.8, data=InitialDataFamily(k=3, amplitudes=(1.0, 2.0, 3.0, 4.0)))
    for spec_ in (other, spec):
        sample0 = _sample0_data_terms(spec_, r1, r2)
        terms = fn._data_terms(spec_, nodes, exponents)
        assert len(terms) == len(sample0) == 4
        for got, want in zip(terms, sample0):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    rec = run(spec, probes=fn.probes(spec))
    residuals = fn.check_fundamental_identity(rec)
    monkeypatch.setattr(fn, "_data_terms", lambda *_args: sample0)
    assert residuals == pytest.approx(fn.check_fundamental_identity(rec), rel=1e-12, abs=0.0)
