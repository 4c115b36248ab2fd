"""Probe projections streamed by ``solver.run``, the functionals read
from them, and the identity check."""

import dataclasses

import numpy as np
import pytest

from coupledwave import functionals as fn
from coupledwave.exponents import ExponentPair
from coupledwave.solver import (
    PROBE_BLOCK,
    PROBE_SOURCES,
    GridSpec,
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
    with the probes of ``functionals.probes``."""
    spec = dataclasses.replace(standard_spec, pq=ExponentPair(*request.param))
    probes = fn.probes(spec, 0.5, 0.3)
    return spec, probes, profile_run(spec), run(spec, probes=probes)


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


def test_projections_agree_with_profiles(stored_and_probed):
    spec, probes, stored, probed = stored_and_probed
    sources = _profile_sources(spec, stored)
    assert set(probed.projections) == set(PROBE_SOURCES)
    for name, basis in probes.items():
        got = probed.projections[name]
        assert got.shape == (stored.times.size, basis.shape[0])
        np.testing.assert_allclose(got, sources[name] @ basis.T, rtol=1e-13, atol=0.0)


def test_probe_rows(standard_spec):
    # row 0 is the radial weights, row 1 Phi times them, then quad_nodes
    # kernel rows; sources with one kernel basis share one matrix
    r = radial_grid(standard_spec)
    w = radial_weights(r, standard_spec.n)
    probes = fn.probes(standard_spec, 0.5, 0.3, quad_nodes=16)
    for mat in probes.values():
        assert mat.shape == (18, r.size)
        assert np.array_equal(mat[0], w)
        assert np.array_equal(mat[1], w * phi(standard_spec.n, r))
    assert probes["ut"] is probes["|v|^q"]
    assert probes["v"] is probes["vt"] is probes["|u_t|^p"]
    assert len({id(mat) for mat in probes.values()}) == 3
    with pytest.raises(ValueError, match="r > -1"):
        fn.probes(standard_spec, -1.5, 0.3)


def test_extract_matches_profile_formula(stored_and_probed):
    # the formulas extract used on stored profiles, applied here to the
    # identity-probe profiles
    spec, _probes, stored, probed = stored_and_probed
    r1, r2 = 0.5, 0.3
    src = _profile_sources(spec, stored)
    w = radial_weights(stored.r, spec.n)
    wp = phi(spec.n, stored.r) * w
    decay = np.exp(-stored.times)

    def curly(r, prof):
        lam, wl = fn._kernel_nodes(spec, r, 1.0, 64)
        proj = prof @ fn._kernel_basis(spec.n, stored.r, lam).T
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
    proj = _Projector(probes, m, capacity)
    assert len(proj.groups) == 2
    for src, L in zip(samples, widths):
        proj.add(src, L)
    got = proj.projections()
    for name, mat in probes.items():
        i = PROBE_SOURCES.index(name)
        want = _per_sample(mat, [src[i] for src in samples], widths)
        assert got[name].shape == (count, mat.shape[0])
        np.testing.assert_allclose(got[name], want, rtol=1e-13, atol=0.0, err_msg=name)


def _short_run(spec):
    """The spec on its grid up to t = 0.5: 56 samples, a multiple of
    PROBE_BLOCK, and no blow-up."""
    return dataclasses.replace(spec, grid=GridSpec(dr=spec.grid.dr, t_max=0.5, r_max=spec.grid.r_max))


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
def test_run_projections_match_per_sample_products(stored_and_probed, profile_run, distinct):
    # the blow-up runs (537 and 173 samples, dt halvings) and a short run
    # whose sample count is a multiple of the block; with ``distinct``
    # every source has its own copy of its matrix
    spec, probes, stored, probed = stored_and_probed
    if distinct:
        probes = {name: mat.copy() for name, mat in probes.items()}
        assert len(_Projector(probes, stored.r.size, 1).groups) == len(PROBE_SOURCES)
    short = _short_run(spec)
    for spec_, stored_, probed_ in (
        (spec, stored, run(spec, probes=probes) if distinct else probed),
        (short, profile_run(short), run(short, probes=probes)),
    ):
        sources = _profile_sources(spec_, stored_)
        widths = _support_widths([sources[name] for name in ("u", "ut", "v", "vt")])
        assert probed_.times.size == len(widths)
        assert (probed_.times.size % PROBE_BLOCK == 0) == (spec_ is short)
        for name, mat in probes.items():
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


def test_records_carry_their_kernel(identity_spec, identity_run):
    # the readers take the kernel exponents from the record, so a record
    # cannot be read with other exponents than its probes'
    assert identity_run.kernel == (0.5, 0.5, 1.0, 64)
    assert fn.probes(identity_spec, 0.3, 1.5, 2.0, 16).kernel == (0.3, 1.5, 2.0, 16)
    series = fn.extract(identity_run)
    assert (series.r1, series.r2) == (0.5, 0.5)
    # probes copied into a plain dict lose the stamp, and so does their run
    unstamped = run(identity_spec, probes=dict(fn.probes(identity_spec, 0.5, 0.5)))
    assert unstamped.kernel is None
    for reader in (fn.extract, fn.check_fundamental_identity):
        with pytest.raises(ValueError, match=r"probes\(spec"):
            reader(unstamped)
