"""Probe projections streamed by ``solver.run``, the functionals read
from them, and the identity check."""

import dataclasses

import numpy as np
import pytest

from coupledwave import functionals as fn
from coupledwave.exponents import ExponentPair
from coupledwave.solver import PROBE_SOURCES, radial_grid, radial_weights, run
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
    series = fn.extract(probed, spec, r1, r2)
    for name, want in expected.items():
        np.testing.assert_allclose(getattr(series, name), want, rtol=1e-12, atol=0.0,
                                   err_msg=name)
    nl_q, nl_p = fn.nonlinearity_integrals(probed, spec)
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


def test_identity_check_needs_its_projections(identity_spec, identity_run):
    bare = dataclasses.replace(identity_run, projections={})
    for reader in (fn.check_fundamental_identity, fn.extract):
        with pytest.raises(ValueError, match=r"probes\(spec"):
            reader(bare, identity_spec, 0.5, 0.5)
        with pytest.raises(ValueError, match=r"probes\(spec"):
            reader(identity_run, identity_spec, 0.5, 0.5, quad_nodes=32)
    with pytest.raises(ValueError, match=r"probes\(spec"):
        fn.nonlinearity_integrals(bare, identity_spec)
