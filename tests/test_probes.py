"""Kernel probes streamed by ``solver.run`` and the identity check that
reads them."""

import dataclasses

import numpy as np
import pytest

from coupledwave import functionals as fn
from coupledwave.exponents import ExponentPair
from coupledwave.solver import PROBE_SOURCES, radial_grid, run


@pytest.fixture(scope="module", params=[(2.0, 2.0), (2.5, 1.7)], ids=["pq-2-2", "pq-2.5-1.7"])
def stored_and_probed(request, standard_spec):
    """A stored-profile run and a probe-only run of one spec."""
    spec = dataclasses.replace(standard_spec, pq=ExponentPair(*request.param))
    probes = fn.identity_probes(spec, 0.5, 0.3)
    return spec, probes, run(spec), run(spec, store_profiles=False, probes=probes)


def test_probe_run_matches_stored_run(stored_and_probed):
    _spec, _probes, stored, probed = stored_and_probed
    assert stored.blew_up and stored.halvings  # exercises the dt-halving restart
    assert np.array_equal(probed.times, stored.times)
    assert np.array_equal(probed.sup_norms, stored.sup_norms)
    assert probed.t_blowup == stored.t_blowup
    assert probed.dt_final == stored.dt_final
    assert not probed.has_profiles
    assert stored.projections == {}


def test_projections_agree_with_profiles(stored_and_probed):
    spec, probes, stored, probed = stored_and_probed
    p, q = spec.pq.p, spec.pq.q
    sources = {
        "u": stored.u,
        "ut": stored.ut,
        "v": stored.v,
        "vt": stored.vt,
        "|v|^q": np.abs(stored.v) ** q,
        "|u_t|^p": np.abs(stored.ut) ** p,
    }
    assert set(probed.projections) == set(PROBE_SOURCES)
    for name, basis in probes.items():
        got = probed.projections[name]
        assert got.shape == (stored.times.size, basis.shape[0])
        np.testing.assert_allclose(got, sources[name] @ basis.T, rtol=1e-13, atol=0.0)


def test_run_rejects_bad_probes(standard_spec):
    m = radial_grid(standard_spec).size
    with pytest.raises(ValueError, match="unknown probe source"):
        run(standard_spec, store_profiles=False, probes={"w": np.ones((2, m))})
    with pytest.raises(ValueError, match="matrix"):
        run(standard_spec, store_profiles=False, probes={"u": np.ones((2, m + 1))})
    with pytest.raises(ValueError, match="matrix"):
        run(standard_spec, store_profiles=False, probes={"u": np.ones(m)})


def test_identity_check_needs_its_projections(identity_spec, identity_run, standard_run,
                                              standard_spec):
    with pytest.raises(ValueError, match="identity_probes"):
        fn.check_fundamental_identity(standard_run, standard_spec, 0.5, 0.5)
    with pytest.raises(ValueError, match="identity_probes"):
        fn.check_fundamental_identity(identity_run, identity_spec, 0.5, 0.5, quad_nodes=32)
