"""Shared solver fixtures; session-scoped since runs are deterministic.

``claims`` measures each claim of ``verify.CLAIMS`` once per session.
The standard, damped and negative problems are the functional-floors
claim's (``verify.floor_specs``), solved once per session
(``floor_records``): their ``*_run`` fixtures are the records that
claim reads.  The ``*_run`` fixtures carry the projections of
``functionals.probes(spec)``, whose kernel exponents are the spec's
``kernel_exponents``: r1 = r2 = 0.5 at n = 3, p = q = 2, and both
equality values at the cusp.
"""

import random

import numpy as np
import pytest

from coupledwave import lifespan, verify
from coupledwave.exponents import ExponentPair, cusp_exponents
from coupledwave.functionals import probes
from coupledwave.lifespan import SweepConfig
from coupledwave.solver import (
    GridSpec,
    InitialDataFamily,
    ProblemSpec,
    radial_grid,
    run,
)
from coupledwave.special import DampingSpec


@pytest.fixture(scope="session")
def floor_records():
    """``verify.floor_records()``, solved once per session."""
    return verify.floor_records()


@pytest.fixture(scope="session")
def claims(floor_records):
    """name -> (passed, measured, detail) of each ``verify.CLAIMS``
    entry, in registry order, measured once per session by the suite
    runner of the ``verify`` verb; the functional-floors claim reads the
    session's ``floor_records``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "floor_records", lambda: floor_records)
        return {name: result for name, *result in verify.run_verification()}


@pytest.fixture(scope="session")
def standard_spec():
    """Strongly subcritical undamped blow-up run (n=3, p=q=2)."""
    return verify.floor_specs()["standard"]


@pytest.fixture(scope="session")
def standard_run(floor_records):
    return floor_records["standard"]


def run_profiles(spec):
    """run(spec) with identity-matrix probes: the u, ut, v, vt
    projections are the sampled profiles themselves."""
    eye = np.eye(radial_grid(spec).size)
    return run(spec, probes=dict.fromkeys(("u", "ut", "v", "vt"), eye))


@pytest.fixture(scope="session")
def profile_run():
    return run_profiles


@pytest.fixture(scope="session")
def standard_profiles(standard_spec):
    """The standard run's sampled profiles, from identity-matrix probes."""
    return run_profiles(standard_spec)


@pytest.fixture(scope="session")
def damped_spec():
    """Same problem with scattering-class power-decay damping."""
    return verify.floor_specs()["damped"]


@pytest.fixture(scope="session")
def damped_run(floor_records):
    return floor_records["damped"]


@pytest.fixture(scope="session")
def negative_spec():
    """Sign-flipped u1: violates the blow-up hypotheses on purpose."""
    return verify.floor_specs()["negative"]


@pytest.fixture(scope="session")
def negative_run(floor_records):
    return floor_records["negative"]


@pytest.fixture(scope="session")
def identity_spec():
    """Fine-grid undamped short-horizon run for the exact identities."""
    return ProblemSpec(
        n=3,
        pq=ExponentPair(2.0, 2.0),
        b1=DampingSpec.zero(),
        b2=DampingSpec.zero(),
        R=1.0,
        eps=1.0,
        data=InitialDataFamily(k=3, amplitudes=(1.0, 1.0, 1.0, 1.0)),
        grid=GridSpec(dr=0.005, t_max=2.0),
    )


@pytest.fixture(scope="session")
def identity_run(identity_spec):
    """Probe run for the identity check (kernel exponents r1 = r2 = 0.5)."""
    return run(identity_spec, probes=probes(identity_spec))


@pytest.fixture(scope="session")
def cusp_spec():
    """Double-critical run at the n=3 cusp point.

    u-dominant data: the |u_t|^p source then drives curlyV's growth
    from the start, so the log-seed ratios are minimised at the fit
    point.
    """
    c = cusp_exponents(3)
    return ProblemSpec(
        n=3,
        pq=ExponentPair(c.p_mix, c.q_mix),
        b1=DampingSpec.zero(),
        b2=DampingSpec.zero(),
        R=1.0,
        eps=1.0,
        data=InitialDataFamily(k=3, amplitudes=(2.5, 2.5, 1.0, 1.0)),
        grid=GridSpec(dr=0.02, t_max=12.0),
    )


@pytest.fixture(scope="session")
def cusp_run(cusp_spec):
    return run(cusp_spec, probes=probes(cusp_spec))


def _sweep_n2_in_process(seed):
    """The benchmark's sweep-n2 sweep (n = 2, eps halving from 1 to 1/16,
    jittered by ``seed``, dr 0.04 and 0.02), run in-process: its
    config, its table and each repeat's whole-ladder batch as (specs,
    records)."""
    rng = random.Random(f"sweep-n2/{seed}")
    eps = [2.0**-k * (1.0 + rng.uniform(-0.02, 0.02)) for k in range(5)]
    base = ProblemSpec(
        n=2, pq=ExponentPair(2.0, 2.0), b1=DampingSpec.zero(), b2=DampingSpec.zero(),
        R=1.0, eps=eps[0], data=InitialDataFamily(k=3, amplitudes=(4.0, 4.0, 4.0, 4.0)),
        grid=GridSpec(dr=0.04, t_max=100.0),
    )
    cfg = SweepConfig(base, tuple(eps), 2)
    batches = []
    real = lifespan.run_batch

    def recording(specs):
        records = real(specs)
        batches.append((specs, records))
        return records

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lifespan, "_available_cpus", lambda: 1)
        mp.setattr(lifespan, "run_batch", recording)
        table = lifespan.sweep(cfg)
    return cfg, table, batches


@pytest.fixture(scope="session")
def sweep_n2():
    """seed -> ``_sweep_n2_in_process(seed)``, computed once per session
    and shared by the batch pins and the pool comparison."""
    runs = {}

    def in_process(seed):
        if seed not in runs:
            runs[seed] = _sweep_n2_in_process(seed)
        return runs[seed]

    return in_process
