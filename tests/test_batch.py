"""Bitwise pins of ``run_batch``: every batched row equals ``run`` of its spec.

The rows of a batch share one leapfrog on stacked buffers and leave it
when they blow up, fail or halve dt, so each ladder below is chosen to
exercise one of those exits.  Both sides run on the same machine, so
the checks are ``==`` / ``np.array_equal``.
"""

from dataclasses import replace

import numpy as np
import pytest

from coupledwave.exponents import ExponentPair
from coupledwave.functionals import probes
from coupledwave.solver import GridSpec, InitialDataFamily, ProblemSpec, run, run_batch
from coupledwave.special import DampingSpec

FIELDS = ("t_blowup", "sup_times", "sup_norms", "dt_final", "halvings", "window_max",
          "cone_spill", "crossed", "failed", "failure_reason", "times", "blew_up", "steps")


def _spec(n=2, pq=(2.0, 2.0), dr=0.04, t_max=100.0, b1=None, b2=None, amplitudes=(4.0,) * 4,
          cfl=0.45, threshold=1e8):
    return ProblemSpec(
        n=n, pq=ExponentPair(*pq), b1=b1 or DampingSpec.zero(), b2=b2 or DampingSpec.zero(),
        R=1.0, eps=1.0, data=InitialDataFamily(k=3, amplitudes=amplitudes),
        grid=GridSpec(dr=dr, t_max=t_max, cfl=cfl, blowup_threshold=threshold),
    )


def _assert_rows_equal_singles(base, eps_values, probe_set=None):
    specs = [replace(base, eps=eps) for eps in eps_values]
    batched = run_batch(specs, probe_set)
    _assert_records_equal_singles(specs, batched, probe_set)
    return batched


def _assert_records_equal_singles(specs, batched, probe_set=None):
    assert len(batched) == len(specs)
    for spec, rec in zip(specs, batched):
        single = run(spec, probe_set)
        assert rec.spec is spec and rec.dt_initial == spec.grid.dt
        for name in FIELDS:
            a, b = getattr(rec, name), getattr(single, name)
            assert (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b), name
        if rec.blew_up:  # the crossing level is always sampled
            assert rec.times[-1] == rec.sup_times[-1]
        assert rec.projections.keys() == single.projections.keys()
        for source, proj in rec.projections.items():
            assert np.array_equal(proj, single.projections[source]), source


@pytest.mark.parametrize("seed", [0, 7])
def test_sweep_n2_ladders(sweep_n2, seed):
    # the benchmark's sweep-n2 ladders, batched as its in-process sweep
    # runs them: eps halving from 1 to 1/16, jittered
    _cfg, _table, batches = sweep_n2(seed)
    assert [specs[0].grid.dr for specs, _ in batches] == [0.04, 0.02]
    for specs, rows in batches:
        _assert_records_equal_singles(specs, rows)
        assert all(rec.blew_up for rec in rows)


def test_one_and_two_halvings_and_horizon():
    rows = _assert_rows_equal_singles(_spec(t_max=5.0), (1.0, 0.5, 0.1))
    assert [len(rec.halvings) for rec in rows] == [2, 1, 0]
    assert not rows[2].blew_up and not rows[2].failed


@pytest.mark.parametrize("n, dr, t_max, eps", [
    (1, 0.04, 40.0, (1.0, 0.5, 0.25)),
    (3, 0.02, 16.0, (1.6, 1.4, 1.2, 1.0, 0.9, 0.8)),
])
def test_dimension_ladders(n, dr, t_max, eps):
    rows = _assert_rows_equal_singles(_spec(n=n, dr=dr, t_max=t_max), eps)
    assert all(rec.blew_up for rec in rows)


def test_unequal_exponents():
    rows = _assert_rows_equal_singles(_spec(n=3, pq=(2.5, 1.7), dr=0.02, t_max=16.0), (1.6, 1.0, 0.7))
    assert all(rec.blew_up for rec in rows)


def test_power_damping():
    base = _spec(t_max=60.0, b1=DampingSpec.power_decay(1.0, 2.0), b2=DampingSpec.power_decay(0.5, 1.5))
    rows = _assert_rows_equal_singles(base, (1.0, 0.5, 0.25))
    assert all(rec.blew_up for rec in rows)


def test_failed_rows():
    base = _spec(n=3, dr=0.02, t_max=2.0, cfl=0.99, threshold=1e300, amplitudes=(8.0,) * 4)
    rows = _assert_rows_equal_singles(base, (1.0, 0.9, 0.5))
    assert all(rec.failed and "non-finite" in rec.failure_reason for rec in rows)


def test_rows_halving_together_leave_as_one_batch():
    # equal rows halve at the same step and split off together, while
    # the third row goes on
    rows = _assert_rows_equal_singles(_spec(t_max=10.0), (1.0, 1.0, 0.25))
    assert rows[0].halvings and rows[0].halvings == rows[1].halvings


def test_batched_probes(standard_spec):
    rows = _assert_rows_equal_singles(standard_spec, (1.0, 0.8), probes(standard_spec, 0.5, 0.5))
    assert all(rec.kernel == (0.5, 0.5, 1.0, 64) for rec in rows)


def test_batch_rows_must_differ_only_in_eps():
    base = _spec(t_max=5.0)
    with pytest.raises(ValueError, match="differ only in eps"):
        run_batch([base, replace(base, n=3)])
    with pytest.raises(ValueError, match="at least one"):
        run_batch([])
