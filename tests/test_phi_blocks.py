"""phi and log_phi evaluate their sphere quadrature in blocks of
PHI_BLOCK points; the results must be bitwise those of the one-shot
product kept here.

The comparison runs in a child process with one BLAS thread: with more
threads the one-shot product itself splits its rows between threads,
and where a split falls decides which matrix-vector kernel a row meets.
Run this file directly to print the mismatches.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from coupledwave.special import PHI_BLOCK, PHI_NODES, _jacobi_rule, log_phi, phi, surface_area

DIMENSIONS = (1, 2, 3, 5)
SHAPES = (
    (),
    (1,),
    (PHI_BLOCK - 1,),
    (PHI_BLOCK,),
    (PHI_BLOCK + 1,),
    (3 * PHI_BLOCK + 5,),
    (37, 55),
    (3, PHI_BLOCK + 1),
    (64, 461),
    (300, 7),
)


def one_shot_phi(n, radius):
    r = np.asarray(radius, dtype=float)
    if n == 1:
        return np.exp(r) + np.exp(-r)
    a = 0.5 * (n - 3.0)
    tau, w = _jacobi_rule(a, a, PHI_NODES)
    return surface_area(n - 1) * (np.exp(np.multiply.outer(r, tau)) @ w)


def one_shot_log_phi(n, radius):
    r = np.asarray(radius, dtype=float)
    if n == 1:
        return r + np.log1p(np.exp(-2.0 * r))
    a = 0.5 * (n - 3.0)
    tau, w = _jacobi_rule(a, a, PHI_NODES)
    return r + np.log(surface_area(n - 1) * (np.exp(np.multiply.outer(r, tau - 1.0)) @ w))


def mismatches():
    """(function, n, shape) for every input where blocks and one shot differ."""
    rng = np.random.default_rng(11)
    bad = []
    for n in DIMENSIONS:
        for shape in SHAPES:
            radius = rng.uniform(0.0, 60.0, shape)
            for blocked, reference in ((phi, one_shot_phi), (log_phi, one_shot_log_phi)):
                got, want = blocked(n, radius), reference(n, radius)
                if np.shape(got) != np.shape(want) or not np.array_equal(got, want):
                    bad.append((blocked.__name__, n, shape))
    return bad


def test_blocks_equal_one_shot_with_one_blas_thread():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_blocks_keep_shape_and_type():
    assert isinstance(phi(3, 2.0), float)
    assert isinstance(log_phi(3, 2.0), float)
    for shape in ((0,), (2, 0), (0, 3), (4, 5, 3)):
        radius = np.full(shape, 1.5)
        assert phi(3, radius).shape == shape
        assert log_phi(5, radius).shape == shape
    np.testing.assert_allclose(phi(3, np.full((4, 5, 3), 1.5)), phi(3, 1.5), rtol=1e-15)


if __name__ == "__main__":
    found = mismatches()
    for item in found:
        print("mismatch", *item)
    sys.exit(1 if found else 0)
