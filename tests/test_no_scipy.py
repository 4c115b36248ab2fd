"""The package needs numpy alone at run time.

A fresh interpreter with scipy made unimportable imports ``coupledwave``
and its CLI and runs the verbs that build quadrature rules (``specfn``,
``identity``, ``solve``) and a short ``sweep``; none of them may load
scipy.
"""

import os
import subprocess
import sys

import coupledwave

SCRIPT = r"""
import json, os, sys
sys.modules["scipy"] = None  # importing scipy or any scipy.* now raises ImportError
import coupledwave
import coupledwave.cli

work = sys.argv[1]
cfg = os.path.join(work, "sweep.json")
with open(cfg, "w") as fh:
    json.dump({"grid": {"dr": 0.04, "t_max": 3.0}, "sweep": {"eps_values": [2.0], "repeats": 1}}, fh)
codes = [coupledwave.cli.main(argv) for argv in (
    ["specfn", "--n", "3"],
    ["identity", "--dr", "0.02", "--tmax", "1"],
    ["solve", "--dr", "0.05", "--tmax", "1", "--out", os.path.join(work, "solve")],
    ["sweep", "--config", cfg, "--out", os.path.join(work, "sweep")],
)]
assert sys.modules["scipy"] is None, "scipy was loaded"
assert not [name for name in sys.modules if name.startswith("scipy.")], "a scipy module was loaded"
print("codes", *codes)
"""


def test_cli_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(coupledwave.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "codes 0 0 0 0"
