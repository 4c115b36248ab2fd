"""Guards for the benchmark's tracer, ``perfbench/tracing.py``.

The tracer wraps coupledwave functions by name and reads record fields
(``rec.r``, ``rec.dt_initial``, ``rec.u``...) from what they return, so
a renamed function or a removed field makes every traced benchmark run
crash.  These tests read ``perfbench/`` and change nothing under it.
"""

import importlib
import importlib.util
import json
import os

import pytest

from coupledwave import cli, lifespan

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracing):
    missing = [f"{mod}.{name}" for mod, name in tracing.SPANS
               if not callable(getattr(importlib.import_module(f"coupledwave.{mod}"), name, None))]
    assert missing == []


def test_tracer_survives_the_traced_verbs(tracing, tmp_path, monkeypatch):
    # in-process sweep batches, so the traced runs are this process's
    monkeypatch.setattr(lifespan, "_available_cpus", lambda: 1)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"grid": {"dr": 0.04, "t_max": 1.0},
                               "sweep": {"eps_values": [1.0, 0.5], "repeats": 1}}))
    calls = [
        ["solve", "--tmax", "0.5", "--dr", "0.04", "--out", str(tmp_path / "run")],
        ["identity", "--tmax", "0.5", "--dr", "0.04"],
        ["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")],
        ["sequences", "--case", "double", "--jmax", "3", "--out", str(tmp_path / "t.csv")],
    ]
    tracer = tracing.Tracer()
    tracer.install(cli)
    try:
        codes = [cli.main(argv) for argv in calls]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    layers = tracer.layer_metrics()
    # solve's and identity's (a sweep's rows run through run_batch)
    assert layers["solver.run.calls"] == 2
    assert layers["solver.steps"] > 0 and layers["solver.record_mb"] > 0
    assert layers["functionals.identity.self_s"] > 0
    assert layers["lifespan.rows"] == 2
    assert layers["iteration.sequences.calls"] == 1
    assert layers["io.bytes"] > 0
    assert not hasattr(cli.main, "__wrapped__")  # uninstall restored the bindings
