"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Exact counts must repeat between two traced runs of one seed, a wrong
reference value must be reported as a failed operation, and without the
program's sources the benchmark must fail without printing a result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import EXACT_COUNTS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def traced(workload, seed):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat(workload):
    first, second = traced(workload, 3), traced(workload, 3)
    assert first["correct"] and second["correct"]
    counts = [(first["metrics"][n]["value"], second["metrics"][n]["value"]) for n in EXACT_COUNTS]
    assert all(a == b for a, b in counts), dict(zip(EXACT_COUNTS, counts))
    assert any(a for a, _ in counts)


@pytest.fixture(scope="module")
def reference():
    with open(run.REFERENCE) as fh:
        return json.load(fh)


def test_sweep_reference_tolerance(reference):
    ref = reference["sweep-n2"][0]
    obs = copy.deepcopy(ref)
    obs["T"][-1] *= 1.0 + 1e-13
    assert workloads.check_reference(obs, ref) == ""
    obs["T"][-1] *= 1.0 + 1e-9
    assert "T_numeric" in workloads.check_reference(obs, ref)


def test_wrong_reference_is_a_failure(reference, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    import coupledwave.cli as cli

    round_ops = workloads.write_inputs("theory-tables", workloads.DEFAULT_SEED, str(tmp_path))
    verbs = [args[0] for args in round_ops]
    picks = [verbs.index("cusp"), verbs.index("sequences")]
    ops = [round_ops[i] for i in picks]
    good = [reference["theory-tables"][i] for i in picks]
    runner = run.Runner(cli, ops, len(ops), good, {})
    runner.run_pass()
    assert runner.attempted == 2 and runner.failures == []

    bad = copy.deepcopy(good)
    bad[0]["stdout"][0] += "0"
    bad[1]["csv_sha256"] = "0" * 64
    runner = run.Runner(cli, ops, len(ops), bad, {})
    runner.run_pass()
    assert runner.attempted == 2 and len(runner.failures) == 2


def test_fails_without_program():
    bare = os.path.join(HERE, "_work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = bench("--workload", "sweep-n2", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
