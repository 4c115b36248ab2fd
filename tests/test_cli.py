import argparse
import dataclasses
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import coupledwave
from coupledwave import cli, configio, lifespan, verify
from coupledwave import functionals as fn
from coupledwave.cli import main
from coupledwave.special import QUAD_NODES, KernelConfig


def test_curve_verb(capsys):
    code = main(["curve", "--n", "3", "--p", "2", "--q", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "theta1=0.166666667" in out
    assert "theta2=-0.166666667" in out
    assert "region=subcritical" in out


def test_cusp_verb(capsys):
    code = main(["cusp", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "q_mix=1.3660254" in out
    assert "p_mix=2.73205081" in out
    assert "p_glassey=2" in out
    assert "p_strauss=2.41421356" in out
    assert "ordering=OK" in out


def test_sequences_verb(tmp_path, capsys):
    out_path = tmp_path / "seq.csv"
    code = main(["sequences", "--case", "double", "--n", "3", "--jmax", "10",
                 "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("j,coeff_log,coeff_log_closed")
    assert len(lines) == 12
    out = capsys.readouterr().out
    assert "closed_form_deviation" in out


def test_sequences_subcritical(tmp_path, monkeypatch):
    # the verb prints the V-family table and builds no U'-family table
    monkeypatch.setattr(cli.it, "subcritical_uprime_sequences", None)
    out_path = tmp_path / "sub.csv"
    code = main(["sequences", "--case", "subcritical", "--n", "3",
                 "--p", "2", "--q", "2", "--jmax", "5", "--out", str(out_path)])
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 7


def test_unknown_verb_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"problem": {"n": 3,}}')
    code = main(["solve", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


def test_unknown_config_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"posterior": {}}')
    assert main(["solve", "--config", str(cfg)]) == 2


def test_solve_verb_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "problem": {"eps": 0.5},
                "grid": {"dr": 0.04, "t_max": 1.0},
                "data": {"amplitudes": [1.0, 1.0, 1.0, 1.0]},
            }
        )
    )
    out = tmp_path / "runout"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (tmp_path / "runout.csv").exists()
    meta = json.loads((tmp_path / "runout.json").read_text())
    assert meta["blew_up"] is False
    header = (tmp_path / "runout.csv").read_text().splitlines()[0]
    assert header == "t,maxu,maxut,maxv,U,V,Uprime,Vprime"


def test_identity_verb(capsys):
    code = main(["identity", "--dr", "0.02", "--tmax", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "identities=ok" in out


def test_identity_of_one_sample_exits_2(capsys):
    # t_max 0.005 records t = 0 alone, where both sides of each identity
    # are the same sums: residuals of 0 that check nothing
    assert main(["identity", "--tmax", "0.005"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the identity check needs two samples at least")
    assert "t_max=0.005 at dt=0.0045" in captured.err


def test_sweep_verb(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"dr": 0.04, "t_max": 6.0},
                "sweep": {"eps_values": [1.6, 1.2], "repeats": 1},
            }
        )
    )
    out_dir = tmp_path / "sweep_out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "lifespan.csv").exists()
    assert (out_dir / "lifespan.json").exists()
    out = capsys.readouterr().out
    assert "fit_slope" in out


def test_specfn_verb(capsys):
    code = main(["specfn", "--n", "3", "--tmax", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bound xi0" in out
    assert "bound eta-diag" in out
    bounds = [line for line in out.splitlines() if line.startswith("bound ")]
    assert len(bounds) == 10 and all(line.endswith(" ok") for line in bounds)


def test_kernels_offset_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "offset.json"
    cfg.write_text(json.dumps({"kernels": {"offset": 0.1}}))
    with pytest.raises(configio.ConfigError):
        configio.merge_config(json.loads(cfg.read_text()))
    assert main(["identity", "--config", str(cfg)]) == 2
    assert "kernels.offset" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("r1", 0.5), ("r2", 0.5), ("lambda0", 1.0)])
@pytest.mark.parametrize("verb", ["identity", "solve"])
def test_kernel_exponents_and_cutoff_are_not_fields(verb, field, value, tmp_path, capsys):
    # the exponents come from (n, p, q) and the cutoff is special.LAMBDA0:
    # a file that sets one, even to the value the run uses, is refused
    cfg = tmp_path / "kernel.json"
    cfg.write_text(json.dumps({"kernels": {field: value}}))
    argv = [verb, "--config", str(cfg)]
    if verb != "identity":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown field kernels.{field}" in captured.err
    assert "Traceback" not in captured.err


def test_one_default_quad_nodes():
    # KernelConfig, functionals.probes and the config's kernels section
    # read one default lam-node count
    assert KernelConfig(r=0.0).quad_nodes == QUAD_NODES == 64
    assert inspect.signature(fn.probes).parameters["quad_nodes"].default == QUAD_NODES
    assert configio.DEFAULT_CONFIG["kernels"]["quad_nodes"] == QUAD_NODES
    assert configio.kernel_params_from_config(configio.merge_config({})) == {"quad_nodes": QUAD_NODES}


def test_identity_reads_quad_nodes_from_the_config(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "nodes.json"
    cfg.write_text(json.dumps({"kernels": {"quad_nodes": 32}}))
    calls = []
    probes = fn.probes
    monkeypatch.setattr(fn, "probes", lambda spec, **kw: (calls.append(kw), probes(spec, **kw))[1])
    assert main(["identity", "--config", str(cfg)]) == 0
    assert calls == [{"quad_nodes": 32}]
    assert "identities=ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "section, field, value, build",
    [
        ("problem", "n", 3.7, configio.problem_spec_from_config),
        ("data", "k", 3.5, configio.problem_spec_from_config),
        ("sweep", "repeats", 2.5, configio.sweep_config_from_config),
        ("kernels", "quad_nodes", 64.5, configio.kernel_params_from_config),
    ],
)
def test_non_integral_integer_fields_rejected(section, field, value, build):
    cfg = configio.merge_config({section: {field: value}})
    with pytest.raises(configio.ConfigError, match=f"{section}.{field}"):
        build(cfg)
    # an integral float is still an integer
    build(configio.merge_config({section: {field: float(int(value))}}))


@pytest.mark.parametrize("tmax", ["nan", "inf", "-1"])
def test_specfn_bad_tmax_exits_2_before_output(tmax, capsys):
    assert main(["specfn", "--n", "3", "--tmax", tmax]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t_max must be finite and nonnegative" in captured.err


def test_specfn_long_horizon_prints_no_nan(capsys):
    code = main(["specfn", "--n", "3", "--tmax", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nan" not in out
    assert all(line.endswith(" ok") for line in out.splitlines() if line.startswith("bound "))


@pytest.mark.parametrize("tmax", ["2e6", "1e308"])
def test_specfn_refuses_horizons_past_double_range(tmax, capsys):
    # at n = 2 the xi-s ratios underflow to 0 by t_max 2e6 (a false FAIL
    # line before), and at 1e308 the kernels' arguments overflow (a
    # RuntimeWarning traceback under -W error before)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["specfn", "--n", "2", "--tmax", tmax]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: kernel bound ratio ")
    assert f"t_max={float(tmax):g}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--n", "3", "--p", "inf", "--q", "2"],
        ["curve", "--n", "3", "--p", "2", "--q", "nan"],
        ["sequences", "--case", "subcritical", "--p", "inf"],
    ],
)
def test_non_finite_exponents_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exponents must be finite" in captured.err



def test_specfn_bad_dimension_exits_2_before_output(capsys):
    assert main(["specfn", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dimension must be >= 2" in captured.err


def test_sequences_with_huge_p_runs(capsys):
    # 2^(2(p+1)) overflows a double for p above about 510
    argv = ["sequences", "--case", "subcritical", "--n", "3", "--p", "600", "--q", "2",
            "--jmax", "3"]
    assert main(argv) == 0
    assert "closed_form_deviation=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["solve", "--tmax", "inf"], None),
        (["solve", "--eps", "inf"], None),
        (["solve"], {"problem": {"R": float("inf")}}),
        (["solve"], {"grid": {"dr": float("nan")}}),
        (["solve"], {"grid": {"cfl": float("nan")}}),
        (["solve"], {"data": {"amplitudes": [1.0, float("inf"), 1.0, 1.0]}}),
        (["sweep"], {"sweep": {"eps_values": [0.5, float("nan")]}}),
        (["sweep"], {"sweep": {"eps_values": [float("inf"), 0.5]}}),
        (["solve"], {"damping2": {"family": "power-decay", "mu": float("nan")}}),
        (["solve"], {"damping1": {"family": "exp-decay", "mu": float("inf")}}),
        (["solve"], {"damping1": {"family": "power-decay", "mu": 0.5, "beta": float("inf")}}),
        (["solve"], {"grid": {"blowup_threshold": float("inf")}}),
        (["identity"], {"problem": {"eps": float("inf")}}),
        (["identity"], {"grid": {"dr": float("nan")}}),
        (["identity"], {"problem": {"q": float("inf")}}),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_inputs_exit_2(argv, doc, tmp_path, capsys):
    if doc is not None:
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))  # writes Infinity / NaN, which json reads back
        argv = [*argv, "--config", str(cfg)]
    if argv[0] != "identity":
        argv = [*argv, "--out", str(tmp_path / "out")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


def test_identity_nan_residual_fails(monkeypatch, capsys):
    solve = verify.run

    def nan_run(spec, probes):
        rec = solve(spec, probes=probes)
        nan = {name: np.full_like(rows, np.nan) for name, rows in rec.projections.items()}
        return dataclasses.replace(rec, projections=nan)

    monkeypatch.setattr(verify, "run", nan_run)
    assert main(["identity", "--dr", "0.04", "--tmax", "0.5"]) == 1
    out = capsys.readouterr().out
    assert "residual_curlyU=nan" in out
    assert "identities=FAIL" in out


class _Stop(Exception):
    pass


def _identity_spec(monkeypatch, argv, doc=None, tmp_path=None):
    """The ProblemSpec that ``identity`` hands the solver, without running it."""
    seen = []

    def stop(spec, probes):
        seen.append(spec)
        raise _Stop

    monkeypatch.setattr(verify, "run", stop)
    if doc is not None:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        argv = [*argv, "--config", str(cfg)]
    with pytest.raises(_Stop):
        main(["identity", *argv])
    return seen[0]


def test_identity_defaults_without_file_or_flags(monkeypatch):
    spec = _identity_spec(monkeypatch, [])
    assert (spec.grid.dr, spec.grid.t_max) == (0.01, 2.0)
    assert spec.data.amplitudes == (1.0, 1.0, 1.0, 1.0)
    assert spec.b1.is_zero and spec.b2.is_zero


def test_identity_reads_every_field_of_its_file(monkeypatch, tmp_path):
    doc = {"problem": {"eps": 0.7}, "grid": {"dr": 0.04, "t_max": 1.0},
           "data": {"amplitudes": [2.0, 3.0, 4.0, 5.0]}}
    spec = _identity_spec(monkeypatch, [], doc, tmp_path)
    assert (spec.grid.dr, spec.grid.t_max, spec.eps) == (0.04, 1.0, 0.7)
    assert spec.data.amplitudes == (2.0, 3.0, 4.0, 5.0)
    # a flag still wins over the file
    spec = _identity_spec(monkeypatch, ["--dr", "0.025", "--tmax", "0.5"], doc, tmp_path)
    assert (spec.grid.dr, spec.grid.t_max, spec.eps) == (0.025, 0.5, 0.7)


def test_damped_identity_config_exits_2(monkeypatch, tmp_path, capsys):
    def no_run(*_args, **_kwargs):
        raise AssertionError("a damped identity config must be refused before the run")

    monkeypatch.setattr(verify, "run", no_run)
    cfg = tmp_path / "damped.json"
    cfg.write_text(json.dumps({"grid": {"dr": 0.04, "t_max": 0.5},
                               "damping1": {"family": "exp-decay", "mu": 0.5}}))
    assert main(["identity", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hold for zero damping only" in captured.err


@pytest.mark.parametrize(
    "doc, message",
    [
        # solve reads neither kernels nor sweep, and printed blew_up=False on this file
        ({"grid": {"dr": 0.04, "t_max": 1},
          "kernels": {"quad_nodes": "x"}, "sweep": {"eps_values": "bogus"}},
         "sweep.eps_values must be an array of numbers"),
        ({"grid": {"dr": 0.04, "t_max": 1}, "kernels": {"quad_nodes": "x"}},
         "kernels.quad_nodes must be an integer"),
        # the Gauss-Jacobi rule's cost grows as quad_nodes^3; solve exited 0 here
        ({"grid": {"dr": 0.04, "t_max": 1}, "kernels": {"quad_nodes": 513}},
         "kernels.quad_nodes must lie in [16, 512], got 513"),
        # the cutoff is a constant, not set
        ({"grid": {"dr": 0.04, "t_max": 1}, "kernels": {"lambda0": -1.0}},
         "unknown field kernels.lambda0"),
        ({"grid": {"dr": 0.04, "t_max": 1}, "data": {"amplitudes": [4, -4, 4, 4]}},
         "invalid problem configuration: initial data violates the blow-up hypotheses "
         "(nonnegative amplitudes with A_u1 > 0 and A_v0 > 0)\n"),
    ],
    ids=["sweep-and-kernels", "kernels", "kernels-quad-nodes-bound", "kernels-lambda0-bound",
         "data-hypotheses"],
)
@pytest.mark.parametrize("verb", ["solve", "identity", "sweep"])
def test_every_config_section_is_checked_by_every_verb(verb, doc, message, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    argv = [verb, "--config", str(cfg)]
    if verb != "identity":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert message in captured.err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize(
    "argv, dimension",
    [
        (["solve", "--n", "344", "--tmax", "2", "--dr", "0.04"], 344),  # Gamma(n/2)
        (["specfn", "--n", "345"], 344),  # phi reads the sphere in R^(n-1)
        (["solve", "--n", "343", "--tmax", "10", "--dr", "0.04"], 343),  # r^(n-1)
    ],
    ids=["solve-gamma", "specfn-gamma", "solve-radial-weights"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_dimension_exits_2(argv, dimension, tmp_path, capsys):
    if argv[0] == "solve":
        argv = [*argv, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: dimension {dimension} too large")


def test_specfn_has_no_out_flag(capsys):
    assert main(["specfn", "--out", "x"]) == 2
    assert "unrecognized arguments: --out x" in capsys.readouterr().err


def test_merge_config_applies_documents_in_order():
    cfg = configio.merge_config({"problem": {"n": 2, "p": 3.0}}, None,
                                {"problem": {"n": 4}, "grid": {"dr": 0.04}})
    assert cfg["problem"] == {**configio.DEFAULT_CONFIG["problem"], "n": 4, "p": 3.0}
    assert cfg["grid"]["dr"] == 0.04
    assert configio.merge_config() == configio.merge_config(None) == configio.DEFAULT_CONFIG
    with pytest.raises(configio.ConfigError, match="unknown field grid.bogus"):
        configio.merge_config({"grid": {"dr": 0.04}}, {"grid": {"bogus": 1}})


def test_sweep_failed_row_exits_1(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "problem": {"n": 3},
        "grid": {"dr": 0.02, "t_max": 2.0, "cfl": 0.99, "blowup_threshold": 1e300},
        "data": {"amplitudes": [8.0, 8.0, 8.0, 8.0]},
        "sweep": {"eps_values": [1.0], "repeats": 1},
    }))
    out_dir = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 1
    out = capsys.readouterr().out
    assert "blew_up=False T=n/a failed=non-finite values at t=" in out
    rows = json.loads((out_dir / "lifespan.json").read_text())["rows"]
    assert rows[0]["failure_reason"].startswith("non-finite values at t=")


@pytest.mark.parametrize(
    "verb, doc, message",
    [
        ("sweep", {"sweep": {"eps_values": 0.5}}, "sweep.eps_values must be an array of numbers"),
        ("sweep", {"sweep": {"eps_values": "1"}}, "sweep.eps_values must be an array of numbers"),
        ("sweep", {"sweep": {"eps_values": [1.0, True]}},
         "sweep.eps_values must be an array of numbers"),
        ("sweep", {"data": {"amplitudes": "4444"}}, "data.amplitudes must be an array of numbers"),
        ("solve", {"data": {"amplitudes": "4444"}}, "data.amplitudes must be an array of numbers"),
        ("sweep", {"sweep": {"repeats": True}}, "sweep.repeats must be an integer"),
        ("solve", {"problem": {"n": "3"}}, "problem.n must be an integer"),
        ("identity", {"kernels": {"quad_nodes": True}}, "kernels.quad_nodes must be an integer"),
        ("solve", {"problem": {"p": 10**400}}, "too large"),
        ("sweep", {"sweep": {"eps_values": [10**400]}}, "too large"),
        ("solve", {"problem": {"eps": "0.5", "p": "2"}, "grid": {"dr": "0.04", "t_max": "4"}},
         "problem.p must be a number"),
        ("solve", {"problem": {"q": "2"}}, "problem.q must be a number"),
        ("solve", {"problem": {"eps": "0.5"}}, "problem.eps must be a number"),
        ("sweep", {"problem": {"R": True}}, "problem.R must be a number"),
        ("solve", {"grid": {"dr": "0.04"}}, "grid.dr must be a number"),
        ("solve", {"grid": {"t_max": "4"}}, "grid.t_max must be a number"),
        # the grid's end is worked out from R and t_max, not set
        ("solve", {"grid": {"r_max": "12"}}, "unknown field grid.r_max"),
        ("solve", {"grid": {"cfl": "0.45"}}, "grid.cfl must be a number"),
        ("solve", {"grid": {"blowup_threshold": "1e8"}}, "grid.blowup_threshold must be a number"),
        ("identity", {"damping1": {"family": "power-decay", "mu": True, "beta": "2"}},
         "damping1.mu must be a number"),
        ("identity", {"damping2": {"family": "power-decay", "beta": "2"}}, "damping2.beta must be a number"),
        # the kernel's exponents come from (n, p, q) and its cutoff is a
        # constant: none of them is set
        ("identity", {"kernels": {"lambda0": "1"}}, "unknown field kernels.lambda0"),
        ("identity", {"kernels": {"r1": "0.5"}}, "unknown field kernels.r1"),
        ("identity", {"kernels": {"r2": False}}, "unknown field kernels.r2"),
        ("identity", {"kernels": {"lambda0": 10**400}}, "unknown field kernels.lambda0"),
    ],
    ids=["eps-number", "eps-string", "eps-boolean", "amplitudes-string-sweep",
         "amplitudes-string-solve", "repeats-boolean", "n-string", "quad-nodes-boolean",
         "p-huge-integer", "eps-huge-integer", "scalar-strings", "q-string", "problem-eps-string",
         "R-boolean", "dr-string", "t-max-string", "r-max-string", "cfl-string",
         "threshold-string", "mu-boolean", "beta-string", "lambda0-string", "r1-string",
         "r2-boolean", "lambda0-huge-integer"],
)
def test_wrong_type_config_fields_exit_2(verb, doc, message, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    argv = [verb, "--config", str(cfg)]
    if verb != "identity":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert message in captured.err  # "configuration error": a ConfigError


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_batch_error_exits_2(cpus, monkeypatch, tmp_path, capsys):
    # with two CPUs the error is raised in a worker process
    monkeypatch.setattr(lifespan, "_available_cpus", lambda: cpus)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"grid": {"blowup_threshold": 1e-3},
                               "sweep": {"eps_values": [1.0, 0.5], "repeats": 2}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: blowup_threshold must exceed the initial sup norms\n"
    assert multiprocessing.active_children() == []


def test_oversized_grid_exits_2(tmp_path, capsys):
    # the radial grid of 5e13 points (364 TiB) exceeds the address space,
    # so the allocation fails at once and touches no memory
    assert main(["solve", "--tmax", "1e12", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate ")


def test_grid_past_double_range_exits_2(tmp_path, capsys):
    # (R + t_max + 10 dr) / dr overflows to inf: refused as too large,
    # where int(inf) raised OverflowError with a traceback
    assert main(["solve", "--tmax", "1e308", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Maximum allowed size exceeded\n"


@pytest.mark.parametrize("cpus", [1, 2])
def test_oversized_sweep_grid_exits_2(cpus, monkeypatch, tmp_path, capsys):
    # with two CPUs the allocation fails in a worker process
    monkeypatch.setattr(lifespan, "_available_cpus", lambda: cpus)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"grid": {"t_max": 1e12}, "sweep": {"eps_values": [1.0, 0.5], "repeats": 2}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate ")
    assert not (tmp_path / "out").exists()
    assert multiprocessing.active_children() == []


VERIFY_CHECKS = ["cusp-algebra", "closed-forms", "kernel-bounds", "solver-convergence",
                 "fundamental-identity", "functional-floors", "lifespan-sweep",
                 "threshold-consistency"]


def test_verify_verb(claims, monkeypatch, capsys):
    # the registry's claims as the session measured them
    stubs = tuple((name, lambda result=claims[name]: result) for name, _ in verify.CLAIMS)
    monkeypatch.setattr(verify, "CLAIMS", stubs)
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"PASS {name}: {claims[name][2]}" for name in VERIFY_CHECKS]


def test_verify_json_prints_one_object_per_claim(claims, monkeypatch, capsys):
    stubs = tuple((name, lambda result=claims[name]: result) for name, _ in verify.CLAIMS)
    monkeypatch.setattr(verify, "CLAIMS", stubs)
    assert main(["verify", "--json"]) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [doc["name"] for doc in docs] == VERIFY_CHECKS
    for doc in docs:
        passed, measured, detail = claims[doc["name"]]
        assert list(doc) == ["name", "passed", "measured", "detail"]
        assert doc["passed"] is passed is True and doc["detail"] == detail
        assert doc["measured"] == measured
    # a failing claim keeps the exit code and prints passed false
    monkeypatch.setattr(verify, "CLAIMS", (("cusp-algebra", lambda: (False, {"x": np.float64(2.5)}, "no")),))
    assert main(["verify", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "name": "cusp-algebra", "passed": False, "measured": {"x": 2.5}, "detail": "no"}


def test_verify_check_error_is_a_failure(monkeypatch, capsys):
    def broken():
        raise RuntimeError("broken check")

    stubs = tuple((name, lambda: (True, {}, "stub")) for name in VERIFY_CHECKS[1:])
    monkeypatch.setattr(verify, "CLAIMS", (("cusp-algebra", broken), *stubs))
    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL cusp-algebra: error: broken check"
    # the suite goes on past the failing check
    assert lines[1:] == [f"PASS {name}: stub" for name in VERIFY_CHECKS[1:]]


def test_identity_defaults_print_the_claims_residuals(claims, capsys):
    # the identity verb and the fundamental-identity claim solve one problem
    assert main(["identity"]) == 0
    m = claims["fundamental-identity"][1]
    assert capsys.readouterr().out.splitlines()[:2] == [
        f"residual_curlyU={m['residual_curlyU']:.9g}", f"residual_curlyV={m['residual_curlyV']:.9g}"]


# a representative argv per verb, every flag given, and one with the defaults
VERB_ARGV = {
    "curve": ["curve", "--n", "3", "--p", "2", "--q", "2.5"],
    "cusp": ["cusp", "--n", "4"],
    "sequences": ["sequences", "--case", "theta1", "--n", "2", "--p", "3", "--q", "1.5",
                  "--jmax", "7", "--out", "t.csv"],
    "specfn": ["specfn", "--n", "5", "--tmax", "8"],
    "solve": ["solve", "--config", "c.json", "--out", "o", "--n", "2", "--p", "2", "--q", "3",
              "--eps", "0.5", "--tmax", "4", "--dr", "0.04", "--threshold", "1e6"],
    "identity": ["identity", "--config", "c.json", "--tmax", "1", "--dr", "0.02"],
    "sweep": ["sweep", "--config", "c.json", "--out", "o"],
    "verify": ["verify", "--json"],
}
DEFAULT_ARGV = [["sequences", "--case", "double"], ["specfn"], ["solve"], ["identity"],
                ["sweep"], ["verify"]]


def test_verb_table_matches_dispatch():
    assert list(cli._VERBS) == list(VERB_ARGV)


@pytest.mark.parametrize("argv", [*VERB_ARGV.values(), *DEFAULT_ARGV], ids=" ".join)
def test_shared_parser_parses_as_new_parser(argv):
    # the shared parser first parses the verb with every flag given, and
    # then parses argv as a parser built for it alone would
    cli.build_parser().parse_args(VERB_ARGV[argv[0]])
    assert cli.build_parser().parse_args(argv) == cli.build_parser.__wrapped__().parse_args(argv)


def test_main_reuses_one_parser(monkeypatch, capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["cusp", "--n", "3"]) == 0
    assert main(["--help"]) == 0
    assert main(["frobnicate"]) == 2
    assert built == []
    # a flag given in one call is not left over for the next
    assert parser.parse_args(["sequences", "--case", "double", "--p", "3"]).p == 3.0
    assert parser.parse_args(["sequences", "--case", "double"]).p is None


def test_import_builds_no_parser():
    # the parser is built at the first main call, not at import
    src = os.path.dirname(os.path.dirname(coupledwave.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import coupledwave.cli as cli; print(cli.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert done.stdout.split() == ["0"]


TEXT_ARGV = [
    ["--help"], [], ["frobnicate"], *([verb, "--help"] for verb in VERB_ARGV),
    ["curve", "--n", "3"],  # a required flag missing
    ["sequences", "--case", "bogus"],  # an invalid --case
    ["sequences", "--case", "double", "--bogus"],  # an unknown flag, reported by the top level
    ["cusp", "--n", "x"],
]


@pytest.mark.parametrize("argv", TEXT_ARGV, ids=lambda argv: " ".join(argv) or "no-verb")
def test_cli_text_matches_full_parser(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    full = capsys.readouterr()
    assert code == exc.value.code
    assert captured.out == full.out
    assert captured.err == full.err


def test_sequences_without_out_writes_table_to_stdout(capsys):
    assert main(["sequences", "--case", "double", "--n", "3", "--jmax", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("family=critical-double n=3 ")
    assert lines[1].startswith("closed_form_deviation=")
    assert lines[2].startswith("j,coeff_log,coeff_log_closed,")
    assert len(lines) == 7


def test_sequences_redirected_to_file_keeps_summary(tmp_path):
    # the table goes after the summary lines, not over them
    src = os.path.dirname(os.path.dirname(coupledwave.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = tmp_path / "t.txt"
    with open(out, "w") as fh:
        subprocess.run([sys.executable, "-m", "coupledwave.cli", "sequences", "--case", "double",
                        "--n", "3", "--jmax", "3"], stdout=fh, env=env, check=True)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("family=critical-double")
    assert lines[1].startswith("closed_form_deviation=")
    assert lines[2].startswith("j,coeff_log,coeff_log_closed,")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sequences", "--case", "subcritical", "--p", "1e308", "--q", "2"],
         "subcritical-v sequences leave double range at j = 1"),
        (["sequences", "--case", "subcritical", "--p", "1000", "--q", "1000", "--jmax", "60"],
         "leave double range at j = 51"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sequences_out_of_double_range_exit_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
