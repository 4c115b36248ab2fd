import json

import pytest

from coupledwave import configio
from coupledwave.cli import main


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


def test_sequences_subcritical(tmp_path):
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
    assert "FAIL" not in out


def test_kernels_offset_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "offset.json"
    cfg.write_text(json.dumps({"kernels": {"offset": 0.1}}))
    with pytest.raises(configio.ConfigError):
        configio.merge_config(json.loads(cfg.read_text()))
    assert main(["identity", "--config", str(cfg)]) == 2
    assert "kernels.offset" in capsys.readouterr().err


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
    assert "nan" not in out and "FAIL" not in out


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
        (["solve"], {"grid": {"r_max": float("inf")}}),
        (["solve"], {"data": {"amplitudes": [1.0, float("inf"), 1.0, 1.0]}}),
        (["sweep"], {"sweep": {"eps_values": [0.5, float("nan")]}}),
        (["sweep"], {"sweep": {"eps_values": [float("inf"), 0.5]}}),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_inputs_exit_2(argv, doc, tmp_path, capsys):
    if doc is not None:
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))  # writes Infinity / NaN, which json reads back
        argv = [*argv, "--config", str(cfg)]
    code = main([*argv, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


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
