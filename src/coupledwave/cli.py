"""Command-line front end.

Verbs: curve (exponent classification), cusp (cusp point and reference
exponents), sequences (iteration tables as CSV), specfn (special
function values and kernel bound reports), solve (one run with CSV
summary and JSON sidecar), identity (fundamental identity residuals),
sweep (epsilon sweep with CSV/JSON report), verify (aggregated property
suite).

Exit codes: 0 success, 1 check failure, 2 configuration error.  All
numeric output is printed with 9 significant digits.

Configuration schema (one JSON document; every field has a default and
flags override file values):

    {
      "problem":  {"n": 3, "p": 2.0, "q": 2.0, "eps": 1.0, "R": 1.0},
      "grid":     {"dr": 0.02, "t_max": 10.0, "r_max": null,
                   "cfl": 0.45, "blowup_threshold": 1e8},
      "damping1": {"family": "zero|power-decay|exp-decay",
                   "mu": 0.0, "beta": 2.0},
      "damping2": {... as damping1 ...},
      "data":     {"k": 3, "amplitudes": [A_u0, A_u1, A_v0, A_v1]},
      "kernels":  {"lambda0": 1.0, "quad_nodes": 64,
                   "r1": null, "r2": null},
      "sweep":    {"eps_values": [...decreasing...], "repeats": 2}
    }
"""

from __future__ import annotations

import argparse
import sys

from . import configio, verify
from . import functionals as fn
from . import iteration as it
from . import lifespan as ls
from .exponents import (
    ExponentPair,
    check_dimension,
    classify,
    cusp_exponents,
    kernel_exponents,
    theta1,
    theta2,
    theta1_critical_q,
    theta2_critical_p,
)
from .solver import integral_probes, run, write_blowup_json, write_summary_csv
from .special import KernelConfig, make_kernel_grid, multiplier, phi, psi, verify_kernel_bounds

__all__ = ["main", "build_parser"]


def _g(x) -> str:
    return format(float(x), ".9g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledwave",
        description="Blow-up laboratory for weakly coupled semilinear damped wave systems",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(sp, config=True, out=False):
        if config:
            sp.add_argument("--config", metavar="PATH", help="JSON configuration file")
        if out:
            sp.add_argument("--out", metavar="PATH", help="output path or directory")

    sp = sub.add_parser("curve", help="evaluate theta1/theta2 and classify")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)

    sp = sub.add_parser("cusp", help="cusp point and reference exponents")
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("sequences", help="iteration sequence tables")
    sp.add_argument("--case", choices=["theta1", "theta2", "double", "subcritical"],
                    required=True)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--jmax", type=int, default=20)
    add_common(sp, config=False, out=True)

    sp = sub.add_parser("specfn", help="special function values and kernel bounds")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--tmax", type=float, default=25.0)
    add_common(sp, config=False, out=True)

    sp = sub.add_parser("solve", help="one solver run")
    add_common(sp, out=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--q", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--tmax", type=float)
    sp.add_argument("--dr", type=float)
    sp.add_argument("--threshold", type=float)

    sp = sub.add_parser("identity", help="fundamental identity residuals")
    add_common(sp, out=False)
    sp.add_argument("--tmax", type=float, default=2.0)
    sp.add_argument("--dr", type=float, default=0.01)

    sp = sub.add_parser("sweep", help="epsilon sweep and scaling fit")
    add_common(sp, out=True)

    sp = sub.add_parser("verify", help="aggregated property suite")

    return parser


def _overrides(cfg, args):
    if getattr(args, "n", None) is not None:
        cfg["problem"]["n"] = args.n
    for field in ("p", "q", "eps"):
        val = getattr(args, field, None)
        if val is not None:
            cfg["problem"][field] = val
    if getattr(args, "tmax", None) is not None:
        cfg["grid"]["t_max"] = args.tmax
    if getattr(args, "dr", None) is not None:
        cfg["grid"]["dr"] = args.dr
    if getattr(args, "threshold", None) is not None:
        cfg["grid"]["blowup_threshold"] = args.threshold
    return cfg


def _load_merged(args):
    user = None
    if getattr(args, "config", None):
        user = configio.load_config(args.config)
    return _overrides(configio.merge_config(user), args)


def _cmd_curve(args) -> int:
    pq = ExponentPair(args.p, args.q)
    data = classify(args.n, pq)
    print(f"theta1={_g(data.theta1)}")
    print(f"theta2={_g(data.theta2)}")
    print(f"region={data.region.value}")
    return 0


def _cmd_cusp(args) -> int:
    c = cusp_exponents(args.n)
    ordered = c.q_mix < c.p_glassey < c.p_strauss < c.p_mix
    print(f"q_mix={_g(c.q_mix)}")
    print(f"p_mix={_g(c.p_mix)}")
    print(f"p_glassey={_g(c.p_glassey)}")
    print(f"p_strauss={_g(c.p_strauss)}")
    print(f"ordering={'OK' if ordered else 'VIOLATED'}")
    return 0 if ordered else 1


def _sequence_pair(args):
    n = args.n
    if args.case == "double":
        c = cusp_exponents(n)
        return c.p_mix, c.q_mix
    if args.case == "theta1":
        p = 2.0 if args.p is None else args.p
        return p, args.q if args.q is not None else theta1_critical_q(n, p)
    if args.case == "theta2":
        q = 1.2 if args.q is None else args.q
        return args.p if args.p is not None else theta2_critical_p(n, q), q
    return (2.0 if args.p is None else args.p, 2.0 if args.q is None else args.q)


def _cmd_sequences(args) -> int:
    p, q = _sequence_pair(args)
    if args.case == "subcritical":
        table, _ = it.subcritical_sequences(args.n, (p, q), args.jmax)
    else:
        table = it.critical_sequences(args.case, args.n, (p, q), args.jmax)
    dev_t = it.closed_form_deviation(table.t_power, table.t_power_closed)
    print(f"family={table.family} n={args.n} p={_g(p)} q={_g(q)} jmax={args.jmax}")
    print(f"closed_form_deviation={_g(dev_t)}")
    if args.out:
        it.write_table_csv(table, args.out)
        print(f"wrote {args.out}")
    else:
        it.write_table_csv(table, "/dev/stdout")
    return 0 if dev_t < it.CLOSED_FORM_TOL else 1


def _cmd_specfn(args) -> int:
    n = check_dimension(args.n, minimum=2)
    grid = make_kernel_grid(args.tmax, 1.0)
    print(f"phi({n}, 0)={_g(phi(n, 0.0))}")
    print(f"phi({n}, 1)={_g(phi(n, 1.0))}")
    print(f"psi({n}, 1, 1)={_g(psi(n, 1.0, 1.0))}")
    from .special import DampingSpec

    b = DampingSpec.power_decay(1.0, 2.0)
    print(f"multiplier(power_decay(1,2), 0)={_g(multiplier(b, 0.0))}")
    c = cusp_exponents(n)
    failed = False
    for label, r in zip(("r1", "r2"), kernel_exponents(n, (c.p_mix, c.q_mix))):
        cfg = KernelConfig(r=r, R=1.0)
        reports = verify_kernel_bounds(cfg, n, grid)
        for rep in reports:
            failed |= not rep.passed
            print(
                f"bound {rep.bound_id.value} ({label}={_g(r)}): "
                f"min={_g(rep.min_ratio)} max={_g(rep.max_ratio)} "
                f"samples={rep.samples} {'ok' if rep.passed else 'FAIL'}"
            )
    return 1 if failed else 0


def _cmd_solve(args) -> int:
    cfg = _load_merged(args)
    spec = configio.problem_spec_from_config(cfg)
    rec = run(spec, probes=integral_probes(spec))
    print(f"blew_up={rec.blew_up}")
    if rec.t_blowup is not None:
        print(f"t_blowup={_g(rec.t_blowup)}")
    if rec.failed:
        print(f"failed={rec.failure_reason}")
    out = args.out or "run"
    write_summary_csv(rec, f"{out}.csv")
    write_blowup_json(rec, f"{out}.json")
    print(f"wrote {out}.csv {out}.json")
    return 1 if rec.failed else 0


def _cmd_identity(args) -> int:
    cfg = _load_merged(args)
    cfg["damping1"]["family"] = "zero"
    cfg["damping2"]["family"] = "zero"
    cfg["data"]["amplitudes"] = [1.0, 1.0, 1.0, 1.0]
    spec = configio.problem_spec_from_config(cfg)
    kp = configio.kernel_params_from_config(cfg)
    r1, r2 = kernel_exponents(spec.n, spec.pq)
    r1 = r1 if kp["r1"] is None else kp["r1"]
    r2 = r2 if kp["r2"] is None else kp["r2"]
    rec = run(spec, probes=fn.probes(spec, r1, r2, kp["lambda0"], kp["quad_nodes"]))
    res_u, res_v = fn.check_fundamental_identity(rec, spec)
    print(f"residual_curlyU={_g(res_u)}")
    print(f"residual_curlyV={_g(res_v)}")
    ok = res_u < fn.IDENTITY_TOL and res_v < fn.IDENTITY_TOL
    print(f"identities={'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    cfg = _load_merged(args)
    sweep_cfg = configio.sweep_config_from_config(cfg)
    table = ls.sweep(sweep_cfg)
    for row in table.rows:
        failed = f" failed={row.failure_reason}" if row.failed else ""
        print(
            f"eps={_g(row.eps)} blew_up={row.blew_up} "
            f"T={_g(row.T_numeric) if row.blew_up else 'n/a'}{failed}"
        )
    if table.fit is not None:
        print(f"fit_slope={_g(table.fit.slope)} r_squared={_g(table.fit.r_squared)}")
    out = args.out or "sweep_out"
    csv_path, json_path = ls.report(table, out)
    print(f"wrote {csv_path} {json_path}")
    return 1 if any(row.failed for row in table.rows) else 0


def _cmd_verify(_args) -> int:
    results = verify.run_verification()
    worst = 0
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        worst = max(worst, 0 if passed else 1)
    return worst


_DISPATCH = {
    "curve": _cmd_curve,
    "cusp": _cmd_cusp,
    "sequences": _cmd_sequences,
    "specfn": _cmd_specfn,
    "solve": _cmd_solve,
    "identity": _cmd_identity,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _DISPATCH[args.verb](args)
    except configio.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
