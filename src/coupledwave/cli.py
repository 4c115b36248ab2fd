"""Command-line front end.

Verbs, their handlers and their flags are declared once, in ``_VERBS``;
``coupledwave --help`` lists the verbs with their help text.

Exit codes: 0 success, 1 check failure, 2 configuration error.  All
numeric output is printed with 9 significant digits.

``solve``, ``identity`` and ``sweep`` read one configuration, whose
schema and defaults are in ``configio``.  ``_config`` lays together,
each over the one before: the defaults, the verb's own defaults
(``identity``: dr 0.01, t_max 2 and unit amplitudes), the ``--config``
file and the flags given, and reads every section of the result, so
one file is refused by all three verbs or by none.
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


# flag -> the configuration field it sets, in the verbs that read one
_FLAG_FIELDS = {"n": ("problem", "n"), "p": ("problem", "p"), "q": ("problem", "q"),
                "eps": ("problem", "eps"), "tmax": ("grid", "t_max"), "dr": ("grid", "dr"),
                "threshold": ("grid", "blowup_threshold")}
# a verb's own defaults, laid between the defaults and its --config file
_VERB_DEFAULTS = {"identity": {"grid": {"dr": 0.01, "t_max": 2.0},
                               "data": {"amplitudes": (1.0, 1.0, 1.0, 1.0)}}}


def _config(args):
    """The run's configuration, (SweepConfig, kernel parameters), whose
    ``base`` is the problem: the defaults overlaid with the verb's own,
    the --config file and the flags given, in turn, with every section
    checked whichever of them the verb uses."""
    flags = {}
    for flag, (section, key) in _FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is not None:
            flags.setdefault(section, {})[key] = value
    user = configio.load_config(args.config) if args.config else None
    cfg = configio.merge_config(_VERB_DEFAULTS.get(args.verb), user, flags)
    return configio.sweep_config_from_config(cfg), configio.kernel_params_from_config(cfg)


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
        it.write_table_csv(table, sys.stdout)
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
    spec = _config(args)[0].base
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
    sweep_cfg, kp = _config(args)
    spec = sweep_cfg.base
    fn.require_zero_damping(spec)
    r1, r2 = kernel_exponents(spec.n, spec.pq)
    r1 = r1 if kp["r1"] is None else kp["r1"]
    r2 = r2 if kp["r2"] is None else kp["r2"]
    rec = run(spec, probes=fn.probes(spec, r1, r2, kp["lambda0"], kp["quad_nodes"]))
    res_u, res_v = fn.check_fundamental_identity(rec)
    print(f"residual_curlyU={_g(res_u)}")
    print(f"residual_curlyV={_g(res_v)}")
    ok = res_u < fn.IDENTITY_TOL and res_v < fn.IDENTITY_TOL
    print(f"identities={'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    table = ls.sweep(_config(args)[0])
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


_CONFIG = ("--config", dict(metavar="PATH", help="JSON configuration file"))
_OUT = ("--out", dict(metavar="PATH", help="output path or directory"))

# verb -> (help, handler, [(flag, add_argument keyword arguments)]), in --help order
_VERBS = {
    "curve": ("evaluate theta1/theta2 and classify", _cmd_curve, [
        ("--n", dict(type=int, required=True)), ("--p", dict(type=float, required=True)),
        ("--q", dict(type=float, required=True))]),
    "cusp": ("cusp point and reference exponents", _cmd_cusp, [
        ("--n", dict(type=int, required=True))]),
    "sequences": ("iteration sequence tables", _cmd_sequences, [
        ("--case", dict(choices=["theta1", "theta2", "double", "subcritical"], required=True)),
        ("--n", dict(type=int, default=3)), ("--p", dict(type=float)), ("--q", dict(type=float)),
        ("--jmax", dict(type=int, default=20)), _OUT]),
    "specfn": ("special function values and kernel bounds", _cmd_specfn, [
        ("--n", dict(type=int, default=3)), ("--tmax", dict(type=float, default=25.0))]),
    "solve": ("one solver run", _cmd_solve, [
        _CONFIG, _OUT, ("--n", dict(type=int)), ("--p", dict(type=float)),
        ("--q", dict(type=float)), ("--eps", dict(type=float)), ("--tmax", dict(type=float)),
        ("--dr", dict(type=float)), ("--threshold", dict(type=float))]),
    "identity": ("fundamental identity residuals", _cmd_identity, [
        _CONFIG, ("--tmax", dict(type=float)), ("--dr", dict(type=float))]),
    "sweep": ("epsilon sweep and scaling fit", _cmd_sweep, [_CONFIG, _OUT]),
    "verify": ("aggregated property suite", _cmd_verify, []),
}


def build_parser(verbs=tuple(_VERBS)) -> argparse.ArgumentParser:
    """The argument parser with a subparser for each of ``verbs`` only
    (by default all eight).  A partial parser still names every verb in
    its usage line, so its error messages read as the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="coupledwave",
        description="Blow-up laboratory for weakly coupled semilinear damped wave systems",
    )
    metavar = None if len(verbs) == len(_VERBS) else "{%s}" % ",".join(_VERBS)
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for verb in verbs:
        help_text, _, flags = _VERBS[verb]
        sp = sub.add_parser(verb, help=help_text)
        for flag, kwargs in flags:
            sp.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # building the subparsers is most of a short call's fixed cost: a known
    # verb gets its own only, anything else the full parser and its messages
    parser = build_parser(argv[:1] if argv[:1] and argv[0] in _VERBS else tuple(_VERBS))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _VERBS[args.verb][1](args)
    except configio.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
