"""Workload inputs and output checks for the coupledwave benchmark.

Each workload turns a seed into CLI argument lists (plus the JSON
configs some of them read), and checks every verb call's outputs.  For
the default seed the outputs must match ``reference.json``; for any
other seed the workload's invariants are checked instead.

Only the standard library is imported here, so that the set-up probe
can import this module before it starts timing the import of numpy,
scipy and ``coupledwave.cli``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random

DEFAULT_SEED = 0
WORKLOADS = ("sweep-n2", "identity-fine", "theory-tables")

# theory-tables: verb rounds per pass, sized so that one pass takes 2-3 s
THEORY_ROUNDS = 5
SEQUENCE_JMAX = 60
DIMENSIONS = (2, 3, 4, 5, 6)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- input generation ------------------------------------------------------

def sweep_config(seed):
    """n=2, p=q=2 sweep whose eps ladder halves from 1 to 1/16, jittered by up to 2%."""
    rng = random.Random(f"sweep-n2/{seed}")
    eps = [2.0**-k * (1.0 + rng.uniform(-0.02, 0.02)) for k in range(5)]
    return {
        "problem": {"n": 2, "p": 2.0, "q": 2.0, "eps": eps[0], "R": 1.0},
        "grid": {"dr": 0.04, "t_max": 100.0},
        "damping1": {"family": "zero"},
        "damping2": {"family": "zero"},
        "data": {"amplitudes": [4.0, 4.0, 4.0, 4.0]},
        "sweep": {"eps_values": eps, "repeats": 2},
    }


def identity_config(seed):
    """n=3, p=q=2 identity run with eps drawn from [0.9, 1.1]."""
    rng = random.Random(f"identity-fine/{seed}")
    return {"problem": {"n": 3, "p": 2.0, "q": 2.0, "eps": rng.uniform(0.9, 1.1)}}


def _theta1_ok(n, p):
    """p admits a theta1-critical q, and that q lies in (1.1, 6)."""
    c = 0.5 * (n - 1.0)
    return c * p > 1.0 and 1.1 < (c + 1.0 + 1.0 / p) / (c * p - 1.0) < 6.0


def _theta2_ok(n, q):
    """The theta2-critical p for q lies in (1.1, 6)."""
    return 1.1 < (1.0 + 2.0 * (2.0 + 1.0 / q) / (n - 1.0)) / q < 6.0


def _subcritical(n, p, q):
    x = p * q
    t1 = (q + 1.0 + 1.0 / p) / (x - 1.0) - 0.5 * (n - 1)
    t2 = (2.0 + 1.0 / q) / (x - 1.0) - 0.5 * (n - 1)
    return max(t1, t2) > 0.05


def _draw(rng, accept, lo, hi, k=1):
    """k values uniform in [lo, hi] (6 decimals), redrawn until accept(*values)."""
    while True:
        values = [round(rng.uniform(lo, hi), 6) for _ in range(k)]
        if accept(*values):
            return values


def theory_ops(seed, workdir):
    """One round of specfn, sequences, cusp and curve calls.

    Per dimension n = 2..6: three theta1-critical and three
    theta2-critical sequence tables at seeded p (resp. q), the
    double-critical table, and four subcritical tables at seeded (p, q);
    each subcritical pair is also classified with ``curve``.
    """
    rng = random.Random(f"theory-tables/{seed}")
    ops = [["specfn", "--n", str(n)] for n in DIMENSIONS]
    ops += [["cusp", "--n", str(n)] for n in DIMENSIONS]
    pairs = []
    for n in DIMENSIONS:
        tables = []
        for _ in range(3):
            (p,) = _draw(rng, lambda p: _theta1_ok(n, p), 1.1, 6.0)
            tables.append(("theta1", ["--p", repr(p)]))
        for _ in range(3):
            (q,) = _draw(rng, lambda q: _theta2_ok(n, q), 1.1, 6.0)
            tables.append(("theta2", ["--q", repr(q)]))
        tables.append(("double", []))
        for _ in range(4):
            p, q = _draw(rng, lambda p, q: _subcritical(n, p, q), 1.1, 4.0, k=2)
            tables.append(("subcritical", ["--p", repr(p), "--q", repr(q)]))
            pairs.append((n, p, q))
        for case, extra in tables:
            out = os.path.join(workdir, f"seq-{len(ops)}.csv")
            ops.append(["sequences", "--case", case, "--n", str(n), *extra,
                        "--jmax", str(SEQUENCE_JMAX), "--out", out])
    ops += [["curve", "--n", str(n), "--p", repr(p), "--q", repr(q)] for n, p, q in pairs]
    return ops


def write_inputs(workload, seed, workdir):
    """Write the workload's configs and return one round of CLI argument lists."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "sweep-n2":
        path = os.path.join(workdir, "sweep-n2.json")
        _write_json(path, sweep_config(seed))
        return [["sweep", "--config", path, "--out", os.path.join(workdir, "sweep-out")]]
    if workload == "identity-fine":
        path = os.path.join(workdir, "identity-fine.json")
        _write_json(path, identity_config(seed))
        return [["identity", "--config", path, "--dr", "0.0025", "--tmax", "6"]]
    if workload == "theory-tables":
        return theory_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def pass_ops(workload, round_ops):
    """The verb calls of one timed pass."""
    return round_ops * THEORY_ROUNDS if workload == "theory-tables" else list(round_ops)


# --- output checks ---------------------------------------------------------

def _kv(lines):
    out = {}
    for line in lines:
        for item in line.split():
            key, sep, value = item.partition("=")
            if sep:
                out[key] = value
    return out


def _csv_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sweep_rows(outdir):
    with open(os.path.join(outdir, "lifespan.csv"), newline="") as fh:
        return [(float(r["T_numeric"]), r["blew_up"] == "true") for r in csv.DictReader(fh)]


def observe(args, stdout, taps):
    """The checked outputs of one verb call, in the form stored as reference."""
    verb = args[0]
    lines = [ln for ln in stdout.splitlines() if not ln.startswith("wrote ")]
    obs = {"verb": verb, "stdout": lines}
    if verb == "sweep":
        rows = _sweep_rows(args[args.index("--out") + 1])
        obs["T"] = [T for T, _ in rows]
        obs["blew_up"] = [b for _, b in rows]
        obs["grid_change"] = [row.grid_change for row in taps["sweep"].rows]
    elif verb == "sequences":
        obs["csv_sha256"] = _csv_digest(args[args.index("--out") + 1])
    return obs


def _close(a, b, rel=1e-12):
    return a == b or abs(a - b) <= rel * abs(b)


def check_invariants(obs):
    """Checks that hold for every seed; returns a failure message or ''."""
    verb, kv = obs["verb"], _kv(obs["stdout"])
    if verb == "sweep":
        T = obs["T"]
        if not all(obs["blew_up"]) or not all(math.isfinite(t) for t in T):
            return "a sweep row did not blow up"
        if any(later <= earlier for earlier, later in zip(T, T[1:])):
            return f"T not increasing as eps decreases: {T}"
        if not all(g < 0.05 for g in obs["grid_change"]):
            return f"grid_change >= 0.05: {obs['grid_change']}"
    elif verb == "identity":
        res = [float(kv.get(k, "nan")) for k in ("residual_curlyU", "residual_curlyV")]
        if kv.get("identities") != "ok" or not all(r < 0.02 for r in res):
            return f"identity residuals {res}"
    elif verb == "sequences":
        if not float(kv.get("closed_form_deviation", "nan")) < 1e-12:
            return "closed_form_deviation >= 1e-12"
    elif verb == "specfn":
        bounds = [ln for ln in obs["stdout"] if ln.startswith("bound ")]
        if not bounds or not all(ln.endswith(" ok") for ln in bounds):
            return "a specfn kernel bound is not ok"
    elif verb == "cusp":
        if kv.get("ordering") != "OK":
            return "cusp ordering violated"
    return ""


def check_reference(obs, ref):
    """Default-seed comparison with the stored reference; returns a message or ''."""
    if ref is None or ref["verb"] != obs["verb"]:
        return "no matching reference entry"
    if obs["verb"] == "sweep":
        if len(obs["T"]) != len(ref["T"]) or not all(
                _close(a, b) for a, b in zip(obs["T"], ref["T"])):
            return f"T_numeric {obs['T']} != reference {ref['T']}"
        return ""
    if obs["verb"] == "sequences" and obs["csv_sha256"] != ref["csv_sha256"]:
        return "sequence CSV differs from reference"
    if obs["stdout"] != ref["stdout"]:
        return f"printed output differs from reference: {obs['stdout']} != {ref['stdout']}"
    return ""


def check(obs, ref):
    """All checks of one verb call; returns a failure message or ''.

    ``ref`` is the call's stored reference entry, given for the default seed only.
    """
    msg = check_invariants(obs)
    if not msg and ref is not None:
        msg = check_reference(obs, ref)
    return msg
