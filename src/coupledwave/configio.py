"""JSON configuration for runs and sweeps.

A single document with sections {problem, grid, damping1, damping2,
data, kernels, sweep}; every field has a default (``DEFAULT_CONFIG``),
so one file fully reproduces any run.  Damping families are zero,
power-decay and exp-decay; every number must be finite.  The kernel's
one field is ``kernels.quad_nodes`` (its exponents come from n, p, q
and its cutoff is fixed), held to ``KernelConfig``'s bounds.  The grid
ends at R + t_max + 10 dr.  Example:

    {
      "problem": {"n": 3, "p": 2.0, "q": 2.0, "eps": 1.0, "R": 1.0},
      "grid": {"dr": 0.02, "t_max": 10.0, "cfl": 0.45,
               "blowup_threshold": 1e8},
      "damping1": {"family": "zero"},
      "damping2": {"family": "power-decay", "mu": 0.5, "beta": 2.0},
      "data": {"k": 3, "amplitudes": [4.0, 4.0, 4.0, 4.0]},
      "kernels": {"quad_nodes": 64},
      "sweep": {"eps_values": [1.6, 1.4, 1.2, 1.0], "repeats": 2}
    }

``merge_config`` lays documents over the defaults in turn.
"""

from __future__ import annotations

import copy
import json
import math

from .exponents import ExponentPair
from .lifespan import SweepConfig
from .solver import GridSpec, InitialDataFamily, ProblemSpec
from .special import QUAD_NODES, DampingFamily, DampingSpec, KernelConfig

__all__ = ["DEFAULT_CONFIG", "VERB_DEFAULTS", "ConfigError", "load_config", "merge_config",
           "problem_spec_from_config", "sweep_config_from_config",
           "kernel_params_from_config"]

DEFAULT_CONFIG = {
    "problem": {"n": 3, "p": 2.0, "q": 2.0, "eps": 1.0, "R": 1.0},
    "grid": {
        "dr": 0.02,
        "t_max": 10.0,
        "cfl": 0.45,
        "blowup_threshold": 1e8,
    },
    "damping1": {"family": "zero", "mu": 0.0, "beta": 2.0},
    "damping2": {"family": "zero", "mu": 0.0, "beta": 2.0},
    "data": {"k": 3, "amplitudes": [4.0, 4.0, 4.0, 4.0]},
    "kernels": {"quad_nodes": QUAD_NODES},
    "sweep": {"eps_values": [1.6, 1.4, 1.2, 1.0, 0.9, 0.8], "repeats": 2},
}
# a verb's own defaults, laid between DEFAULT_CONFIG and its --config file:
# the undamped identity problem, which ``verify`` checks too
VERB_DEFAULTS = {"identity": {"grid": {"dr": 0.01, "t_max": 2.0},
                              "data": {"amplitudes": (1.0, 1.0, 1.0, 1.0)}}}


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def load_config(path) -> dict:
    """Parse a JSON config file; errors carry line/column."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def merge_config(*docs) -> dict:
    """Defaults overlaid with each document's sections/fields in turn, so
    a later document wins; a ``None`` document is skipped."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for doc in docs:
        if doc is None:
            continue
        for section, values in doc.items():
            if section not in cfg:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(values, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            for key, val in values.items():
                if key not in cfg[section]:
                    raise ConfigError(f"unknown field {section}.{key}")
                cfg[section][key] = val
    return cfg


def _is_number(value) -> bool:
    """A JSON number: int or float, not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_int(value, field: str) -> int:
    """Integer field; an integral float such as 3.0 is accepted, 3.7,
    a boolean and a string are not."""
    if not (_is_number(value) and (isinstance(value, int) or value.is_integer())):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, field: str) -> float:
    """Field that must be a finite JSON number (Python's json reads the
    literals NaN and Infinity)."""
    if not _is_number(value):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    if not math.isfinite(out):
        raise ConfigError(f"{field} must be finite, got {out}")
    return out


def _as_floats(value, field: str) -> tuple:
    """Field that must be a JSON array of finite numbers."""
    if not (isinstance(value, (list, tuple)) and all(_is_number(v) for v in value)):
        raise ConfigError(f"{field} must be an array of numbers, got {value!r}")
    return tuple(_as_float(v, field) for v in value)


def _damping_from(section: dict, name: str) -> DampingSpec:
    try:
        family = DampingFamily(section["family"])
    except ValueError as exc:
        raise ConfigError(f"unknown damping family {section['family']!r}") from exc
    try:
        return DampingSpec(family=family, mu=_as_float(section["mu"], f"{name}.mu"),
                           beta=_as_float(section["beta"], f"{name}.beta"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def problem_spec_from_config(cfg: dict) -> ProblemSpec:
    """Build a ProblemSpec from a merged config document; initial data
    that violate the blow-up hypotheses (``hypotheses_ok``) are refused."""
    prob = cfg["problem"]
    grid = cfg["grid"]
    data = cfg["data"]
    try:
        spec = ProblemSpec(
            n=_as_int(prob["n"], "problem.n"),
            pq=ExponentPair(_as_float(prob["p"], "problem.p"), _as_float(prob["q"], "problem.q")),
            b1=_damping_from(cfg["damping1"], "damping1"),
            b2=_damping_from(cfg["damping2"], "damping2"),
            R=_as_float(prob["R"], "problem.R"),
            eps=_as_float(prob["eps"], "problem.eps"),
            data=InitialDataFamily(
                k=_as_int(data["k"], "data.k"),
                amplitudes=_as_floats(data["amplitudes"], "data.amplitudes"),
            ),
            grid=GridSpec(
                dr=_as_float(grid["dr"], "grid.dr"),
                t_max=_as_float(grid["t_max"], "grid.t_max"),
                cfl=_as_float(grid["cfl"], "grid.cfl"),
                blowup_threshold=_as_float(grid["blowup_threshold"], "grid.blowup_threshold"),
            ),
        )
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(f"invalid problem configuration: {exc}") from exc
    if not spec.data.hypotheses_ok():
        raise ConfigError(
            "invalid problem configuration: initial data violates the blow-up "
            "hypotheses (nonnegative amplitudes with A_u1 > 0 and A_v0 > 0)"
        )
    return spec


def sweep_config_from_config(cfg: dict) -> SweepConfig:
    base = problem_spec_from_config(cfg)
    sw = cfg["sweep"]
    try:
        return SweepConfig(
            base=base,
            eps_values=_as_floats(sw["eps_values"], "sweep.eps_values"),
            repeats=_as_int(sw["repeats"], "sweep.repeats"),
        )
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid sweep configuration: {exc}") from exc


def kernel_params_from_config(cfg: dict) -> dict:
    """The keyword arguments of ``functionals.probes``: quad_nodes, held
    to the bounds of ``KernelConfig``."""
    quad_nodes = _as_int(cfg["kernels"]["quad_nodes"], "kernels.quad_nodes")
    # KernelConfig states the bound; r = 0 is valid, and its message
    # starts with the field's name
    try:
        KernelConfig(r=0.0, quad_nodes=quad_nodes)
    except ValueError as exc:
        raise ConfigError(f"kernels.{exc}") from exc
    return {"quad_nodes": quad_nodes}
