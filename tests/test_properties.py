"""Property tests (hypothesis) of classify, threshold_time,
detect_blowup, merge_config and the command-line verbs, those that run
no solver and those that solve.

Each property is stated from its definition, not from the code: the
region of a pair from the signs of theta1 and theta2, the eps exponent
of a threshold from the predicted lifespan, the crossing time from the
first row at or above the threshold, and the merged configuration from
the documents laid over the defaults in turn.  Examples are
derandomized, so every run draws the same ones.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coupledwave import lifespan
from coupledwave.cli import _FLAG_FIELDS, main
from coupledwave.configio import DEFAULT_CONFIG, ConfigError, merge_config
from coupledwave.exponents import (
    EQUALITY_TOL,
    Region,
    classify,
    cusp_exponents,
    lifespan_prediction,
    theta1,
    theta1_critical_q,
    theta2,
    theta2_critical_p,
)
from coupledwave.iteration import IterationConstants, divergence_driver, threshold_time
from coupledwave.solver import detect_blowup

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

dimensions = st.integers(min_value=2, max_value=10)
exponents = st.floats(min_value=1.001, max_value=12.0)

# (sign of theta1, sign of theta2) at EQUALITY_TOL -> region; any
# positive sign is subcritical
REGION_OF_SIGNS = {
    (-1, -1): Region.SUPERCRITICAL,
    (0, 0): Region.DOUBLE_CRITICAL,
    (0, -1): Region.CRITICAL_THETA1,
    (-1, 0): Region.CRITICAL_THETA2,
}


def _sign(theta):
    return 1 if theta > EQUALITY_TOL else -1 if theta < -EQUALITY_TOL else 0


def _region_of(n, pq):
    signs = (_sign(theta1(n, pq)), _sign(theta2(n, pq)))
    return Region.SUBCRITICAL if 1 in signs else REGION_OF_SIGNS[signs]


@SETTINGS
@given(n=dimensions, p=exponents, q=exponents)
def test_classify_matches_the_signs_of_theta(n, p, q):
    data = classify(n, (p, q))
    assert (data.theta1, data.theta2) == (theta1(n, (p, q)), theta2(n, (p, q)))
    assert data.region is _region_of(n, (p, q))


@SETTINGS
@given(n=dimensions, e=exponents, side=st.sampled_from(["theta1", "theta2"]))
def test_critical_curve_points_classify_as_critical(n, e, side):
    # a point of one critical curve has that theta zero to EQUALITY_TOL;
    # it is on the boundary of the subcritical region when the other
    # theta is not positive
    try:
        pq = (e, theta1_critical_q(n, e)) if side == "theta1" else (theta2_critical_p(n, e), e)
    except ValueError:  # the curve leaves p, q > 1
        assume(False)
    assume(max(pq) < 1e6)
    on, other = (theta1, theta2) if side == "theta1" else (theta2, theta1)
    assert abs(on(n, pq)) <= EQUALITY_TOL
    region = classify(n, pq).region
    assert region is _region_of(n, pq)
    if other(n, pq) <= EQUALITY_TOL:
        assert region in (Region.DOUBLE_CRITICAL,
                          Region.CRITICAL_THETA1 if side == "theta1" else Region.CRITICAL_THETA2)


@SETTINGS
@given(n=dimensions, p=st.floats(1.5, 12.0), offset=st.integers(-60, 60))
def test_classify_near_the_theta1_curve(n, p, offset):
    # q a few 1e-9 off the curve: theta1 lands on both sides of EQUALITY_TOL
    try:
        q = theta1_critical_q(n, p) + offset * 1e-9
    except ValueError:  # the curve leaves q > 1
        assume(False)
    assert classify(n, (p, q)).region is _region_of(n, (p, q))


# the blow-up regions, with the subcritical one split by its dominant theta
BLOWUP_REGIONS = ["theta1-dominant", "theta2-dominant", Region.CRITICAL_THETA1,
                  Region.CRITICAL_THETA2, Region.DOUBLE_CRITICAL]


@st.composite
def blowup_points(draw, where):
    """(n, (p, q)) in the blow-up region ``where``: on the subcritical
    branch it names, on a critical curve or at the cusp."""
    n = draw(st.integers(min_value=2, max_value=6))
    c = cusp_exponents(n)
    if where is Region.DOUBLE_CRITICAL:
        return n, (c.p_mix, c.q_mix)
    f = draw(st.floats(0.05, 0.95))
    if where is Region.CRITICAL_THETA1:
        # critical from the cusp down to p = 2/(n-1), where q runs off
        p = c.p_mix - f * (c.p_mix - max(1.0, 2.0 / (n - 1.0)))
        pq = (p, theta1_critical_q(n, p))
    elif where is Region.CRITICAL_THETA2:
        # critical from q = 1 up to the cusp
        q = 1.0 + f * (c.q_mix - 1.0)
        pq = (theta2_critical_p(n, q), q)
    elif where == "theta2-dominant":
        # theta2 > theta1 for p > 1/(1 + 1/q - q), and theta2 > 0 below
        # the theta2 curve: between the two when q is below the cusp's
        q = 1.0 + f * (c.q_mix - 1.0)
        lo, hi = 1.0 / (1.0 + 1.0 / q - q), theta2_critical_p(n, q)
        pq = (lo + draw(st.floats(0.05, 0.95)) * (hi - lo), q)
    else:
        pq = tuple(draw(st.lists(st.floats(1.05, 4.0), min_size=2, max_size=2)))
    data = classify(n, pq)
    if isinstance(where, str):
        assume(data.region is Region.SUBCRITICAL
               and (data.theta1 >= data.theta2) == (where == "theta1-dominant"))
    else:
        assume(data.region is where)
    return n, pq


@pytest.mark.parametrize("where", BLOWUP_REGIONS, ids=lambda w: getattr(w, "value", w))
@settings(SETTINGS, max_examples=12)
@given(data=st.data(), eps=st.lists(st.floats(0.3, 0.9), min_size=2, max_size=2),
       consts=st.lists(st.floats(0.2, 5.0), min_size=6, max_size=6))
def test_threshold_eps_exponent_is_the_predicted_one(where, data, eps, consts):
    # T ~ eps^exponent, or log T ~ eps^exponent on the critical curves,
    # and the family's driver is 1 at the threshold
    n, pq = data.draw(blowup_points(where))
    e1, e2 = eps
    assume(abs(math.log(e1 / e2)) > 0.05)
    con = IterationConstants(n, pq, *consts)
    ths = [threshold_time(con, e) for e in eps]
    assume(all(math.isfinite(th.log_T) for th in ths))
    critical = isinstance(where, Region)
    h1, h2 = (math.log(th.log_T) if critical else th.log_T for th in ths)
    slope = (h1 - h2) / math.log(e1 / e2)
    assert slope == pytest.approx(lifespan_prediction(n, pq).exponent, rel=1e-9)
    for e, th in zip(eps, ths):
        drv = divergence_driver(th.family, con, e, log_t=th.log_T)
        assert drv == pytest.approx(1.0, rel=1e-12)


@st.composite
def norm_series(draw):
    """Increasing times, nonnegative sup norms in one to three columns,
    and a positive threshold."""
    rows = draw(st.integers(min_value=1, max_value=25))
    cols = draw(st.integers(min_value=1, max_value=3))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=rows, max_size=rows))
    times = np.cumsum(steps) - steps[0]
    values = draw(st.lists(st.floats(0.0, 1e12), min_size=rows * cols, max_size=rows * cols))
    norms = np.array(values).reshape(rows, cols)
    # or a crossing exactly at a row: a row's level, or the largest, which
    # no later row exceeds
    levels = [v for v in norms.max(axis=1)[1:].tolist() if v > 0]
    exact = [st.sampled_from(levels), st.just(max(levels))] if levels else []
    threshold = draw(st.one_of(st.floats(1e-2, 1e11), *exact))
    return times, norms[:, 0] if cols == 1 else norms, threshold


@SETTINGS
@given(series=norm_series())
def test_detect_blowup_crossing_lies_in_the_crossing_step(series):
    times, norms, threshold = series
    level = norms if norms.ndim == 1 else norms.max(axis=1)
    if level[0] >= threshold:
        with pytest.raises(ValueError):
            detect_blowup(times, norms, threshold)
        return
    t = detect_blowup(times, norms, threshold)
    above = np.nonzero(level >= threshold)[0]
    if not above.size:
        assert t is None
        return
    k = int(above[0])
    # the log interpolation stays in [t_{k-1}, t_k] up to rounding
    slack = 4.0 * math.ulp(times[k])
    assert times[k - 1] - slack <= t <= times[k] + slack


FIELDS = [(section, key) for section, values in DEFAULT_CONFIG.items() for key in values]
# merge_config copies values without reading them
values = st.sampled_from([None, 0, 3, -2.5, 1e300, "x", [1.0, 2.0], {"a": 1}])


@st.composite
def documents(draw):
    """A config document setting some known fields, or None."""
    if draw(st.integers(0, 3)) == 0:
        return None
    doc = {}
    for section, key in draw(st.lists(st.sampled_from(FIELDS), max_size=6)):
        doc.setdefault(section, {})[key] = draw(values)
    return doc


@SETTINGS
@given(docs=st.lists(documents(), max_size=4))
def test_merge_config_later_document_wins(docs):
    defaults = copy.deepcopy(DEFAULT_CONFIG)
    merged = merge_config(*docs)
    assert DEFAULT_CONFIG == defaults
    for section, key in FIELDS:
        want = defaults[section][key]
        for doc in docs:
            if doc is not None and key in doc.get(section, {}):
                want = doc[section][key]
        assert merged[section][key] == want


@SETTINGS
@given(docs=st.lists(documents(), min_size=1, max_size=3), data=st.data(),
       name=st.text(min_size=1, max_size=8))
def test_merge_config_refuses_unknown_names(docs, data, name):
    i = data.draw(st.integers(0, len(docs) - 1))
    doc = dict(docs[i] or {})
    if data.draw(st.booleans()):
        assume(name not in DEFAULT_CONFIG)
        doc[name] = {}
    else:
        section = data.draw(st.sampled_from(sorted(DEFAULT_CONFIG)))
        assume(name not in DEFAULT_CONFIG[section])
        doc[section] = {**doc.get(section, {}), name: 1.0}
    docs[i] = doc
    with pytest.raises(ConfigError):
        merge_config(*docs)


# the verbs that run no solver: (required flags, optional flags)
_SOLVER_FREE = {
    "curve": (("n", "p", "q"), ()),
    "cusp": (("n",), ()),
    "sequences": (("case",), ("n", "p", "q", "jmax")),
    "specfn": ((), ("n", "tmax")),
}
_OFF_RANGE = st.sampled_from([math.nan, math.inf, -math.inf, 1e308])
_FLAG_VALUES = {
    "n": st.integers(min_value=-1, max_value=400),
    "p": st.floats(min_value=-1.0, max_value=1e3) | _OFF_RANGE,
    "q": st.floats(min_value=-1.0, max_value=1e3) | _OFF_RANGE,
    "jmax": st.integers(min_value=-2, max_value=300),
    "tmax": st.floats(min_value=-1.0, max_value=1e4) | _OFF_RANGE,
    "case": st.sampled_from(["theta1", "theta2", "double", "subcritical"]),
}


@st.composite
def solver_free_argv(draw):
    verb = draw(st.sampled_from(sorted(_SOLVER_FREE)))
    required, optional = _SOLVER_FREE[verb]
    flags = [*required, *(flag for flag in optional if draw(st.booleans()))]
    return [verb, *(arg for flag in flags for arg in (f"--{flag}", str(draw(_FLAG_VALUES[flag]))))]


@settings(SETTINGS, max_examples=60)
@given(argv=solver_free_argv())
def test_solver_free_verbs_exit_cleanly(argv):
    # any n, p, q, jmax and tmax exits 0, 1 or 2, with no traceback and
    # no RuntimeWarning
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) in (0, 1, 2)


# the verbs that solve, and which of n, p, q, eps, tmax and dr each takes
# as a flag; the others go into its --config file
_SOLVING = {"solve": ("n", "p", "q", "eps", "tmax", "dr"), "identity": ("tmax", "dr"), "sweep": ()}
# each value in range, or off it: a few of them off at a time, so that
# most examples pass the configuration and many solve; a short horizon
# and dr = R / 20, the coarsest grid a spec takes, keep a run to a few
# hundred levels of 60 points, and a horizon from 0.05 on gives the
# identity check the samples it needs
_IN_RANGE = {
    "n": st.integers(min_value=1, max_value=10),
    "p": st.floats(min_value=1.0, max_value=1e3, exclude_min=True),
    "q": st.floats(min_value=1.0, max_value=1e3, exclude_min=True),
    "eps": st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
    "tmax": st.floats(min_value=0.05, max_value=3.0),
    "dr": st.just(0.05),
}
_OFF = {
    "n": st.integers(min_value=-1, max_value=0) | st.integers(min_value=11, max_value=400),
    "p": st.floats(min_value=-1.0, max_value=1.0) | _OFF_RANGE,
    "q": st.floats(min_value=-1.0, max_value=1.0) | _OFF_RANGE,
    "eps": st.floats(max_value=0.0) | _OFF_RANGE,
    "tmax": st.floats(max_value=0.0) | _OFF_RANGE,
    "dr": st.floats(min_value=0.05, max_value=1.0, exclude_min=True) | st.floats(max_value=0.0) | _OFF_RANGE,
}


@st.composite
def solving_case(draw):
    verb = draw(st.sampled_from(sorted(_SOLVING)))
    off = draw(st.sets(st.sampled_from(sorted(_OFF)), max_size=2))
    values = {name: draw((_OFF if name in off else _IN_RANGE)[name]) for name in _IN_RANGE}
    return verb, values, [name for name in _SOLVING[verb] if draw(st.booleans())]


@settings(SETTINGS, max_examples=100)
@given(case=solving_case())
def test_solving_verbs_exit_cleanly(case):
    # any n, p, q, eps, t_max and dr exits 0, 1 or 2, with no traceback
    # and no RuntimeWarning; a sweep runs its rows in-process
    verb, values, flags = case
    doc = {"sweep": {"eps_values": [values["eps"]], "repeats": 1}} if verb == "sweep" else {}
    for name, value in values.items():
        if name not in flags:
            section, key = _FLAG_FIELDS[name]
            doc.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            mock.patch.object(lifespan, "_available_cpus", lambda: 1), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        argv = [verb, "--config", config, *(arg for name in flags for arg in (f"--{name}", str(values[name])))]
        if verb != "identity":
            argv += ["--out", os.path.join(tmp, "out")]
        assert main(argv) in (0, 1, 2)
