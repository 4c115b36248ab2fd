import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

from coupledwave.exponents import (
    Region,
    classify,
    cusp_exponents,
    theta1,
    theta1_critical_q,
    theta2,
    theta2_critical_p,
)
from coupledwave import iteration
from coupledwave.iteration import (
    J_MAX_LIMIT,
    IterationConstants,
    critical_sequences,
    divergence_driver,
    subcritical_sequences,
    subcritical_uprime_sequences,
    subcritical_v_sequences,
    threshold_time,
    write_table_csv,
)


def rel_dev(brute, closed):
    return float(np.max(np.abs(brute - closed) / np.maximum(np.abs(closed), 1.0)))


def test_subcritical_seed_examples():
    tv, tu = subcritical_sequences(3, (2, 2), 3)
    assert tv.t_power[0] == 4.0 and tv.t_power[1] == 20.0
    assert tv.t_power_closed[1] == pytest.approx((16.0 / 3.0) * 4.0 - 4.0 / 3.0)
    assert tu.t_power[0] == 3.0 and tu.t_power[1] == 17.0
    assert tu.t_power_closed[1] == pytest.approx((14.0 / 3.0) * 4.0 - 5.0 / 3.0)
    assert tv.weight_power[0] == 2.0 and tv.weight_power[1] == 17.0
    assert tv.weight_power_closed[1] == pytest.approx(5.0 * 4.0 - 3.0)
    assert tu.weight_power[0] == 2.0  # (n-1) q / 2


def test_subcritical_pair_is_the_two_family_tables():
    pair = subcritical_sequences(4, (2.5, 1.5), 20, eps=0.7)
    alone = (subcritical_v_sequences(4, (2.5, 1.5), 20, eps=0.7),
             subcritical_uprime_sequences(4, (2.5, 1.5), 20, eps=0.7))
    for got, want in zip(pair, alone):
        assert got.family == want.family
        for name in ("j", "coeff_log", "coeff_log_closed", "t_power", "t_power_closed",
                     "weight_power", "weight_power_closed"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_subcritical_closed_forms_random_grid():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        p = float(rng.uniform(1.2, 3.5))
        q = float(rng.uniform(1.2, 3.5))
        tv, tu = subcritical_sequences(n, (p, q), 60)
        for tab in (tv, tu):
            assert rel_dev(tab.t_power, tab.t_power_closed) < 1e-12
            assert rel_dev(tab.weight_power, tab.weight_power_closed) < 1e-12
            assert rel_dev(tab.coeff_log, tab.coeff_log_closed) < 1e-12
            assert np.all(np.diff(tab.t_power) > 0)


def test_coefficient_log_growth_rate():
    # log C_j / (pq)^j converges (Cauchy between j = 40 and 60)
    tv, tu = subcritical_sequences(3, (2, 2), 60, eps=0.3)
    for tab in (tv, tu):
        g = tab.coeff_log / 4.0**tab.j
        assert abs(g[60] - g[40]) < 1e-9


def test_coefficient_paper_floor():
    # for j >= j1 the coefficient satisfies log C_j >= (pq)^j log(N eps^p)
    n, p, q, eps = 3, 2.0, 2.0, 0.5
    x = p * q
    consts = IterationConstants.from_frame(n, (p, q))
    tv, _ = subcritical_sequences(n, (p, q), 60, eps=eps)
    Msub = consts.C * consts.K**p * (n + 1 + (p + 2) / (x - 1)) ** (-(p + 2))
    j1 = math.ceil(math.log(Msub) / math.log(x ** (p + 2)) - 1 - 1 / (x - 1))
    floor = x**tv.j * math.log(math.exp(consts.log_Nconst) * eps**p)
    sel = tv.j >= max(j1, 0)
    assert np.all(tv.coeff_log[sel] >= floor[sel] - 1e-9 * np.abs(floor[sel]))


def test_critical_double_at_cusp():
    c = cusp_exponents(3)
    x = c.p_mix * c.q_mix
    tab = critical_sequences("double", 3, (c.p_mix, c.q_mix), 40)
    assert tab.t_power[0] == 1.0
    assert tab.t_power[1] == pytest.approx(x + c.q_mix + 1.0, rel=1e-14)
    # h_j = (pq)^j - 1
    assert tab.weight_power[0] == 0.0
    assert tab.weight_power[1] == pytest.approx(x - 1.0, rel=1e-14)
    assert rel_dev(tab.weight_power, (x**tab.j - 1.0)) < 1e-12
    assert rel_dev(tab.t_power, tab.t_power_closed) < 1e-12
    assert rel_dev(tab.coeff_log, tab.coeff_log_closed) < 1e-12
    # slicing column 2 - 2^-j
    assert tab.ell[0] == 1.0 and tab.ell[1] == 1.5
    assert tab.ell[-1] == pytest.approx(2.0, abs=1e-9)
    assert np.all(np.diff(tab.ell) > 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_critical_theta1_closed_forms(n):
    lo = max(1.05, 2.0 / (n - 1) + 0.05)
    hi = 1.0 + 4.0 / (n - 1) - 0.1
    for p in np.linspace(lo, hi, 4):
        q = theta1_critical_q(n, float(p))
        tab = critical_sequences("theta1", n, (float(p), q), 60)
        assert rel_dev(tab.t_power, tab.t_power_closed) < 1e-12
        assert rel_dev(tab.weight_power, tab.weight_power_closed) < 1e-12
        assert rel_dev(tab.coeff_log, tab.coeff_log_closed) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_critical_theta2_closed_forms(n):
    for q in np.linspace(1.05, 1.0 + 1.8 / n, 4):
        p = theta2_critical_p(n, float(q))
        tab = critical_sequences("theta2", n, (p, float(q)), 60)
        assert rel_dev(tab.t_power, tab.t_power_closed) < 1e-12
        assert rel_dev(tab.weight_power, tab.weight_power_closed) < 1e-12
        assert rel_dev(tab.coeff_log, tab.coeff_log_closed) < 1e-12


def test_critical_rejects_off_curve():
    with pytest.raises(ValueError):
        critical_sequences("theta1", 3, (2.0, 2.0), 10)
    with pytest.raises(ValueError):
        critical_sequences("double", 3, (2.0, 2.5), 10)


def test_jmax_cap():
    with pytest.raises(ValueError):
        subcritical_sequences(3, (2, 2), J_MAX_LIMIT + 1)
    with pytest.raises(ValueError):
        subcritical_sequences(3, (2, 2), 0)


def test_iteration_constants_positive():
    for n, p, q in [(2, 1.3, 2.2), (3, 2.0, 2.0), (4, 1.5, 1.4)]:
        con = IterationConstants.from_frame(n, (p, q), C=0.7, K=1.3,
                                            Ctilde=0.5, Ktilde=2.0,
                                            m1_0=0.6, m2_0=0.9)
        # Nconst, Ntilde, E, E1, E2 are kept as logs: finite, so positive
        for field in ("log_Nconst", "log_Ntilde", "log_E", "log_E1", "log_E2"):
            assert math.isfinite(getattr(con, field)), field


def test_iteration_constants_large_exponent_in_log_space():
    # N1 = 2^(2(p+1)) pq overflows at p = 600; its log, and E1's, do not
    # (tests/test_sympy_oracle.py pins the logs there)
    con = IterationConstants.from_frame(3, (600.0, 2.0))
    assert math.isfinite(con.log_E1) and math.isfinite(con.log_E)


def test_threshold_subcritical_example():
    # theta1 = 1/6 at n = 3, p = q = 2: T = 2^15 N^-3 10^6 at eps = 0.1
    con = IterationConstants.from_frame(3, (2.0, 2.0))
    th = threshold_time(con, 0.1)
    assert th.family == "subcritical-v"
    assert th.T == pytest.approx(2.0**15 * math.exp(con.log_Nconst) ** -3 * 1e6, rel=1e-12)


def test_threshold_halving_law():
    con = IterationConstants.from_frame(3, (2.0, 2.0))
    tA = threshold_time(con, 0.4)
    tB = threshold_time(con, 0.2)
    assert tB.T / tA.T == pytest.approx(2.0**6, rel=1e-12)


def test_threshold_rejects_supercritical():
    con = IterationConstants.from_frame(3, (4.0, 4.0))
    with pytest.raises(ValueError):
        threshold_time(con, 0.5)


def test_threshold_uses_dominant_theta_branch():
    # theta2 > theta1 for small q and large p
    n, p, q = 2, 3.0, 1.1
    assert theta2(n, (p, q)) > theta1(n, (p, q)) > 0
    con = IterationConstants.from_frame(n, (p, q))
    th = threshold_time(con, 0.5)
    assert th.family == "subcritical-uprime"
    drv = divergence_driver(th.family, con, 0.5, log_t=th.log_T)
    assert drv == pytest.approx(1.0, abs=1e-9)


def test_divergence_driver_matches_thresholds_all_regions():
    cases = []
    con = IterationConstants.from_frame(3, (2.0, 2.0), C=0.8, K=1.4,
                                        Ctilde=0.9, Ktilde=1.1)
    cases.append(("subcritical-v", 3, (2.0, 2.0), Region.SUBCRITICAL, con))
    q1 = theta1_critical_q(3, 2.0)
    cases.append(
        ("critical-theta1", 3, (2.0, q1), Region.CRITICAL_THETA1,
         IterationConstants.from_frame(3, (2.0, q1), C=1.2, K=0.9))
    )
    p2 = theta2_critical_p(3, 1.2)
    cases.append(
        ("critical-theta2", 3, (p2, 1.2), Region.CRITICAL_THETA2,
         IterationConstants.from_frame(3, (p2, 1.2)))
    )
    c = cusp_exponents(3)
    cases.append(
        ("critical-double", 3, (c.p_mix, c.q_mix), Region.DOUBLE_CRITICAL,
         IterationConstants.from_frame(3, (c.p_mix, c.q_mix)))
    )
    for family, n, pq, region, con in cases:
        assert classify(n, pq).region is region
        th = threshold_time(con, 0.7)
        assert th.family == family
        drv = divergence_driver(family, con, 0.7, log_t=th.log_T)
        assert drv == pytest.approx(1.0, abs=1e-9), family


def test_divergence_certificate_monotone(standard_spec):
    # a driver above 1 certifies divergence of the table's family
    con = IterationConstants.from_frame(3, (2.0, 2.0))
    tv, _ = subcritical_sequences(3, (2.0, 2.0), 10)
    th = threshold_time(con, 0.5)
    assert not divergence_driver(tv.family, con, 0.5, log_t=th.log_T - math.log(2.0)) > 1.0
    assert divergence_driver(tv.family, con, 0.5, log_t=th.log_T + math.log(2.0)) > 1.0


@pytest.mark.parametrize("case", ["theta1", "theta2", "double"])
def test_off_curve_message_shared(case):
    # (2, 2) at n = 3 is subcritical: on neither curve, and the message
    # names the case
    with pytest.raises(ValueError) as seq:
        critical_sequences(case, 3, (2.0, 2.0), 5)
    assert str(seq.value).startswith(f"(p, q) is not {case}-critical: theta1 = ")


def test_table_csv(tmp_path):
    c = cusp_exponents(3)
    tab = critical_sequences("double", 3, (c.p_mix, c.q_mix), 8)
    path = tmp_path / "table.csv"
    write_table_csv(tab, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("j,coeff_log,coeff_log_closed,t_power")
    assert len(lines) == 10
    tv, _ = subcritical_sequences(3, (2, 2), 8)
    write_table_csv(tv, path)
    assert path.read_text().splitlines()[1].endswith(",")  # no ell column


# sha256 of write_table_csv output, one table per family; the values were
# recorded before the recursions were folded into one table builder, so
# they pin every printed digit of both the brute and closed-form columns.
TABLE_DIGESTS = {
    "subcritical-v": "bf7b2f29b3015c0eb22d45d6b9a852d445d71629be1d18448bd0d694845726a2",
    "subcritical-uprime": "1fc32dba3d9e6f1bb55b887a302cb3d96ed47479538ab697b1d19a3a75512279",
    "critical-theta1": "0199d2b38e2c4619cefb407e9a60f34582b8fbf36827563490b0806d70a94357",
    "critical-theta2": "e4babc390c8e49155940e4c7201359a0be2b5839bfb61c9d7b9134e6a254ec7f",
    "critical-double": "98a5e551ab6c177378b414c24178f80f552f74b1db0dbe6ac59a414e6c65f862",
}


def _family_tables():
    tv, tu = subcritical_sequences(3, (2.0, 2.0), 60)
    c = cusp_exponents(3)
    return [
        tv,
        tu,
        critical_sequences("theta1", 3, (2.0, theta1_critical_q(3, 2.0)), 60),
        critical_sequences("theta2", 3, (theta2_critical_p(3, 1.2), 1.2), 60),
        critical_sequences("double", 3, (c.p_mix, c.q_mix), 60),
    ]


def test_table_csv_digests(tmp_path):
    tables = _family_tables()
    assert {t.family for t in tables} == set(TABLE_DIGESTS)
    for tab in tables:
        path = tmp_path / f"{tab.family}.csv"
        write_table_csv(tab, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == TABLE_DIGESTS[tab.family], tab.family


def test_divergence_driver_overflow_is_inf():
    con = IterationConstants.from_frame(3, (2.0, 2.0))
    assert divergence_driver("subcritical-v", con, 0.5, log_t=1e5) == math.inf


def _critical_cases():
    q1 = theta1_critical_q(3, 2.0)
    p2 = theta2_critical_p(3, 1.2)
    c = cusp_exponents(3)
    return [
        (Region.CRITICAL_THETA1, (2.0, q1)),
        (Region.CRITICAL_THETA2, (p2, 1.2)),
        (Region.DOUBLE_CRITICAL, (c.p_mix, c.q_mix)),
    ]


@pytest.mark.parametrize("region, pq", _critical_cases())
def test_threshold_critical_tiny_eps_is_inf(region, pq):
    con = IterationConstants.from_frame(3, pq)
    for eps in (1e-40, 1e-300):
        th = threshold_time(con, eps)
        assert th.T == math.inf
        assert th.log_T > 0
    assert threshold_time(con, 1e-300).log_T == math.inf
    if region is Region.CRITICAL_THETA1:
        assert threshold_time(con, 1e-40).log_T == math.inf


def test_from_frame_tiny_constant_in_log_space():
    x = 4.0  # pq at p = q = 2
    base = IterationConstants.from_frame(3, (2.0, 2.0))
    con = IterationConstants.from_frame(3, (2.0, 2.0), C=1e-300)
    log_c = math.log(1e-300)
    # log M and log M2 carry log C once, log M1 carries p log C
    assert con.log_E == pytest.approx(base.log_E + (x - 1.0) * log_c, rel=1e-12)
    assert con.log_E1 == pytest.approx(base.log_E1 + (x - 1.0) * 2.0 * log_c, rel=1e-12)
    assert con.log_E2 == pytest.approx(base.log_E2 + (x - 1.0) * log_c, rel=1e-12)


def test_subcritical_constants_stay_in_log_space():
    # C = 1e-300 underflows the factor C**q inside Ntilde, not its log:
    # that is the C = 1 log shifted by q log C / (x - 1), and the log of
    # Nconst by log C / (x - 1)
    n, p, q, C = 2, 3.0, 1.1, 1e-300
    x = p * q
    base = IterationConstants.from_frame(n, (p, q))
    con = IterationConstants.from_frame(n, (p, q), C=C)
    log_c = math.log(C)
    assert con.log_Ntilde == pytest.approx(
        base.log_Ntilde + q * log_c / (x - 1.0), rel=1e-12
    )
    assert con.log_Nconst == pytest.approx(
        base.log_Nconst + log_c / (x - 1.0), rel=1e-12
    )
    th = threshold_time(con, 0.5)
    assert th.family == "subcritical-uprime"
    assert math.isfinite(th.log_T)
    drv = divergence_driver(th.family, con, 0.5, log_t=th.log_T)
    assert drv == pytest.approx(1.0, rel=1e-12)


DERIVED = ("log_E", "log_E1", "log_E2", "log_Ntilde", "log_Nconst")


def test_replace_recomputes_derived_constants():
    # every derived value follows a replaced input, and none can be set
    base = IterationConstants.from_frame(3, (2.0, 2.0))
    con = dataclasses.replace(base, C=0.5)
    fresh = IterationConstants.from_frame(3, (2.0, 2.0), C=0.5)
    assert con == fresh and con.log_Nconst != base.log_Nconst
    for name in DERIVED:
        assert getattr(con, name) == getattr(fresh, name), name
        with pytest.raises(ValueError):
            dataclasses.replace(base, **{name: 123.0})
        with pytest.raises(TypeError):
            IterationConstants(3, 2.0, 2.0, **{name: 123.0})
    T = threshold_time(con, 0.4).T
    assert T == threshold_time(fresh, 0.4).T


@pytest.mark.parametrize("name", ["C", "K", "Ctilde", "Ktilde", "m1_0", "m2_0"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
def test_frame_constants_positive_and_finite(name, value):
    with pytest.raises(ValueError, match=f"constant {name} "):
        IterationConstants.from_frame(3, (2.0, 2.0), **{name: value})
    with pytest.raises(ValueError, match=f"constant {name} "):
        dataclasses.replace(IterationConstants.from_frame(3, (2.0, 2.0)), **{name: value})


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
def test_eps_must_be_positive_and_finite(eps):
    # one message from the sequences, the threshold and each driver
    con = IterationConstants.from_frame(3, (2.0, 2.0))
    calls = [lambda: subcritical_sequences(3, (2.0, 2.0), 5, eps=eps),
             lambda: threshold_time(con, eps)]
    calls += [lambda f=f: divergence_driver(f, con, eps, log_t=1.0)
              for f in ("subcritical-v", "subcritical-uprime", "critical-theta1",
                        "critical-theta2", "critical-double")]
    for call in calls:
        with pytest.raises(ValueError, match=r"^eps must be positive and finite, got "):
            call()


def test_overflowing_exponents_rejected():
    # pq = inf, (pq - 1)^2 beyond double range, and log E1 = -inf
    for pq, what in [((1e308, 2.0), "log_E = nan"), ((1e200, 1e100), r"\(pq - 1\)\^2"),
                     ((1.2e154, 1.1), "log_E1 = -inf")]:
        with pytest.raises(ValueError, match=f"exponents beyond double range: {what} at p="):
            IterationConstants.from_frame(3, pq)
    base = IterationConstants.from_frame(3, (2.0, 2.0))
    with pytest.raises(ValueError, match="beyond double range"):
        dataclasses.replace(base, p=1e308)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sequences_out_of_double_range_rejected():
    # (pq)^j passes 1e308 near j = 51 at pq = 1e6; no table, no warning
    with pytest.raises(ValueError, match="subcritical-v sequences leave double range at j = 51"):
        subcritical_sequences(3, (1000.0, 1000.0), 60)
    tv, _ = subcritical_sequences(3, (1000.0, 1000.0), 50)
    assert np.isfinite(tv.coeff_log_closed).all()


def _reference_family_table(family, x, js, seed, recur, t_closed, w_closed, ell=None):
    """The table builder as it was before the recursion ran on Python
    floats: numpy scalars read and written one element at a time, and
    one x ** (j - 1 - ks) vector per closed-form row; the coefficient
    term d_k is the recursion's first entry from log c_k = 0."""
    size = len(js)
    logc, tp, wp = np.empty(size), np.empty(size), np.empty(size)
    logc[0], tp[0], wp[0] = seed
    for j in range(size - 1):
        logc[j + 1], tp[j + 1], wp[j + 1] = recur(j, logc[j], tp[j], wp[j])
    log0 = logc[0]
    d = np.array([recur(k, 0.0, t_closed[k], 0.0)[0] for k in range(size - 1)])
    logc_closed = np.empty(size)
    logc_closed[0] = log0
    for j in range(1, size):
        ks = np.arange(j)
        logc_closed[j] = x**j * log0 + float(np.sum(x ** (j - 1 - ks) * d[:j]))
    return logc, logc_closed, tp, wp


def _reference_csv(table):
    """write_table_csv as it was: one format(v, ".17g") per value."""
    lines = ["j,coeff_log,coeff_log_closed,t_power,t_power_closed,"
             "weight_power,weight_power_closed,ell_j\n"]
    for i, j in enumerate(table.j):
        ell = "" if table.ell is None else format(table.ell[i], ".17g")
        cols = (table.coeff_log, table.coeff_log_closed, table.t_power, table.t_power_closed,
                table.weight_power, table.weight_power_closed)
        lines.append(",".join([str(int(j)), *(format(c[i], ".17g") for c in cols), ell]) + "\n")
    return "".join(lines)


def _seeded_tables(seed, j_max):
    """Tables of all four families at a seeded dimension and seeded exponents."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))

    def on_curve(curve):
        """A seeded exponent and its partner on the curve, both in (1.1, 6)."""
        while True:
            e = float(rng.uniform(1.1, 6.0))
            try:
                partner = curve(n, e)
            except ValueError:  # no partner above 1
                continue
            if 1.1 < partner < 6.0:
                return e, partner

    p, q = rng.uniform(1.1, 5.0, size=2)
    p1, q1 = on_curve(theta1_critical_q)
    q2, p2 = on_curve(theta2_critical_p)
    c = cusp_exponents(n)
    return [
        *subcritical_sequences(n, (p, q), j_max),
        critical_sequences("theta1", n, (p1, q1), j_max),
        critical_sequences("theta2", n, (p2, q2), j_max),
        critical_sequences("double", n, (c.p_mix, c.q_mix), j_max),
    ]


@pytest.mark.parametrize("j_max", [1, 7, 8, 9, 60])
@pytest.mark.parametrize("seed", range(4))
def test_tables_bitwise_equal_reference(seed, j_max, monkeypatch):
    # np.sum adds pairwise from 8 terms on, so j_max 7, 8 and 9 straddle
    # the switch; every column and every CSV byte must match the reference
    built = []
    family_table = iteration._family_table

    def both(*args, **kwargs):
        table = family_table(*args, **kwargs)
        built.append((table, _reference_family_table(*args, **kwargs)))
        return table

    monkeypatch.setattr(iteration, "_family_table", both)
    tables = _seeded_tables(seed, j_max)
    assert [t.family for t, _ in built] == [t.family for t in tables]
    for table, (logc, logc_closed, tp, wp) in built:
        for got, want in ((table.coeff_log, logc), (table.coeff_log_closed, logc_closed),
                          (table.t_power, tp), (table.weight_power, wp)):
            assert got.tobytes() == want.tobytes(), table.family
        out = io.StringIO()
        write_table_csv(table, out)
        assert out.getvalue() == _reference_csv(table), table.family


def _per_j_closed_form(family, x, js, seed, recur, t_closed, w_closed, ell=None):
    """coeff_log_closed as it was before the products (pq)^{j-1-k} d_k
    were laid out once as a matrix: one product vector per j, summed by
    np.sum."""
    size = len(js)
    d = np.array([recur(k, 0.0, t, 0.0)[0] for k, t in enumerate(t_closed[:-1].tolist())])
    powers = x ** np.arange(size)
    out = np.empty(size)
    out[0] = log0 = seed[0]
    for j in range(1, size):
        out[j] = x**j * log0 + float(np.sum(powers[j - 1::-1] * d[:j]))
    return out


def _on_curve_pairs(curve, n, exponents):
    """(exponent, partner) for each exponent whose partner on the curve lies in (1.1, 6)."""
    pairs = []
    for e in exponents:
        try:
            partner = curve(n, e)
        except ValueError:  # no partner above 1
            continue
        if 1.1 < partner < 6.0:
            pairs.append((e, partner))
    return pairs


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closed_form_bitwise_equal_per_j_sums(n, monkeypatch):
    built = []
    family_table = iteration._family_table

    def both(*args, **kwargs):
        table = family_table(*args, **kwargs)
        built.append((table, _per_j_closed_form(*args, **kwargs)))
        return table

    monkeypatch.setattr(iteration, "_family_table", both)
    for p, q in ((1.3, 1.9), (2.0, 2.0), (3.5, 1.2), (1.15, 4.4)):
        subcritical_sequences(n, (p, q), 60)
    exponents = (1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)
    theta1_pairs = _on_curve_pairs(theta1_critical_q, n, exponents)
    theta2_pairs = _on_curve_pairs(theta2_critical_p, n, exponents)
    assert len(theta1_pairs) >= 2 and len(theta2_pairs) >= 2
    for p, q in theta1_pairs:
        critical_sequences("theta1", n, (p, q), 60)
    for q, p in theta2_pairs:
        critical_sequences("theta2", n, (p, q), 60)
    c = cusp_exponents(n)
    critical_sequences("double", n, (c.p_mix, c.q_mix), 60)
    assert {t.family for t, _ in built} == {"subcritical-v", "subcritical-uprime",
                                            "critical-theta1", "critical-theta2",
                                            "critical-double"}
    for table, want in built:
        assert table.coeff_log_closed.tobytes() == want.tobytes(), table.family
