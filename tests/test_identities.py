"""Identity checkers: report contracts, determinism, and the true/measured split."""

import json
import math

import pytest
from scipy import special as sp

from besselmap import (
    ReliableOrderExhausted,
    SigmaConfig,
    apply_exp_sigma,
    check_eq2_roundtrip,
    check_eq3_closure,
    check_eq3prime_order,
    check_eq9_real,
    check_eq11,
    check_eq14_kernel,
    check_eq15_order,
    check_eq18_order,
    check_integer_shift,
    neumann,
    neumann_t_series,
    run_suite,
)
from besselmap.identities import _bilinear_sums, _reflect
from besselmap.specfun import log_reduced_j, neumann_scaled_table


# ---------------------------------------------------------------------------
# scaled term assembly agrees with direct evaluation at small orders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(-5, 6))
def test_signlog_factors_match_direct(n):
    z, t = 0.7, 2.0
    i = n + 5  # row of n in factors over -5..5
    s, l = _reflect(log_reduced_j(5, z), -5, 5, 0.0, 2.0 * math.log(z))
    want = float(sp.jv(n, z)) / z**n
    assert s[i] * math.exp(l[i]) == pytest.approx(want, rel=1e-10)
    s, l = _reflect(log_reduced_j(5, t), -5, 5, 2.0 * math.log(t), 0.0)
    assert s[i] * math.exp(l[i]) == pytest.approx(t**n * float(sp.jv(n, t)), rel=1e-10)
    s, l = _reflect(neumann_scaled_table(t, 10), -5, 5, 0.0, -2.0 * math.log(t))
    assert s[i] * math.exp(l[i]) == pytest.approx(t**n * float(sp.yv(n, t)), rel=1e-9)


def _scalar_log_reduced_j(n, z):
    """Reference: (sign, log|J_n(z)/z^n|) by the bracket, one order at a time."""
    u = 0.5 * z * z
    s = 1.0
    term = 1.0
    for k in range(1, 600):
        term *= -(0.5 * u) / (k * (n + k))
        s += term
        if abs(term) < 1e-18 * abs(s) + 1e-300:
            break
    if s == 0.0:
        return 1.0, -math.inf
    return math.copysign(1.0, s), -n * math.log(2.0) - math.lgamma(n + 1.0) + math.log(abs(s))


def _pairs(table):
    return list(zip(*(a.tolist() for a in table)))


@pytest.mark.parametrize("x", [0.3, 2.0, 7.5])
def test_signlog_tables_match_scalar_factors(x):
    """The lane-wise table gives the same bits as the per-order scalar bracket,
    and a longer table gives the same factors as the shortest one."""
    table = log_reduced_j(40, x)
    assert _pairs(table) == [_scalar_log_reduced_j(m, x) for m in range(41)]
    for m in range(41):
        shortest = log_reduced_j(m, x)
        assert _pairs(shortest) == _pairs(table)[: m + 1]
        for slopes in ((0.0, 2.0 * math.log(x)), (2.0 * math.log(x), 0.0)):
            assert _pairs(_reflect(table, -m, m, *slopes)) == _pairs(
                _reflect(shortest, -m, m, *slopes)
            )


def test_bilinear_terms_shared_between_eq9_and_eq11():
    _bilinear_sums.cache_clear()
    rep11 = check_eq11(0.4, 1.7, N=60)
    rep9 = check_eq9_real(0.4, 1.7, N=60)
    info = _bilinear_sums.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert info.currsize <= info.maxsize
    n_partials, j_partials, _ = _bilinear_sums(0.4, 1.7, 60)
    with pytest.raises(TypeError):
        n_partials[0] = 0.0  # every caller sees the same read-only sums
    # each report owns its list: changing one leaves the next report as it was
    rep11.observed[0] = rep9.observed[0] = 99.0
    assert check_eq11(0.4, 1.7, N=60).observed == list(n_partials)
    assert check_eq9_real(0.4, 1.7, N=60).observed == list(j_partials)


def test_signlog_at_z_zero():
    # at z = 0 the bracket is 1: the factors are closed forms
    signs, logs = log_reduced_j(3, 0.0)
    assert (signs[3], logs[3]) == (1.0, -3 * math.log(2.0) - math.lgamma(4.0))
    assert _reflect((signs, logs), -2, 2, 0.0, -math.inf)[1][0] == -math.inf


def _scalar_bilinear_partials(z, t, N):
    """Reference: EQ11 and EQ9 partial sums, one term at a time from the scalar
    bracket, the sign/log product of each n, and an in-order running sum."""
    n_signs, n_logs = neumann_scaled_table(t, N + 1)

    def reduced_j(n):
        m = abs(n)
        s, l = _scalar_log_reduced_j(m, z)
        if n >= 0:
            return s, l
        if z == 0.0:
            return 1.0, -math.inf
        return s * (-1.0) ** (m % 2), l + 2.0 * m * math.log(z)

    def tn_neumann(p):
        q = abs(p)
        s, l = float(n_signs[q]), float(n_logs[q])
        if p >= 0:
            return s, l
        return s * (-1.0) ** (q % 2), l - 2.0 * q * math.log(t)

    def tn_j(p):
        q = abs(p)
        s, l = _scalar_log_reduced_j(q, t)
        if p >= 0:
            return s, l + 2.0 * p * math.log(t)
        return s * (-1.0) ** (q % 2), l

    def product(a, b):
        lg = a[1] + b[1]
        if lg == -math.inf:
            return 0.0
        if lg > 700.0:
            return a[0] * b[0] * math.inf
        return a[0] * b[0] * math.exp(lg)

    def partials(terms):
        s = terms[0]
        out = [s]
        for k in range(1, N + 1):
            s += terms[k] + terms[-k]
            out.append(s)
        return out

    n_terms = {n: product(reduced_j(n), tn_neumann(n - 1)) for n in range(-N, N + 1)}
    j_terms = {n: product(reduced_j(n), tn_j(n - 1)) for n in range(-N, N + 1)}
    return partials(n_terms), partials(j_terms)


@pytest.mark.parametrize(
    "z,t,N", [(0.0, 2.0, 200), (0.5, 2.0, 200), (1.0, 3.0, 200), (2.5, 2.0, 50), (0.4, 1.7, 10)]
)
def test_bilinear_partials_match_termwise_reference(z, t, N):
    n_want, j_want = _scalar_bilinear_partials(z, t, N)
    rep11 = check_eq11(z, t, N)
    rep9 = check_eq9_real(z, t, N)
    assert [v.hex() for v in rep11.observed] == [v.hex() for v in n_want]
    assert [v.hex() for v in rep9.observed] == [v.hex() for v in j_want]
    assert rep9.details["n_part_value"] == n_want[-1]


# ---------------------------------------------------------------------------
# bilinear sum checkers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("z,t", [(0.0, 2.0), (0.5, 2.0), (1.0, 3.0)])
def test_eq11_converges_at_reference_points(z, t):
    rep = check_eq11(z, t, N=200)
    assert rep.verdict == "pass"
    assert rep.residual < 5e-3
    assert 1.8 <= rep.details["tail_exponent"] <= 2.2
    assert rep.details["target"] == pytest.approx((2.0 / math.pi) / (t * t - z * z))
    assert len(rep.observed) == 201


def test_eq11_partial_sums_close_in():
    rep = check_eq11(0.0, 2.0, N=200)
    errs = [abs(s - rep.details["target"]) for s in rep.observed]
    assert errs[-1] < errs[50] < errs[10]


def test_eq11_validation_and_region():
    with pytest.raises(ValueError):
        check_eq11(2.0, 2.0, N=50)
    with pytest.raises(ValueError):
        check_eq11(0.5, 2.0, N=5)
    with pytest.raises(ValueError):
        check_eq11(-0.5, 2.0, N=50)
    rep = check_eq11(2.5, 2.0, N=50)  # outside the region: reported, not raised
    assert rep.verdict == "fail"
    assert "region" in rep.notes


def test_eq9_j_part_vanishes_and_n_part_matches_eq11():
    rep9 = check_eq9_real(0.5, 2.0, N=200)
    rep11 = check_eq11(0.5, 2.0, N=200)
    assert rep9.verdict == "pass"
    assert rep9.details["j_part_residual"] < 5e-3
    # shared computation: the weighted-N part is the same sum
    assert rep9.details["n_part_value"] == rep11.observed[-1]


def test_eq9_determinism():
    a = check_eq9_real(0.5, 2.0, N=80).to_record()
    b = check_eq9_real(0.5, 2.0, N=80).to_record()
    assert a == b


# ---------------------------------------------------------------------------
# operator-map checkers: contracts and measured behaviour
# ---------------------------------------------------------------------------


def test_eq3prime_first_order_report_contract():
    rep = check_eq3prime_order(0, 1)
    assert rep.identity_id == "EQ3P_ORDER_J"
    assert rep.params == {"n": 0, "j": 1, "K": 16, "M": 12}
    assert rep.details["compared_order"] == 4
    assert len(rep.observed) == 5
    assert rep.residual == max(rep.observed)
    assert rep.verdict == ("pass" if rep.residual <= rep.tolerance else "fail")
    # measured behaviour of the truncated map: the first-order series sits a
    # constant away from the order-derivative closed form (see sigmaop tests)
    assert rep.residual == pytest.approx(0.5597735947, abs=1e-6)


def test_eq3prime_second_order_runs():
    rep = check_eq3prime_order(0, 2, K=26, M=12)
    assert len(rep.observed) == 3
    assert rep.tolerance == 1e-5


def test_eq3prime_distances_stable_under_deeper_truncation():
    # raising K at fixed M extends the reliable window without touching
    # coefficients at previously reliable powers, so the reported distances
    # there are bitwise unchanged
    shallow = check_eq3prime_order(0, 1, K=16, M=12)
    deep = check_eq3prime_order(0, 1, K=20, M=12)
    assert deep.observed[: len(shallow.observed)] == shallow.observed


def test_eq3prime_validation():
    with pytest.raises(ValueError):
        check_eq3prime_order(0, 3)
    with pytest.raises(ValueError):
        check_eq3prime_order(0, 1, K=6)
    with pytest.raises(ValueError):
        check_eq3prime_order(0, 1, K=10, M=12)
    with pytest.raises(ReliableOrderExhausted):
        check_eq3prime_order(0, 2, K=12, M=12)


def test_eq15_report_and_determinism():
    rep = check_eq15_order(0, 1)
    assert rep.identity_id == "EQ15_ORDER_J"
    assert len(rep.observed) == 3
    assert rep.verdict == ("pass" if rep.residual <= rep.tolerance else "fail")
    assert rep.to_record() == check_eq15_order(0, 1).to_record()


def test_eq15_validation():
    with pytest.raises(ValueError):
        check_eq15_order(-1, 1)
    with pytest.raises(ValueError):
        check_eq15_order(0, 1, probes=(5.0,))
    with pytest.raises(ReliableOrderExhausted):
        check_eq15_order(0, 2, K=16, M=12)


def test_eq18_recombination_is_exact():
    # mapped Hankel series recombine into the mapped Bessel series by
    # linearity, independent of how far the map itself is from its target
    for n in (0, 1):
        rep = check_eq18_order(1, n, 1)
        assert rep.details["recombination_residual"] < 1e-12


def test_eq18_kinds_mirror_at_real_probes():
    r1 = check_eq18_order(1, 0, 1)
    r2 = check_eq18_order(2, 0, 1)
    assert r1.observed == pytest.approx(r2.observed, rel=1e-12)


def test_eq18_validation():
    with pytest.raises(ValueError):
        check_eq18_order(3, 0, 1)


def test_integer_shift_degenerate_order_zero():
    # exponential truncated at order zero is the identity map, so the
    # residual is just the distance between neighbouring-order functions
    t = 1.0
    rep = check_integer_shift(0, J_max_list=(0,), t=t)
    base = neumann_t_series(0, 16).evaluate(0.5 * t * t).real
    target = t * neumann(1.0, t).value.real
    assert rep.observed[0] == pytest.approx(abs(base - target), rel=1e-12)


def test_integer_shift_trend_report():
    rep = check_integer_shift(0)
    assert rep.identity_id == "EQ17_SHIFT"
    assert len(rep.observed) == 4
    assert rep.residual == rep.observed[-1]
    assert rep.tolerance == rep.observed[0] / 2.0
    assert "trend" in rep.notes


@pytest.mark.parametrize("n,t", [(0, 1.0), (1, 0.6), (2, 1.9)])
def test_integer_shift_ladder_matches_each_truncated_map(n, t):
    """One shared ladder gives, bit for bit, the residual of the map truncated
    separately at each exponential order."""
    rep = check_integer_shift(n, t=t, J_max_list=(4, 0, 2, 6, 8, 2))
    base = neumann_t_series(n, 16)
    target = rep.details["target"]
    for jm, got in zip(rep.params["J_max_list"], rep.observed):
        cfg = SigmaConfig("z2", shift_window=12, exp_order=jm, lam=1.0)
        assert got == abs(apply_exp_sigma(base, cfg, sign=1).evaluate(0.5 * t * t) - target)


def test_integer_shift_validation():
    with pytest.raises(ValueError):
        check_integer_shift(0, t=3.0)
    with pytest.raises(ValueError):
        check_integer_shift(-1)


# ---------------------------------------------------------------------------
# definitional guards
# ---------------------------------------------------------------------------


def test_eq2_roundtrip_machine_level():
    rep = check_eq2_roundtrip()
    assert rep.verdict == "pass"
    assert rep.residual < 1e-12


def test_eq3_closure_exact():
    rep = check_eq3_closure()
    assert rep.verdict == "pass"
    assert rep.residual == 0.0


def test_eq14_kernel_exact():
    rep = check_eq14_kernel()
    assert rep.verdict == "pass"
    assert rep.residual == 0.0
    assert len(rep.observed) == 20


# ---------------------------------------------------------------------------
# report invariants and the suite
# ---------------------------------------------------------------------------


def test_report_verdict_consistency_is_enforced():
    from besselmap.identities import IdentityReport

    # the verdict is derived, so no caller can set one that disagrees
    with pytest.raises(TypeError):
        IdentityReport("EQ11_SUM", {}, [], 1.0, 0.0, 0.5, verdict="pass")
    with pytest.raises(ValueError):
        IdentityReport(
            identity_id="NOT_AN_ID",
            params={},
            observed=[],
            residual=0.0,
            tail_estimate=0.0,
            tolerance=0.5,
        )


def test_report_verdict_is_derived_from_residual_and_tolerance():
    from besselmap.identities import IdentityReport

    failing = IdentityReport("EQ11_SUM", {}, [], 1.0, 0.0, 0.5)
    assert failing.verdict == "fail"
    assert failing.to_record()["verdict"] == "fail"
    passing = IdentityReport("EQ11_SUM", {}, [], 0.5, 0.0, 0.5)
    assert passing.verdict == "pass"
    assert passing.to_record()["verdict"] == "pass"


def test_record_shares_no_mutable_object_with_its_report():
    rep = check_eq18_order(1, 0, 1)
    params, details = json.dumps(rep.params), json.dumps(rep.details)
    rec = rep.to_record()
    rec["params"]["n"] = 99
    rec["params"]["probes"].append(9.0)
    rec["details"]["recombination_residual"] = -1.0
    rec["details"]["added"] = 1
    assert (json.dumps(rep.params), json.dumps(rep.details)) == (params, details)
    assert rep.to_record()["params"]["probes"] == json.loads(params)["probes"]


def test_suite_is_deterministic_and_sorted():
    a = [r.to_record() for r in run_suite()]
    b = [r.to_record() for r in run_suite()]
    assert a == b
    keys = [(r["identity_id"], json.dumps(r["params"], sort_keys=True)) for r in a]
    assert keys == sorted(keys)


def test_suite_verdict_split():
    reports = run_suite()
    by_id = {}
    for r in reports:
        by_id.setdefault(r.identity_id, []).append(r.verdict)
    # the bilinear identities and the definitional guards hold
    for good in ("EQ11_SUM", "EQ9_REAL", "EQ2_ROUNDTRIP", "EQ3_CLOSURE", "EQ14_KERNEL"):
        assert all(v == "pass" for v in by_id[good]), good
    # the truncated operator map measurably misses its real-order targets
    for measured in ("EQ3P_ORDER_J", "EQ15_ORDER_J", "EQ17_SHIFT", "EQ18_ORDER_J"):
        assert all(v == "fail" for v in by_id[measured]), measured
