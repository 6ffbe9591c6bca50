"""Identity checkers: report contracts, determinism, and the true/measured split."""

import collections
import json
import math
import random
import warnings

import pytest
from scipy import special as sp

from besselmap import (
    ReliableOrderExhausted,
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
    hankel_t_series,
    lambda_coefficients,
    lambda_taylor_target,
    neumann,
    neumann_t_series,
    reduced_j_series,
    run_suite,
)
from besselmap import identities, logseries, sigmaop, sonine, specfun
from besselmap.identities import _bilinear_sums, _reflect
from besselmap.logseries import LogPowerSeries, derivative_block
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


@pytest.mark.parametrize("x", [0.0, 0.3, 2.0, 2.404825557695773, 7.5, 20.0])
def test_signlog_tables_match_scalar_factors(x):
    """The lane-wise table gives the same bits as the per-order scalar bracket,
    and a longer table gives the same factors as the shortest one.  x = 0 sums
    no term, 2.4048... is a zero of J_0, and x = 20 takes several blocks of rows."""
    table = log_reduced_j(201, x)
    assert _pairs(table) == [_scalar_log_reduced_j(m, x) for m in range(202)]
    for m in range(202):
        shortest = log_reduced_j(m, x)
        assert _pairs(shortest) == _pairs(table)[: m + 1]
        # at x = 0 only the bilinear sums' z side: slope -inf at p < 0
        slopes_list = ((0.0, 2.0 * math.log(x)), (2.0 * math.log(x), 0.0)) if x else ((0.0, -math.inf),)
        for slopes in slopes_list:
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


@pytest.mark.parametrize("checker", [check_eq11, check_eq9_real])
def test_bilinear_checks_keep_the_evaluators_argument_range(checker):
    # the N table guards t as k_bessel and a_function do
    with pytest.raises(ValueError, match=r"^t = 25\.0 outside the supported range \(0, 20\.0\]$"):
        checker(0.5, 25.0)


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
    assert rep.details["reliable_order"] == 4
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


def test_eq18_kinds_mirror_at_real_probes():
    r1 = check_eq18_order(1, 0, 1)
    r2 = check_eq18_order(2, 0, 1)
    assert r1.observed == pytest.approx(r2.observed, rel=1e-12)


def test_eq18_validation():
    with pytest.raises(ValueError):
        check_eq18_order(3, 0, 1)
    with pytest.raises(ValueError, match="probes must lie in"):
        check_eq18_order(1, 0, 1, probes=(10.0,))
    with pytest.raises(ValueError):
        check_eq18_order(1, -1, 1)


def test_probe_checks_share_the_convergence_note():
    # t = 4 lies outside what the K = 8 series sums to 1e-6; EQ15 and EQ18 say so alike
    n15 = check_eq15_order(0, 1, K=8, M=4, probes=(4.0,)).notes
    n18 = check_eq18_order(1, 0, 1, K=8, M=4, probes=(4.0,)).notes
    assert n15 == n18 == "probe t=4.0 outside series convergence for K=8"


def _probe_protocol_one_at_a_time(base, family, n, j, M, probes):
    """The protocol with one scalar evaluation per series, target and probe:
    the distances and the note's missed probes."""
    entry = lambda_coefficients(base, M, j)[j]
    missed = []
    for x in probes:
        oracle = lambda_taylor_target(family, n, 0, x)
        if abs(base.evaluate(0.5 * x * x) - oracle) > 1e-6 * max(1.0, abs(oracle)):
            missed.append(f"t={x}")
    distances = [abs(entry.evaluate(0.5 * x * x) - lambda_taylor_target(family, n, j, x)) for x in probes]
    return distances, missed


@pytest.mark.parametrize("probes", [(0.5, 1.0, 2.0), (4.0, 0.1, 2.5, 1.0), (1.7,), (3, 0.25)])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_probe_protocol_has_the_bits_of_one_probe_at_a_time(n, probes):
    """Summing each series once at all its probes gives every distance and
    note of the protocol run one probe at a time, bit for bit."""
    cases = [
        (check_eq15_order(n, 1, 16, 12, probes), neumann_t_series(n, 16), "N", 1, 12, probes),
        (check_eq15_order(n, 2, 32, 12, probes), neumann_t_series(n, 32), "N", 2, 12, probes),
        (check_eq15_order(n, 1, 8, 4, probes), neumann_t_series(n, 8), "N", 1, 4, probes),  # t = 4 misses
        (check_eq18_order(1, n, 1, 16, 12, probes), hankel_t_series(1, n, 16), "H1", 1, 12, probes),
        (check_eq18_order(2, n, 1, 8, 4, probes), hankel_t_series(2, n, 8), "H2", 1, 4, probes),
        (check_eq3prime_order(n, 2, 32, 12), reduced_j_series(n, 32), "reducedJ", 2, 12, (0.5, 1.0, 2.0)),
    ]
    for rep, base, family, j, M, xs in cases:
        distances, missed = _probe_protocol_one_at_a_time(base, family, n, j, M, xs)
        assert [d.hex() for d in rep.observed] == [d.hex() for d in distances]
        note = f"probe {', '.join(missed)} outside series convergence for K={base.K_trunc}" if missed else ""
        assert rep.notes == note


def test_probe_protocol_keeps_the_order_guard():
    """The targets' |n| <= 10 guard holds on every probe check."""
    message = r"\|nu\| = 11 outside the supported order range \[-10.0, 10.0\]"
    with pytest.raises(ValueError, match=message):
        check_eq15_order(11, 1, K=20)
    with pytest.raises(ValueError, match=message):
        check_eq18_order(1, 11, 1, K=20)
    with pytest.raises(ValueError, match=message):
        check_eq3prime_order(11, 2, K=40)


def test_probe_note_names_every_probe_that_misses():
    # at K = 6 the N series misses at t = 3 (1.1e-5) and t = 4, but not at t = 2
    rep = check_eq15_order(0, 1, K=6, M=2, probes=(2.0, 3.0, 4.0))
    assert rep.notes == "probe t=3.0, t=4.0 outside series convergence for K=6"
    assert check_eq15_order(0, 1, K=6, M=2, probes=(2.0,)).notes == ""


def test_operator_reports_carry_their_reliable_order():
    assert check_eq3prime_order(0, 2, K=26, M=12).details["reliable_order"] == 2
    assert check_eq15_order(0, 2, K=24, M=8).details["reliable_order"] == 8
    assert check_eq18_order(2, 1, 1, K=20, M=6).details["reliable_order"] == 14
    # EQ17's partial sums lie below the reliable order at every compared J_max
    assert check_integer_shift(0).details["reliable_order"] == [-8, -32, -56, -80]
    assert check_integer_shift(0, K=20, M=4, J_max_list=(3, 1)).details["reliable_order"] == [8, 16]


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


def test_integer_shift_reports_an_overflow_as_inf_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a coefficient of the ladder leaves the float range at order 16
        rep = check_integer_shift(0, J_max_list=(2, 40))
        assert rep.observed == [5.0850014149928566e26, math.inf]
        assert rep.details["reliable_order"] == [-8, None]
        # the partial sums stay finite, but evaluating them at t = 0.01 overflows from order 6
        rep = check_integer_shift(0, t=0.01)
    assert rep.observed[2:] == [math.inf, math.inf]
    assert rep.details["reliable_order"][2:] == [None, None]


@pytest.mark.parametrize("n,t", [(0, 1.0), (1, 0.6), (2, 1.9)])
def test_integer_shift_ladder_matches_each_truncated_map(n, t):
    """One shared ladder gives, bit for bit, the residual of the map truncated
    separately at each exponential order."""
    rep = check_integer_shift(n, t=t, J_max_list=(4, 0, 2, 6, 8, 2))
    base = neumann_t_series(n, 16)
    target = rep.details["target"]
    for jm, got in zip(rep.params["J_max_list"], rep.observed):
        assert got == abs(apply_exp_sigma(base, 12, jm, 1.0).evaluate(0.5 * t * t) - target)


def test_integer_shift_validation():
    with pytest.raises(ValueError):
        check_integer_shift(0, t=3.0)
    with pytest.raises(ValueError):
        check_integer_shift(-1)
    with pytest.raises(ValueError, match="J_max_list must not be empty"):
        check_integer_shift(J_max_list=())


@pytest.mark.parametrize(
    "checker,kwargs,name",
    [
        (check_eq2_roundtrip, {"nus": ()}, "nus"),
        (check_eq2_roundtrip, {"zs": ()}, "zs"),
        (check_eq3_closure, {"nus": ()}, "nus"),
        (check_eq3_closure, {"zs": ()}, "zs"),
        (check_eq15_order, {"probes": ()}, "probes"),
        (check_eq18_order, {"probes": ()}, "probes"),
    ],
)
def test_empty_sequences_are_named(checker, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must not be empty$"):
        checker(**kwargs)


# ---------------------------------------------------------------------------
# definitional guards
# ---------------------------------------------------------------------------


def test_eq2_roundtrip_machine_level():
    """sin and cos of pi nu are taken as neumann takes them, so only the
    rounding of the last few operations is left."""
    rep = check_eq2_roundtrip()
    assert rep.verdict == "pass"
    assert rep.residual <= 1e-15


@pytest.mark.parametrize("nu", [1.0, 2.000000005, -3.0, 4.0 - 5e-9])
def test_eq2_roundtrip_rejects_orders_neumann_takes_as_integers(nu):
    """Within specfun._NEAR_INTEGER of an integer sin(nu pi) is 0 or neumann sums
    its order jet in place of the combination EQ2 checks, so the check would
    pass untested."""
    with pytest.raises(ValueError, match=f"nu = {nu}"):
        check_eq2_roundtrip(nus=(0.3, nu))
    assert check_eq2_roundtrip(nus=(2.00000002,), zs=(1.0,)).verdict == "pass"


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
def test_eq2_roundtrip_rejects_a_nonfinite_order(nu):
    # the near-integer guard is a negated range test, so NaN fails it and names the order
    with pytest.raises(ValueError, match=f"^EQ2 needs finite orders .*; got nu = {nu}$"):
        check_eq2_roundtrip(nus=(0.3, nu))


def test_eq3_closure_exact():
    rep = check_eq3_closure()
    assert rep.verdict == "pass"
    assert rep.tolerance == 1.0
    assert len(rep.observed) == 9
    # at the top of the order range the pair (nu - 1, nu) keeps nu + 1 out of it
    assert check_eq3_closure((-10.0, 9.5, 10.0), (0.5, 5.0, 20.0)).verdict == "pass"


def _eq3_points(rng, count, offsets):
    """(nu, z) like the suite workload's EQ3 draws: z log-uniform in [0.2, 4];
    nu cycles through uniform in [0.1, 2.9], an integer in 0..3, and an
    integer in 1..3 moved by a log-uniform offset in `offsets`."""
    lo, hi = (math.log10(x) for x in offsets)
    points = []
    for i in range(count):
        if i % 3 == 0:
            nu = rng.uniform(0.1, 2.9)
        elif i % 3 == 1:
            nu = float(rng.randint(0, 3))
        else:
            nu = rng.randint(1, 3) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)
        points.append((nu, 0.2 * 20.0 ** rng.random()))
    return points


def test_eq3_wronskian_holds_within_the_evaluators_estimates():
    """2,000 points, a third of them at |nu - n| in [2e-8, 1e-3], where the
    +/-order combination loses the most to cancellation."""
    points = _eq3_points(random.Random(20261018), 2000, (2e-8, 1e-3))
    bad = [(nu, z) for nu, z in points if check_eq3_closure((nu,), (z,)).verdict != "pass"]
    assert not bad


def test_eq3_wronskian_inside_the_near_integer_zone():
    """100 points at |nu - n| in [1e-9, 1e-8], where neumann sums the order
    jet at n: the Wronskian holds within the evaluators' estimates."""
    points = _eq3_points(random.Random(20261019), 300, (1e-9, 1e-8))
    zone = [(nu, z) for nu, z in points if 0 < abs(nu - round(nu)) < 1e-8]
    assert all(check_eq3_closure((nu,), (z,)).verdict == "pass" for nu, z in zone)


def test_eq14_kernel_exact():
    rep = check_eq14_kernel()
    assert rep.verdict == "pass"
    assert rep.tolerance == 64 * 2.0**-52 + 31 * 4.0**-30
    assert len(rep.observed) == 20


def test_eq14_kernel_passes_at_many_seeds():
    assert all(check_eq14_kernel(seed).verdict == "pass" for seed in range(200))


def test_eq14_kernel_fails_on_an_off_by_one_derivative(monkeypatch):
    monkeypatch.setattr(
        identities, "derivative_block", lambda coef, k_min: derivative_block(coef, k_min + 1)
    )
    assert check_eq14_kernel().verdict == "fail"


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
    rec["details"]["reliable_order"] = -1
    rec["details"]["added"] = 1
    assert (json.dumps(rep.params), json.dumps(rep.details)) == (params, details)
    assert rep.to_record()["params"]["probes"] == json.loads(params)["probes"]


def test_suite_is_deterministic_and_sorted():
    a = [r.to_record() for r in run_suite()]
    b = [r.to_record() for r in run_suite()]
    assert a == b
    keys = [(r["identity_id"], json.dumps(r["params"], sort_keys=True)) for r in a]
    assert keys == sorted(keys)


def _clear_caches():
    for module in (identities, logseries, sigmaop, sonine, specfun):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _suite_bytes() -> bytes:
    return json.dumps([r.to_record() for r in run_suite()], sort_keys=True, indent=2).encode()


def test_suite_bytes_do_not_depend_on_the_caches():
    _clear_caches()
    cold = _suite_bytes()
    assert _suite_bytes() == cold


def test_a_steady_suite_pass_builds_no_series(monkeypatch):
    """The mapped ladders are built once per process: a second pass applies no
    Sigma and makes no series."""
    run_suite()
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sigmaop, "apply_sigma", counted("apply_sigma", sigmaop.apply_sigma))
    for name in ("scale", "add", "_store"):
        monkeypatch.setattr(LogPowerSeries, name, counted(name, getattr(LogPowerSeries, name)))
    run_suite()
    assert calls == {}
    identities._lambda_entries.cache_clear()
    identities._shift_prefix.cache_clear()
    run_suite()  # the ladders are built again, through the counted functions
    assert calls["apply_sigma"] == 27 and calls["_store"] > 0


def test_the_ladder_memos_stay_within_their_maxsize():
    size = identities._lambda_entries.cache_info().maxsize
    K = size + 8
    for M in range(1, K):
        check_eq3prime_order(0, 1, K=K, M=M)
    info = identities._lambda_entries.cache_info()
    assert info.currsize == info.maxsize == size
    size = identities._shift_prefix.cache_info().maxsize
    for M in range(1, size + 8):
        check_integer_shift(0, K=16, M=M, J_max_list=(1, 2))
    info = identities._shift_prefix.cache_info()
    assert info.currsize == info.maxsize == size


def test_an_exhausted_reliable_order_is_raised_on_every_call():
    before = identities._lambda_entries.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ReliableOrderExhausted, match="K = 10 cannot support 1 Sigma applications"):
            check_eq15_order(0, 1, K=10, M=12)
    assert identities._lambda_entries.cache_info().currsize == before


@pytest.mark.parametrize("M", [0, -1])
def test_the_shift_window_guard_is_raised_on_every_call(M):
    """EQ17's reading of the ladder reports a failing order as inf; the window's
    guard is raised, not reported, also once the ladders are warm."""
    check_integer_shift()
    for _ in range(2):
        with pytest.raises(ValueError, match="shift_window must be >= 1"):
            check_integer_shift(M=M)


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
