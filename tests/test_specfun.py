"""Reference evaluators against closed forms, independent series oracles and scipy."""

import math
import random
import sys
import threading

import pytest
from scipy import special as sp

from besselmap import (
    a_function,
    bessel_j,
    bessel_pair,
    bessel_t_series,
    hankel,
    hankel_t_series,
    k_bessel,
    lambda_taylor_target,
    neumann,
    neumann_log_series,
    neumann_t_series,
    reduced_j_series,
)
from besselmap.specfun import _halfline_quadrature, _psi_table, log_reduced_j, neumann_scaled_table

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# psi at positive integers
# ---------------------------------------------------------------------------


def test_digamma_at_one_independent_oracle():
    # Euler-Mascheroni via the harmonic-number limit with its first corrections
    N = 100_000
    h = sum(1.0 / k for k in range(1, N + 1))
    gamma_oracle = h - math.log(N) - 0.5 / N + 1.0 / (12.0 * N * N)
    assert _psi_table(1)[0] == pytest.approx(-gamma_oracle, abs=1e-12)


def test_psi_table_matches_mpmath_through_growth():
    """_PSI[m - 1] = psi(m) = -gamma + H_(m-1) at m = 1..700.  The logarithmic
    series grows the table to n + 600 <= 610 entries, so 700 takes it past
    that, and growing leaves the entries already there as they were."""
    mpmath = pytest.importorskip("mpmath")
    before = list(_psi_table(610))
    values = _psi_table(700)[:700]
    assert values[:610] == before
    for m, v in enumerate(values, start=1):
        with mpmath.workdps(30):
            ref = float(mpmath.digamma(m))
        assert abs(v - ref) <= 2e-15 * abs(ref), m


def test_psi_table_grows_consistently_under_threads():
    """Eight threads grow the table at once; every entry must still be the one
    running sum, psi(m + 1) = psi(m) + 1/m bit for bit."""
    top = len(_psi_table(1)) + 20_000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=_psi_table, args=(top - 100 * i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    table = _psi_table(top)
    assert len(table) == top
    assert all(table[m] == table[m - 1] + 1.0 / m for m in range(1, top))


# ---------------------------------------------------------------------------
# J
# ---------------------------------------------------------------------------


def test_j_at_origin():
    assert bessel_j(0.0, 0.0).value == 1.0
    assert bessel_j(3.0, 0.0).value == 0.0


def test_j_half_order_closed_form():
    z = math.pi / 2
    assert bessel_j(0.5, z).value.real == pytest.approx(2.0 / math.pi, rel=1e-14)
    # general closed form sqrt(2/(pi z)) sin z
    for z in (0.7, 1.9, 3.3):
        want = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
        assert bessel_j(0.5, z).value.real == pytest.approx(want, rel=1e-13)


def test_j_first_zero_by_bisection():
    lo, hi = 2.0, 3.0
    f = lambda z: bessel_j(0.0, z).value.real
    assert f(lo) > 0 > f(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(2.404825558, abs=1e-8)
    assert abs(bessel_j(0.0, 2.404825558).value.real) < 1e-8


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.7, 2.5, 3.0, -0.5, -2.0])
@pytest.mark.parametrize("z", [0.3, 1.0, 2.0, 5.0, 12.0, 19.0])
def test_j_grid_vs_scipy(nu, z):
    # the ascending series cancels heavily for large z; its reported
    # err_estimate tracks exactly that, so the check is err-aware
    r = bessel_j(nu, z)
    want = float(sp.jv(nu, z))
    assert abs(r.value.real - want) <= max(10.0 * r.err_estimate, 1e-13)
    if z <= 5.0:
        assert r.value.real == pytest.approx(want, rel=1e-11, abs=1e-13)


def _j_misses(points):
    """(nu, z, error, estimate) for every point where |bessel_j - mpmath| at
    30 digits exceeds err_estimate; there is no absolute floor."""
    mpmath = pytest.importorskip("mpmath")
    misses = []
    for nu, z in points:
        r = bessel_j(nu, z)
        with mpmath.workdps(30):
            err = float(abs(mpmath.mpf(r.value.real) - mpmath.besselj(nu, z)))
        if err > r.err_estimate:
            misses.append((nu, z, err, r.err_estimate))
    return misses


def test_j_estimate_bounds_the_error_on_the_grid():
    """nu = -10..10 in steps of 0.5 x 30 geometric z in [0.01, 20]."""
    grid = [(0.5 * i, 0.01 * 2000.0 ** (k / 29)) for i in range(-20, 21) for k in range(30)]
    assert not _j_misses(grid)


def test_j_estimate_bounds_the_error_at_random_points():
    rng = random.Random(20261018)
    points = [(rng.uniform(-10.0, 10.0), 0.01 * 2000.0 ** rng.random()) for _ in range(500)]
    assert not _j_misses(points)


def test_j_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(0.5, -1.0)
    with pytest.raises(ValueError):
        bessel_j(0.0, 25.0)
    with pytest.raises(ValueError):
        bessel_j(11.0, 1.0)
    with pytest.raises(ValueError):
        k_bessel(-12.0, 1.0)


def test_j_error_estimate_and_effort():
    r = bessel_j(0.3, 2.0)
    assert r.effort >= 1
    assert abs(r.value.real - float(sp.jv(0.3, 2.0))) <= max(10 * r.err_estimate, 1e-14)


# ---------------------------------------------------------------------------
# N
# ---------------------------------------------------------------------------


def test_n_half_order_closed_form():
    # N_{1/2}(z) = -J_{-1/2}(z) = -sqrt(2/(pi z)) cos z; at z = pi this is sqrt(2)/pi
    assert neumann(0.5, math.pi).value.real == pytest.approx(math.sqrt(2.0) / math.pi, rel=1e-13)


def test_n_integer_limit_against_oracle():
    r = neumann(0.0, 2.0)
    assert r.value.real == pytest.approx(0.510375672649745, abs=1e-9)
    # err_estimate is the logarithmic series' own error bound
    assert r.err_estimate < 1e-8


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 3.0])
def test_n_integer_vs_scipy(n, z):
    assert neumann(float(n), z).value.real == pytest.approx(float(sp.yn(n, z)), abs=1e-9)
    assert neumann_log_series(n, z).value.real == pytest.approx(float(sp.yn(n, z)), rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("nu", [0.3, 1.7, 2.5, -0.4])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 6.0])
def test_n_noninteger_vs_scipy(nu, z):
    assert neumann(nu, z).value.real == pytest.approx(float(sp.yv(nu, z)), rel=1e-10, abs=1e-12)


def test_n_negative_integer_reflection():
    assert neumann(-2.0, 1.5).value.real == pytest.approx(float(sp.yn(-2, 1.5)), abs=1e-9)


def test_n_continuity_near_integer():
    assert abs(neumann(1.0 + 1e-4, 2.0).value.real - neumann(1.0, 2.0).value.real) < 1e-3


def test_n_domain_error():
    with pytest.raises(ValueError):
        neumann(0.3, -1.0)
    with pytest.raises(ValueError):
        neumann(0.0, 0.0)


@pytest.mark.parametrize("n", [10, -10])
@pytest.mark.parametrize("z", [0.01, 0.5, 3.0, 12.0, 20.0])
def test_n_order_ten_at_the_domain_edge(n, z):
    """|n| = 10 is inside the domain and evaluates like every integer order."""
    mpmath = pytest.importorskip("mpmath")
    r = neumann(float(n), z)
    oracle = neumann_log_series(10, z).value.real  # N_-10 = N_10
    ref = float(mpmath.bessely(n, mpmath.mpf(z)))
    assert r.value.real == oracle
    assert abs(r.value.real - ref) <= r.err_estimate
    assert r.value.real == pytest.approx(ref, rel=1e-6)
    h1, h2 = hankel(1, float(n), z).value, hankel(2, float(n), z).value
    assert h1.imag == r.value.real == -h2.imag
    assert h1.real == h2.real == bessel_j(float(n), z).value.real


def test_n_integer_order_is_the_log_series_within_its_estimate():
    """Integer order returns the logarithmic series bit for bit, and its
    err_estimate bounds the error against mpmath at 40 digits on the grid
    n = -10..10 x 40 geometric z in [0.01, 20].  N_-n = (-1)^n N_n exactly,
    so one mpmath reference serves both signs."""
    mpmath = pytest.importorskip("mpmath")
    misses = []
    for n in range(11):
        for i in range(40):
            z = 0.01 * 2000.0 ** (i / 39)
            r, reflected = neumann(float(n), z), neumann(float(-n), z)
            assert r == neumann_log_series(n, z)
            assert (reflected.value, reflected.err_estimate) == ((-1.0) ** n * r.value, r.err_estimate)
            with mpmath.workdps(40):
                err = float(abs(mpmath.mpf(r.value.real) - mpmath.bessely(n, z)))
            if err > r.err_estimate:
                misses.append((n, z, err, r.err_estimate))
    assert not misses


def test_n_order_guard_stays_on_public_entry_points():
    for nu in (10.5, -10.001, 11.0):
        with pytest.raises(ValueError, match="order range"):
            neumann(nu, 1.0)
        with pytest.raises(ValueError, match="order range"):
            hankel(1, nu, 1.0)
    with pytest.raises(ValueError, match="supported range"):
        neumann(2.5, 25.0)


# ---------------------------------------------------------------------------
# H
# ---------------------------------------------------------------------------


def test_hankel_definitions_and_conjugation():
    for nu in (0.0, 0.3, 1.7):
        for z in (0.5, 2.0):
            j = bessel_j(nu, z).value.real
            n = neumann(nu, z).value.real
            h1 = hankel(1, nu, z).value
            h2 = hankel(2, nu, z).value
            assert (h1 + h2) / 2.0 == j
            assert h1.conjugate() == h2


def test_hankel_negative_order_parity():
    n, z = 3, 2.0
    got = hankel(1, float(-n), z).value
    want = (-1.0) ** n * hankel(1, float(n), z).value
    assert abs(got - want) < 1e-10


def test_hankel_kind_validation():
    with pytest.raises(ValueError):
        hankel(3, 0.0, 1.0)


# ---------------------------------------------------------------------------
# K
# ---------------------------------------------------------------------------


def _k0_series_oracle(t: float) -> float:
    """Independent K_0 from the standard log expansion around the origin."""
    q = 0.25 * t * t
    i0 = 1.0
    term = 1.0
    ksum = 0.0
    h = 0.0
    for k in range(1, 60):
        term *= q / (k * k)
        i0 += term
        h += 1.0 / k
        ksum += term * h
    return -(math.log(0.5 * t) + EULER_GAMMA) * i0 + ksum


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_k_half_integer_closed_forms(t):
    closed = math.sqrt(math.pi / (2.0 * t)) * math.exp(-t)
    assert k_bessel(0.5, t).value == pytest.approx(closed, rel=1e-10)
    assert k_bessel(1.5, t).value == pytest.approx(closed * (1.0 + 1.0 / t), rel=1e-10)


def test_k_symmetry_two_quadratures():
    a = k_bessel(0.3, 1.7).value
    b = k_bessel(-0.3, 1.7).value
    assert abs(a - b) < 1e-10


def test_k_integral_matches_k0():
    # the K integral is the Bessel pair's A_n(t) = t^(n-1) K_(n-1)(t)
    got = a_function(bessel_pair(), 1, 2.0).value
    assert got == pytest.approx(_k0_series_oracle(2.0), rel=1e-10)
    assert got == pytest.approx(k_bessel(0.0, 2.0).value, rel=1e-10)


def test_k_integral_general_index():
    # the half-line integral with weight x^-n carries the order shift n - 1
    for n, t in ((0, 1.0), (2, 1.5), (-1, 2.0)):
        want = t ** (n - 1) * float(sp.kv(n - 1, t))
        assert a_function(bessel_pair(), n, t).value == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.5])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
def test_k_grid_vs_scipy(nu, t):
    assert k_bessel(nu, t).value == pytest.approx(float(sp.kv(nu, t)), rel=1e-10)


@pytest.mark.parametrize("nu", [-9.5, -9.0, -8.5, -8.0])
@pytest.mark.parametrize("i", [20, 23])
def test_k_estimate_is_positive_and_bounds_the_error(nu, i):
    """At these points two node doublings agree bit for bit, so the last
    change alone would claim zero error; the summation's rounding keeps the
    estimate positive and above the mpmath error."""
    mpmath = pytest.importorskip("mpmath")
    t = 0.01 * 2000.0 ** (i / 29)
    r = k_bessel(nu, t)
    with mpmath.workdps(30):
        err = float(abs(mpmath.mpf(r.value) - mpmath.besselk(nu, t)))
    assert 0.0 < r.err_estimate
    assert err <= r.err_estimate


def test_halfline_quadrature_raises_on_divergence():
    # 1/w^4 near w = 0: each halving of the node spacing multiplies the sum by ~8
    with pytest.raises(ArithmeticError, match="diverges"):
        _halfline_quadrature(lambda x: 0.0 if x == 1.0 else math.log(x) ** -4)


def test_k_domain_errors():
    with pytest.raises(ValueError):
        k_bessel(0.5, 0.0)
    with pytest.raises(ValueError):
        a_function(bessel_pair(), 1, -2.0)


# ---------------------------------------------------------------------------
# series builders
# ---------------------------------------------------------------------------


def test_reduced_j_series_coefficients():
    s = reduced_j_series(0, 12)
    assert s.coefficient(0, 0) == 1.0
    assert s.coefficient(1, 0) == -0.5
    s2 = reduced_j_series(2, 12)
    assert s2.coefficient(0, 0) == pytest.approx(1.0 / 8.0)
    assert s2.coefficient(1, 0) == pytest.approx(-1.0 / (1 * 6 * 8))


def test_reduced_j_series_evaluates_to_reference():
    s = reduced_j_series(0, 16)
    assert s.evaluate(0.5).real == pytest.approx(bessel_j(0.0, 1.0).value.real, rel=1e-13)


def test_bessel_t_series_support_and_value():
    s = bessel_t_series(2, 12)
    assert s.k_min == 2
    t = 1.5
    assert s.evaluate(0.5 * t * t).real == pytest.approx(
        t**2 * bessel_j(2.0, t).value.real, rel=1e-12
    )


def test_neumann_t_series_leading_log_coefficient():
    s = neumann_t_series(0, 12)
    assert s.coefficient(0, 1).real == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert s.j_max == 1


@pytest.mark.parametrize("n,t,expected", [(0, 2.0, 0.510375672649745), (1, 2.0, -0.214064984610)])
def test_neumann_t_series_evaluates_to_reference(n, t, expected):
    s = neumann_t_series(n, 14)
    got = s.evaluate(0.5 * t * t).real
    assert got == pytest.approx(t**n * float(sp.yn(n, t)), rel=1e-9)
    assert got == pytest.approx(expected, abs=2e-5)


def test_hankel_t_series_recombination():
    for n in (0, 1, 3):
        h1 = hankel_t_series(1, n, 12)
        h2 = hankel_t_series(2, n, 12)
        j = bessel_t_series(n, 12)
        assert (h1 + h2).scale(0.5).compare(j, 12) < 1e-15
        assert (h1 - h2).scale(0.5 / 1j).compare(neumann_t_series(n, 12), 12) < 1e-15


def test_series_builder_validation():
    with pytest.raises(ValueError):
        reduced_j_series(-1, 12)
    with pytest.raises(ValueError):
        neumann_t_series(0, 1)
    with pytest.raises(ValueError):
        bessel_t_series(5, 6)
    with pytest.raises(ValueError):
        hankel_t_series(3, 0, 12)


# ---------------------------------------------------------------------------
# lambda-Taylor targets
# ---------------------------------------------------------------------------


def test_lambda_target_order_zero():
    assert lambda_taylor_target("reducedJ", 0, 0, 1.0).real == pytest.approx(
        bessel_j(0.0, 1.0).value.real, rel=1e-14
    )
    assert lambda_taylor_target("N", 0, 0, 2.0).real == pytest.approx(
        neumann(0.0, 2.0).value.real, abs=1e-9
    )


def test_lambda_target_first_order_reduced_is_internally_consistent():
    # the digamma coefficient route and finite differences must agree (enforced
    # inside); pin one value against the classical order-derivative identity
    # dJ_nu/dnu at nu=0 equals (pi/2) N_0
    z = 1.0
    got = lambda_taylor_target("reducedJ", 0, 1, z).real
    want = (math.pi / 2.0) * float(sp.yn(0, z)) - math.log(z) * float(sp.jv(0, z))
    assert got == pytest.approx(want, abs=1e-9)


def test_lambda_target_first_order_neumann_family():
    # d/dnu [t^nu N_nu] at nu=0 = log t * N_0(t) - (pi/2) J_0(t)
    for t in (1.0, 2.0):
        got = lambda_taylor_target("N", 0, 1, t).real
        want = math.log(t) * float(sp.yn(0, t)) - (math.pi / 2.0) * float(sp.jv(0, t))
        assert got == pytest.approx(want, abs=1e-7)


def test_lambda_target_hankel_is_j_plus_i_n():
    for t in (1.0, 2.0):
        h = lambda_taylor_target("H1", 0, 1, t)
        jpart = lambda_taylor_target("reducedJ", 0, 1, t)  # different family, only for structure
        npart = lambda_taylor_target("N", 0, 1, t)
        # t^nu H = t^nu J + i t^nu N, and d/dnu is linear
        tj = (
            lambda_taylor_target("H1", 0, 1, t) + lambda_taylor_target("H2", 0, 1, t)
        ) / 2.0
        assert h.imag == pytest.approx(npart.real, abs=1e-7)
        assert tj.real == pytest.approx(h.real, abs=1e-9)
        del jpart


def test_lambda_target_second_order_reduced_vs_trigamma_series():
    # (1/2) d^2/dlam^2 of the reduced-family coefficients:
    # c_k/2 [ (psi(n+k+1) + log 2)^2 - psi'(n+k+1) ]
    n = 0
    for z in (0.5, 1.0, 2.0):
        u = 0.5 * z * z
        want = 0.0
        for k in range(40):
            c = (-1.0) ** k / (math.factorial(k) * math.factorial(n + k) * 2.0 ** (n + k))
            ps = float(sp.digamma(n + k + 1)) + math.log(2.0)
            tri = float(sp.polygamma(1, n + k + 1))
            want += 0.5 * c * (ps * ps - tri) * u**k
        got = lambda_taylor_target("reducedJ", n, 2, z).real
        assert got == pytest.approx(want, abs=5e-7)


def test_lambda_target_validation():
    with pytest.raises(ValueError):
        lambda_taylor_target("bogus", 0, 1, 1.0)
    with pytest.raises(ValueError):
        lambda_taylor_target("N", 0, 3, 1.0)
    with pytest.raises(ValueError):
        lambda_taylor_target("N", 0, 1, -1.0)


# ---------------------------------------------------------------------------
# ODE residual and Wronskian guards
# ---------------------------------------------------------------------------


def _fd_derivatives(f, z, h=0.0025):
    """5-point first and second derivatives."""
    fm2, fm1, f0, fp1, fp2 = (f(z + i * h) for i in (-2, -1, 0, 1, 2))
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    return f0, d1, d2


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.7])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
def test_ode_residual(nu, z):
    for fn in (lambda x: bessel_j(nu, x).value.real, lambda x: neumann(nu, x).value.real):
        y, d1, d2 = _fd_derivatives(fn, z)
        residual = z * z * d2 + z * d1 + (z * z - nu * nu) * y
        assert abs(residual) < 1e-6


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.7])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
def test_wronskian(nu, z):
    _, jp, _ = _fd_derivatives(lambda x: bessel_j(nu, x).value.real, z)
    _, np_, _ = _fd_derivatives(lambda x: neumann(nu, x).value.real, z)
    j = bessel_j(nu, z).value.real
    n = neumann(nu, z).value.real
    wron = j * np_ - jp * n
    assert abs(wron - 2.0 / (math.pi * z)) < 1e-7


# ---------------------------------------------------------------------------
# scaled helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 4, 9])
@pytest.mark.parametrize("z", [0.0, 0.4, 2.0])
def test_log_reduced_j_matches_direct(n, z):
    signs, logs = log_reduced_j(n, z)
    sign, lg = signs[n], logs[n]
    if z == 0.0:
        want = 1.0 / (2.0**n * math.factorial(n))
    else:
        want = float(sp.jv(n, z)) / z**n
    assert sign * math.exp(lg) == pytest.approx(want, rel=1e-12)


def test_log_reduced_j_large_order_finite():
    signs, logs = log_reduced_j(180, 2.0)
    sign, lg = signs[180], logs[180]
    assert sign == 1.0
    # leading term dominates: log(2^-n / n!) with a tiny series correction
    lead = -180 * math.log(2.0) - math.lgamma(181.0)
    assert lg == pytest.approx(lead, abs=0.02)


def test_neumann_scaled_table_matches_scipy():
    t = 2.0
    signs, logs = neumann_scaled_table(t, 150)
    for p in (0, 1, 5, 30, 90, 150):
        sign, lg = signs[p], logs[p]
        want = t**p * float(sp.yv(p, t))
        if math.isfinite(want) and want != 0.0:
            assert sign * math.exp(lg - math.log(abs(want))) * abs(want) / want == pytest.approx(
                1.0, rel=1e-9
            )
