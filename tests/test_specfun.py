"""Reference evaluators against closed forms, independent series oracles and scipy."""

import math
import random
import re
import statistics
from itertools import accumulate

import numpy as np
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
    neumann_t_series,
    reduced_j_series,
)
from besselmap.logseries import LogPowerSeries
from besselmap.specfun import (
    FAMILIES,
    _PSI,
    _halfline_level,
    _halfline_quadrature,
    _neumann_jet,
    _neumann_jet_rows,
    _order_jet,
    log_reduced_j,
    neumann_scaled_table,
)

EULER_GAMMA = 0.5772156649015329


def _reduced_j_lambda1(n, K):
    """The reducedJ lam^1 column of the order jet: d/dlam [J_(n+lam)(z)/z^(n+lam)] at lam = 0."""
    return _order_jet("reducedJ", n, K, 1)[1]


# ---------------------------------------------------------------------------
# psi at positive integers
# ---------------------------------------------------------------------------


def test_digamma_at_one_independent_oracle():
    # Euler-Mascheroni via the harmonic-number limit with its first corrections
    N = 100_000
    h = sum(1.0 / k for k in range(1, N + 1))
    gamma_oracle = h - math.log(N) - 0.5 / N + 1.0 / (12.0 * N * N)
    assert _PSI[0] == pytest.approx(-gamma_oracle, abs=1e-12)


def test_psi_table_matches_mpmath_through_growth():
    """_PSI[m - 1] = psi(m) = -gamma + H_(m-1) at m = 1..171: the running sum
    grows to every entry the order jets can read (c_k(n) raises from m = 172)."""
    mpmath = pytest.importorskip("mpmath")
    assert len(_PSI) == 171
    for m, v in enumerate(_PSI, start=1):
        with mpmath.workdps(30):
            ref = float(mpmath.digamma(m))
        assert abs(v - ref) <= 2e-15 * abs(ref), m


def test_psi_table_is_one_running_sum():
    """Every entry is the one running sum, psi(m + 1) = psi(m) + 1/m bit for bit."""
    assert isinstance(_PSI, tuple)
    assert all(_PSI[m] == _PSI[m - 1] + 1.0 / m for m in range(1, len(_PSI)))


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


_GEOMETRIC_Z = [0.01 * 2000.0 ** (k / 29) for k in range(30)]  # 30 geometric z in [0.01, 20]


def _random_points():
    """500 seeded (nu, z): nu uniform in [-10, 10], z geometric in [0.01, 20]."""
    rng = random.Random(20261018)
    return [(rng.uniform(-10.0, 10.0), 0.01 * 2000.0 ** rng.random()) for _ in range(500)]


def _near_integer_points(offsets):
    """(n +/- delta, z) for n = -10..10, each offset delta and each z of
    _GEOMETRIC_Z, with the order inside [-10, 10]."""
    orders = [n + s * d for n in range(-10, 11) for d in offsets for s in (1.0, -1.0)]
    return [(nu, z) for nu in orders if abs(nu) <= 10.0 for z in _GEOMETRIC_Z]


def test_j_estimate_bounds_the_error_on_the_grid():
    """nu = -10..10 in steps of 0.5 x 30 geometric z in [0.01, 20]."""
    assert not _j_misses([(0.5 * i, z) for i in range(-20, 21) for z in _GEOMETRIC_Z])


def test_j_estimate_bounds_the_error_at_random_points():
    assert not _j_misses(_random_points())


def test_j_estimate_bounds_the_error_near_integers():
    """Every non-integer order takes the series, however near an integer, and
    the series does not stop while k < -nu, where its terms dip near the poles
    of 1/Gamma(nu + k + 1): bessel_j(-9.999999997, 1.0) is on this grid."""
    points = _near_integer_points((1e-12, 1e-10, 3e-9, 1e-8, 1e-6, 1e-4))
    assert len(points) == 7200
    assert not _j_misses(points)


def test_j_integer_order_symmetries_are_exact():
    """J_-n = (-1)^n J_n and J_n(-z) = (-1)^n J_n(z) hold bit for bit in the
    value, the estimate and the effort, z = 0 included."""
    for n in range(11):
        for z in [0.0] + _GEOMETRIC_Z:
            r = bessel_j(n, z)
            flipped = ((-1.0) ** n * r.value, r.err_estimate, r.effort)
            for got in (bessel_j(-n, z), bessel_j(n, -z)):
                assert (got.value, got.err_estimate, got.effort) == flipped
            assert bessel_j(-n, -z) == r


def test_j_near_integer_order_needs_positive_z():
    for nu in (2.0 + 1e-12, -3.0 - 1e-9):
        for z in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                bessel_j(nu, z)


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
    # err_estimate is the order jet sum's own error bound
    assert r.err_estimate < 1e-8


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 3.0])
def test_n_integer_vs_scipy(n, z):
    """Both signs of n against mpmath at 40 digits within the estimate."""
    mpmath = pytest.importorskip("mpmath")
    assert neumann(float(n), z).value.real == pytest.approx(float(sp.yn(n, z)), abs=1e-9)
    for m in (n, -n):
        r = neumann(float(m), z)
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(r.value.real) - mpmath.bessely(m, z)) <= r.err_estimate


@pytest.mark.parametrize("nu", [0.3, 1.7, 2.5, -0.4])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 6.0])
def test_n_noninteger_vs_scipy(nu, z):
    assert neumann(nu, z).value.real == pytest.approx(float(sp.yv(nu, z)), rel=1e-10, abs=1e-12)


def test_n_negative_integer_reflection():
    assert neumann(-2.0, 1.5).value.real == pytest.approx(float(sp.yn(-2, 1.5)), abs=1e-9)


def test_n_continuity_near_integer():
    assert abs(neumann(1.0 + 1e-4, 2.0).value.real - neumann(1.0, 2.0).value.real) < 1e-3


def _n_and_h1_misses(points):
    """(nu, z) for every point where neumann or hankel(1, .) misses mpmath at
    30 digits by more than its err_estimate; there is no absolute floor."""
    mpmath = pytest.importorskip("mpmath")
    misses = []
    for nu, z in points:
        n, h = neumann(nu, z), hankel(1, nu, z)
        with mpmath.workdps(30):
            y = mpmath.bessely(nu, z)
            err_n = float(abs(mpmath.mpf(n.value.real) - y))
            err_h = float(abs(mpmath.mpc(h.value) - mpmath.mpc(mpmath.besselj(nu, z), y)))
        if err_n > n.err_estimate or err_h > h.err_estimate:
            misses.append((nu, z))
    return misses


def test_n_and_h1_estimates_bound_the_error_near_integers():
    """Outside the 1e-8 zone the +/-order combination takes sin and cos of
    pi nu from the exact remainder nu - n."""
    assert not _n_and_h1_misses(_near_integer_points((2e-8, 1e-7, 1e-6, 1e-5, 1e-4)))


def test_n_and_h1_estimates_bound_the_error_at_random_points():
    assert not _n_and_h1_misses(_random_points())


def test_n_estimate_bounds_the_error_inside_the_near_integer_zone():
    """40 seeded orders n +/- delta, delta log-uniform in [1e-9, 1e-8], the
    near-integer order class of the evaluators benchmark, where neumann sums
    the order jet at n."""
    rng = random.Random(20261019)
    points = []
    while len(points) < 40:
        nu = rng.randint(-10, 10) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -8.0)
        if abs(nu) <= 10.0:
            points.append((nu, 0.01 * 2000.0 ** rng.random()))
    assert not _n_and_h1_misses(points)


def test_n_domain_error():
    with pytest.raises(ValueError):
        neumann(0.3, -1.0)
    with pytest.raises(ValueError):
        neumann(0.0, 0.0)


@pytest.mark.parametrize("n", [10, -10])
@pytest.mark.parametrize("z", [0.01, 0.5, 3.0, 12.0, 20.0])
def test_n_order_ten_at_the_domain_edge(n, z):
    """|n| = 10 is inside the domain and evaluates like every integer order,
    within its estimate of mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    r = neumann(float(n), z)
    with mpmath.workdps(40):
        ref = mpmath.bessely(n, z)
        assert abs(mpmath.mpf(r.value.real) - ref) <= r.err_estimate
    assert r.value.real == pytest.approx(float(ref), rel=1e-6)
    h1, h2 = hankel(1, float(n), z).value, hankel(2, float(n), z).value
    assert h1.imag == r.value.real == -h2.imag
    assert h1.real == h2.real == bessel_j(float(n), z).value.real


_INTEGER_GRID_Z = [0.01 * 2000.0 ** (i / 39) for i in range(40)]  # 40 geometric z in [0.01, 20]


def test_n_integer_order_is_within_its_estimate_at_both_signs():
    """On n = -10..10 x 40 geometric z in [0.01, 20], err_estimate bounds the
    error against mpmath at 40 digits, with no floor, and the relative error is
    at most 7.0e-8 (the logarithmic series' worst, near z = 20, where the
    ascending series cancel).  N_-n = (-1)^n N_n, so one reference serves both
    signs."""
    mpmath = pytest.importorskip("mpmath")
    misses, worst = [], 0.0
    with mpmath.workdps(40):
        for n in range(11):
            for z in _INTEGER_GRID_Z:
                ref = mpmath.bessely(n, z)
                for m, want in {n: ref, -n: (-1) ** n * ref}.items():
                    r = neumann(float(m), z)
                    err = abs(mpmath.mpf(r.value.real) - want)
                    if err > r.err_estimate:
                        misses.append((m, z, float(err), r.err_estimate))
                    worst = max(worst, float(err / abs(want)))
    assert not misses
    assert worst <= 7.0e-8


def test_n_integer_estimate_stays_tight():
    """The median err_estimate / |value| on the integer grid stays within 2x of
    the 1.78e-15 that both the logarithmic series and the order jet read, so
    the estimate cannot grow into uselessness unseen."""
    ratios = [abs(r.err_estimate / r.value) for n in range(-10, 11) for z in _INTEGER_GRID_Z for r in [neumann(n, z)]]
    assert statistics.median(ratios) <= 2.0 * 1.78e-15


def test_n_estimate_bounds_the_error_on_a_zone_sweep():
    """300 seeded points n + delta, n = -10..10, |delta| log-uniform in
    [1e-9, 1e-8], z geometric in [0.01, 20]: the order jet's estimate bounds
    its error against mpmath at 40 digits, with no floor."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261020)
    misses = []
    for i in range(300):
        n = i % 21 - 10
        delta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -8.0)
        nu = n + (delta if abs(n + delta) <= 10.0 else -delta)
        z = 0.01 * 2000.0 ** rng.random()
        r = neumann(nu, z)
        with mpmath.workdps(40):
            err = abs(mpmath.mpf(r.value.real) - mpmath.bessely(nu, z))
        if err > r.err_estimate:
            misses.append((nu, z, float(err), r.err_estimate))
    assert not misses


@pytest.mark.parametrize("n", [-10, -3, 0, 4, 10])
def test_n_jet_estimate_covers_the_third_order_term(n):
    """At delta = +/-1e-3, outside the zone, the lam^3 term the jet leaves out
    dominates the error of its sum.  The estimate covers delta^3 times the
    third order derivative in nu of z^(nu - n) N_nu(z) / 3! from mpmath.diff,
    and bounds the error against mpmath's N_(n + delta), z = sqrt(2) (log u = 0)
    included."""
    mpmath = pytest.importorskip("mpmath")
    for z in (0.01, 0.5, math.sqrt(2.0), 3.0, 12.0, 20.0):
        with mpmath.workdps(40):
            c3 = mpmath.diff(lambda nu: mpmath.mpf(z) ** (nu - n) * mpmath.bessely(nu, z), n, 3) / 6
        for delta in (1e-3, -1e-3):
            if abs(n + delta) > 10.0:
                continue
            value, estimate, _ = _neumann_jet(n, delta, z)
            with mpmath.workdps(40):
                assert abs(delta**3 * c3) * z**-delta <= estimate, (z, delta)
                assert abs(mpmath.mpf(value) - mpmath.bessely(n + delta, z)) <= estimate, (z, delta)


def _neumann_log_series(n, z):
    """(value, estimate) of N_n(z), integer 0 <= n <= 10, by the logarithmic
    expansion DLMF 10.8.1 in a loop of its own: the engine that summed integer
    orders before the order jet, kept as an oracle independent of it.  psi(m) =
    -gamma + H_(m-1) comes from its own running sum and J_n from its own terms;
    the estimate is 8 eps of every addend, J_n's times |(2/pi) log(z/2)|."""
    half = 0.5 * z
    psi = list(accumulate((1.0 / m for m in range(1, n + 60)), initial=-EULER_GAMMA))
    j_terms = [(-half * half) ** k * half**n / (math.factorial(k) * math.factorial(n + k)) for k in range(60)]
    log_factor = (2.0 / math.pi) * math.log(half)
    addends = [log_factor * math.fsum(j_terms)]
    addends += [-(math.factorial(n - k - 1) / math.factorial(k)) * half ** (2 * k - n) / math.pi for k in range(n)]
    addends += [-t * (psi[k] + psi[n + k]) / math.pi for k, t in enumerate(j_terms)]
    rounding = sum(map(abs, addends)) + abs(log_factor) * sum(map(abs, j_terms))
    return math.fsum(addends), 8.0 * 2.0**-52 * rounding


@pytest.mark.parametrize("n", range(11))
def test_n_integer_order_matches_the_logarithmic_series(n):
    """At both signs of n and 40 geometric z in [0.01, 20], the order jet and
    DLMF 10.8.1 agree within the sum of their estimates."""
    for z in _INTEGER_GRID_Z:
        want, want_err = _neumann_log_series(n, z)
        for m, sign in {n: 1.0, -n: (-1.0) ** n}.items():
            r = neumann(float(m), z)
            assert abs(r.value.real - sign * want) <= r.err_estimate + want_err, (m, z)


@pytest.mark.parametrize(
    "fn, args, text",
    [
        (neumann, (2.0, 1e-300), "N_nu(z) at nu = 2.0, z = 1e-300"),
        (neumann, (3.000000005, 1e-300), "N_nu(z) at nu = 3.000000005, z = 1e-300"),
        (neumann, (-9.5, 1e-300), "N_nu(z) at nu = -9.5, z = 1e-300"),
        (neumann, (-9.5, 2e-32), "N_nu(z) at nu = -9.5, z = 2e-32"),
        (hankel, (1, 2.0, 1e-300), "N_nu(z) at nu = 2.0, z = 1e-300"),
        (bessel_j, (-9.5, 1e-300), "J_nu(z) at nu = -9.5, z = 1e-300"),
        (bessel_j, (-9.5, 2e-32), "J_nu(z) at nu = -9.5, z = 2e-32"),
        (k_bessel, (-10.0, 1e-40), "K_nu(t) at nu = -10.0, t = 1e-40"),
        (k_bessel, (10.0, 1e-40), "K_nu(t) at nu = 10.0, t = 1e-40"),
    ],
)
def test_overflow_at_tiny_z_names_the_function_order_and_argument(fn, args, text):
    """A value that leaves the float range raises OverflowError, which names
    the function, nu and z; at z = 2e-32 J_-9.5's leading term is finite until
    it is divided by -9.5 Gamma(-9.5).  K's prefactor overflows at nu = -10 and
    its quadrature fails at nu = 10; both name K."""
    with pytest.raises(OverflowError, match=f"^{re.escape(text)} leaves the float range$"):
        fn(*args)


@pytest.mark.parametrize("nu, z", [(0.0, 1e-300), (1.0, 1e-300), (1e-9, 1e-300), (10.0, 1e-30), (-10.0, 1e-30)])
def test_n_at_tiny_z_returns_what_the_float_range_holds(nu, z):
    """u = z^2/2 underflows here, and N_10(1e-30) is -1.18e308: log u comes
    from log z, and z^-n rides in the rows, so the value stays within its
    estimate of mpmath."""
    mpmath = pytest.importorskip("mpmath")
    r = neumann(nu, z)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(r.value.real) - mpmath.bessely(nu, z)) <= r.err_estimate


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
    def g(xs, live):
        return [sum(0.0 if x == 1.0 else math.log(x) ** -4 for x in xs.tolist())]

    (r,) = _halfline_quadrature(g, 1)
    with pytest.raises(ArithmeticError, match="diverges"):
        raise r


def test_k_budget_error_names_the_nodes_sampled():
    # a new level starts while fewer than 16384 nodes are taken, so the last has 24577
    with pytest.raises(ArithmeticError, match=r"failed to stabilize within 24577 nodes \(last delta"):
        k_bessel(0.5, 0.02)


def _rebuilt_levels():
    """The reference construction of the level nodes, one list per level: e^w
    and e^-w with w a running sum of the step, level 0 led by w = 0."""

    def level(w, step):
        xs = []
        while w <= 12.0:
            xs.append(math.exp(w))
            xs.append(math.exp(-w))
            w += step
        return xs

    h = 0.5
    out = [[1.0] + level(h, h)]
    for _ in range(9):
        h *= 0.5
        out.append(level(h, 2.0 * h))
    return out


def test_halfline_levels_are_one_read_only_table():
    levels = [_halfline_level(i) for i in range(10)]
    # bit for bit: every node is a positive finite float, so == compares bits
    assert [x.tolist() for x in levels] == _rebuilt_levels()
    assert all(x.dtype == np.float64 and not x.flags.writeable for x in levels)
    nodes = np.concatenate(levels)
    assert len(nodes) == len(np.unique(nodes)) == 24577
    assert _halfline_level(3) is levels[3]


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


@pytest.mark.parametrize("n", range(11))
def test_series_builders_match_the_validating_constructor(n):
    """Each builder writes its block directly; the result equals the series
    the validating constructor lays out from the same terms."""
    builders = (
        reduced_j_series,
        _reduced_j_lambda1,
        bessel_t_series,
        neumann_t_series,
        lambda n, K: hankel_t_series(1, n, K),
        lambda n, K: hankel_t_series(2, n, K),
    )
    for K in sorted({n + 2, 16, 24, 40}):
        for build in builders:
            s = build(n, K)
            assert s == LogPowerSeries(s.variable_tag, s.terms, K)


def test_series_builder_validation():
    with pytest.raises(ValueError):
        reduced_j_series(-1, 12)
    with pytest.raises(ValueError):
        _reduced_j_lambda1(0, 1)
    with pytest.raises(ValueError):
        neumann_t_series(0, 1)
    with pytest.raises(ValueError):
        bessel_t_series(5, 6)
    with pytest.raises(ValueError):
        hankel_t_series(3, 0, 12)


def test_series_builders_raise_a_domain_error_where_c_k_leaves_the_float_range():
    """k!(n+k)! passes the float range from k = 99 at n = 0."""
    assert reduced_j_series(0, 98).coefficient(98, 0) == 0.0  # underflows, no error
    for build in (reduced_j_series, _reduced_j_lambda1, neumann_t_series):
        with pytest.raises(ValueError, match="n = 0, k = 99"):
            build(0, 99)


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
    # pin one value of the digamma coefficient route against the classical
    # order-derivative identity dJ_nu/dnu at nu=0 equals (pi/2) N_0
    z = 1.0
    got = lambda_taylor_target("reducedJ", 0, 1, z).real
    want = (math.pi / 2.0) * float(sp.yn(0, z)) - math.log(z) * float(sp.jv(0, z))
    assert got == pytest.approx(want, abs=1e-9)


def _reduced_j_order_differences(n, z):
    """Richardson-combined central differences in the order of J_nu(z)/z^nu at
    nu = n, steps 1e-3 and 5e-4: the finite-difference route to the lam^1 target."""
    f = lambda lam: bessel_j(n + lam, z).value.real / z ** (n + lam)
    h = 1e-3
    d1 = (f(h) - f(-h)) / (2.0 * h)
    d2 = (f(h / 2) - f(-h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


@pytest.mark.parametrize("n", range(6))
def test_lambda_target_first_order_reduced_matches_finite_differences(n):
    for z in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        got = lambda_taylor_target("reducedJ", n, 1, z)
        assert abs(got - _reduced_j_order_differences(n, z)) <= 1e-6


def test_lambda_target_first_order_neumann_family():
    # d/dnu [t^nu N_nu] at nu=0 = log t * N_0(t) - (pi/2) J_0(t)
    for t in (1.0, 2.0):
        got = lambda_taylor_target("N", 0, 1, t).real
        want = math.log(t) * float(sp.yn(0, t)) - (math.pi / 2.0) * float(sp.jv(0, t))
        assert got == pytest.approx(want, abs=1e-7)


def test_lambda_target_hankel_is_j_plus_i_n():
    for t in (1.0, 2.0):
        h = lambda_taylor_target("H1", 0, 1, t)
        jpart = lambda_taylor_target("J", 0, 1, t)
        npart = lambda_taylor_target("N", 0, 1, t)
        # t^nu H = t^nu J + i t^nu N, and d/dnu is linear
        tj = (
            lambda_taylor_target("H1", 0, 1, t) + lambda_taylor_target("H2", 0, 1, t)
        ) / 2.0
        assert h.imag == pytest.approx(npart.real, abs=1e-7)
        assert tj.real == pytest.approx(h.real, abs=1e-9)
        assert tj == pytest.approx(jpart, abs=1e-12)


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
    with pytest.raises(ValueError):
        lambda_taylor_target("reducedJ", 0, 1, 25.0)  # one domain guard: probes up to 20
    with pytest.raises(ValueError, match=r"\|nu\| = 11 outside"):
        lambda_taylor_target("N", 11, 1, 1.0)  # one domain guard for every family


def test_lambda_target_takes_an_array_of_probes():
    """An array call gives each probe the bits of its own call, on each side of
    the switch from the u^32 jet to the u^64 jet at probe 4."""
    for family in FAMILIES:
        for n, j in ((0, 0), (3, 1), (-10, 2)):
            for xs in (np.array([0.5, 4.0, 1.3]), np.array([4.5, 20.0]), np.array([[0.25, 2.0, 3.5]])):
                got = lambda_taylor_target(family, n, j, xs)
                assert got.shape == xs.shape
                want = [lambda_taylor_target(family, n, j, x) for x in xs.ravel().tolist()]
                assert [(v.real.hex(), v.imag.hex()) for v in got.ravel().tolist()] == [
                    (v.real.hex(), v.imag.hex()) for v in want
                ]


def test_lambda_target_checks_every_probe_of_an_array():
    with pytest.raises(ValueError, match="positive"):
        lambda_taylor_target("N", 0, 1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match=r"\|z\| = 25.0 outside"):
        lambda_taylor_target("N", 0, 1, np.array([25.0, 1.0]))
    with pytest.raises(ValueError, match=r"\|z\| = nan outside"):
        lambda_taylor_target("N", 0, 1, np.array([1.0, math.nan]))
    with pytest.raises(ValueError, match=r"\|nu\| = 11 outside"):
        lambda_taylor_target("N", 11, 1, np.array([0.5, 1.0]))


def test_lambda_target_needs_an_integer_order():
    with pytest.raises(ValueError, match="integer order"):
        lambda_taylor_target("N", 0.5, 1, 1.0)


def test_order_jet_matches_mpmath_order_derivatives():
    """The lam^1 and lam^2 targets of reducedJ, N and H1 at n in {-10, 0, 3, 10}
    are within 1e-12 of max(1, |ref|) of mpmath's order derivatives at 30 digits,
    the order bound and negative orders included."""
    mpmath = pytest.importorskip("mpmath")
    real_order = {
        "reducedJ": lambda nu, x: mpmath.besselj(nu, x) / x**nu,
        "N": lambda nu, x: x**nu * mpmath.bessely(nu, x),
        "H1": lambda nu, x: x**nu * mpmath.hankel1(nu, x),
    }
    with mpmath.workdps(30):
        for family, f in real_order.items():
            for n in (-10, 0, 3, 10):
                for x in (0.5, 4.0):
                    refs = mpmath.taylor(lambda nu: f(nu, mpmath.mpf(x)), n, 2)
                    for j in (1, 2):
                        ref = complex(refs[j])
                        got = lambda_taylor_target(family, n, j, x)
                        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (family, n, j, x)


@pytest.mark.parametrize("n", range(11))
def test_j_series_are_c_k_bit_for_bit(n):
    """The reducedJ and J series are c_k(n) and c_k(n) 2^n exactly: the order jet's
    lam^0 prefactor is one exact integer product scaled by powers of 2."""
    for K in sorted({n + 2, 16, 24, 40, 63}):
        reduced, tj = reduced_j_series(n, K), bessel_t_series(n, K)
        for k in range(K + 1):
            c = (-1.0) ** k / (math.factorial(k) * math.factorial(n + k) * 2.0 ** (n + k))
            assert reduced.coefficient(k, 0) == c
            if n + k <= K:
                assert tj.coefficient(n + k, 0) == c * 2.0**n
        assert reduced.j_max == tj.j_max == 0


def _dlmf_10_8_1(n, K):
    """{(k, j): coefficient} of t^n N_n(t) in u = t^2/2 from DLMF 10.8.1, with
    log(t/2) = (1/2) log u - (1/2) log 2: the hand-written block the series
    builders used before the order jet."""
    out = {}
    for k in range(K - n + 1):
        c = (-1.0) ** k / (math.factorial(k) * math.factorial(n + k) * 2.0 ** (n + k)) * 2.0**n
        out[n + k, 1] = (1.0 / math.pi) * c
        out[n + k, 0] = -(math.log(2.0) / math.pi) * c + -(_PSI[k] + _PSI[n + k]) * c / math.pi
    for k in range(n):
        out[k, 0] = -(math.factorial(n - k - 1) / math.factorial(k)) * 2.0 ** (n - k) / math.pi
    return out


@pytest.mark.parametrize("n", range(11))
def test_neumann_series_matches_dlmf_10_8_1(n):
    """The lam^0 column of N's order jet is DLMF 10.8.1 within 5e-16 relative,
    term by term."""
    for K in sorted({n + 2, 16, 24, 40, 63}):
        s = neumann_t_series(n, K)
        want = _dlmf_10_8_1(n, K)
        assert set(s.terms) == set(want)
        for key, v in want.items():
            assert abs(s.coefficient(*key) - v) <= 5e-16 * abs(v), (K, key)


def test_series_builders_check_c_k_before_reading_psi():
    """At K = 1000 the prefactor leaves the float range before any psi past the
    table's 171 entries is read: the c_k error, naming k = 1000, not an IndexError."""
    for build in (reduced_j_series, neumann_t_series):
        with pytest.raises(ValueError, match="n = 0, k = 1000: k!"):
            build(0, 1000)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [1e300, 1e100, 1e3, 21.0])
def test_log_reduced_j_raises_where_its_sums_leave_the_float_range(z):
    """z^2/2 is not finite at 1e300; at 1e100 and 1e3 the bracket's terms
    overflow.  At 21 the sums stay finite but lose their digits to
    cancellation: at z = 100 they once read log|J_0| = 56.4 (true -3.91).
    Each z lies past the supported range and is a ValueError naming z, with
    no numpy warning."""
    message = f"z = {z} outside the supported range [0, 20.0]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        log_reduced_j(201, z)


def test_log_reduced_j_takes_the_edge_of_its_range():
    """z = 20 is inside the range, and log|J_0(20)| is good to about 5e-10 there."""
    signs, logs = log_reduced_j(201, 20.0)
    assert np.isfinite(logs).all()
    assert logs[0] == pytest.approx(math.log(abs(sp.j0(20.0))), abs=1e-8)


def _frexp_recurrence(t, pmax):
    """Reference: (signs, logs) of t^p N_p(t) by the recurrence with each value
    split into mantissa and exponent at every step."""
    mants, exps = zip(math.frexp(neumann(0.0, t).value.real), math.frexp(t * neumann(1.0, t).value.real))
    mants, exps = list(mants), list(exps)
    for p in range(1, pmax):
        v = 2.0 * p * mants[p] * 2.0 ** (exps[p] - exps[p - 1]) - t * t * mants[p - 1]
        m, e = math.frexp(v)
        mants.append(m)
        exps.append(e + exps[p - 1])
    logs = [math.log(abs(m)) + e * math.log(2.0) if m else -math.inf for m, e in zip(mants, exps)]
    return [-1.0 if m < 0 else 1.0 for m in mants], logs


@pytest.mark.parametrize("t", [1e-300, 1e-5, 0.8936, 2.197, 6.0, 20.0])
def test_neumann_scaled_table_has_the_bits_of_the_frexp_recurrence(t):
    """The plain-float recurrence, scaled by powers of two, rounds as the
    mantissa/exponent one at every step; 0.8936 and 2.197 lie near zeros of
    N_0 and N_1, and at t = 1e-300 t^2 is 0."""
    signs, logs = _frexp_recurrence(t, 201)
    for pmax in range(1, 202):
        got = neumann_scaled_table(t, pmax)
        assert got[0].tolist() == signs[: pmax + 1]
        assert [v.hex() for v in got[1].tolist()] == [v.hex() for v in logs[: pmax + 1]]


@pytest.mark.parametrize("n", [-10, -3, 0, 1, 10])
def test_neumann_jet_rows_are_the_jet_columns_without_their_zero_slots(n):
    """Each row keeps the lam^p column's log powers j <= p + 1; the slots it
    drops are zero in the jet."""
    cols = [c._aligned(min(n, 0), 64, 4).real.tolist() for c in _order_jet("N", n, 64, 2)]
    rows = _neumann_jet_rows(n)
    assert len(rows) == 65 - min(n, 0)
    for row, a, b, c in zip(rows, *cols):
        assert row == (a[0], a[1], b[0], b[1], b[2], c[0], c[1], c[2], c[3])
        assert a[2] == a[3] == b[3] == 0.0


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
