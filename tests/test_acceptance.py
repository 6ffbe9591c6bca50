"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-5 and 10 hold and pass.  Criteria 6-9 pin the truncated
exponential order-map against real-order targets at tight tolerances;
the measured residuals are orders of magnitude above those tolerances
(the truncated operator series is a formal expansion that does not
converge to the real-order functions -- see the sigmaop module tests for
the pinned plateau values).  Those tests are implemented faithfully at
the stated tolerances and fail; the failure is the measured result, not
a regression.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time

import pytest

from besselmap import (
    LogPowerSeries,
    a_function,
    apply_exp_sigma,
    bessel_j,
    bessel_pair,
    bessel_t_series,
    check_eq3prime_order,
    check_eq9_real,
    check_eq11,
    check_eq14_kernel,
    check_eq15_order,
    check_eq18_order,
    check_integer_shift,
    hankel_t_series,
    k_bessel,
    lambda_coefficients,
    neumann,
    reduced_j_series,
    z_function,
)

EULER_GAMMA = 0.5772156649015329


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1. bilinear Neumann-weighted sum
# ---------------------------------------------------------------------------


def test_criterion_01_bilinear_neumann_sum():
    t0 = time.perf_counter()
    residuals, alphas = [], []
    for z, t in ((0.0, 2.0), (0.5, 2.0), (1.0, 3.0)):
        rep = check_eq11(z, t, N=200)
        residuals.append(rep.residual)
        alphas.append(rep.details["tail_exponent"])
    elapsed = time.perf_counter() - t0
    ok = (
        all(r < 5e-3 for r in residuals)
        and all(1.8 <= a <= 2.2 for a in alphas)
        and elapsed < 5.0
    )
    _line(
        1,
        "neumann-weighted-sum",
        ok,
        f"max residual {max(residuals):.2e}, tail exponents "
        f"{[round(a, 3) for a in alphas]}, " + ("within 5 s" if elapsed < 5.0 else f"{elapsed:.2f}s"),
    )
    assert all(r < 5e-3 for r in residuals)
    assert all(1.8 <= a <= 2.2 for a in alphas)
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. vanishing J-weighted part
# ---------------------------------------------------------------------------


def test_criterion_02_bessel_weighted_part_vanishes():
    vals = []
    for z, t in ((0.0, 2.0), (0.5, 2.0), (1.0, 3.0)):
        rep = check_eq9_real(z, t, N=200)
        vals.append(rep.details["j_part_residual"])
    ok = all(v < 5e-3 for v in vals)
    _line(2, "bessel-weighted-part", ok, f"max |S_200| = {max(vals):.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 3. contour engine
# ---------------------------------------------------------------------------


def test_criterion_03_contour_engine():
    pair = bessel_pair()
    worst = 0.0
    for n in range(0, 9):
        for z in (0.3, 1.0, 2.5):
            want = bessel_j(float(n), z).value.real / z**n
            worst = max(worst, abs(z_function(pair, n, z).value.real - want))
    worst_radius = 0.0
    for n in (0, 4, 8):
        for z in (0.3, 1.0, 2.5):
            a = z_function(bessel_pair(radius=0.7), n, z).value
            b = z_function(bessel_pair(radius=1.3), n, z).value
            worst_radius = max(worst_radius, abs(a - b))
    ok = worst < 1e-10 and worst_radius < 1e-10
    _line(3, "contour-engine", ok, f"value dist {worst:.2e}, radius dist {worst_radius:.2e}")
    assert worst < 1e-10
    assert worst_radius < 1e-10


# ---------------------------------------------------------------------------
# 4. half-line quadrature and the K identification
# ---------------------------------------------------------------------------


def _k0_series_oracle(t: float) -> float:
    q = 0.25 * t * t
    i0, term, ksum, h = 1.0, 1.0, 0.0, 0.0
    for k in range(1, 60):
        term *= q / (k * k)
        h += 1.0 / k
        i0 += term
        ksum += term * h
    return -(math.log(0.5 * t) + EULER_GAMMA) * i0 + ksum


def test_criterion_04_k_quadrature():
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        closed_half = math.sqrt(math.pi / (2.0 * t)) * math.exp(-t)
        worst = max(worst, abs(k_bessel(0.5, t).value / closed_half - 1.0))
        worst = max(worst, abs(k_bessel(1.5, t).value / (closed_half * (1.0 + 1.0 / t)) - 1.0))
    cross = abs(a_function(bessel_pair(), 1, 2.0).value - _k0_series_oracle(2.0))
    ok = worst < 1e-8 and cross < 1e-8
    _line(4, "k-quadrature", ok, f"half-integer rel err {worst:.2e}, K0 cross {cross:.2e}")
    assert worst < 1e-8
    assert cross < 1e-8


# ---------------------------------------------------------------------------
# 5. integer-order limit and Wronskian
# ---------------------------------------------------------------------------


def test_criterion_05_integer_limit_and_wronskian():
    def even_combo(n, t, eps):
        return 0.5 * (neumann(n + eps, t).value.real + neumann(n - eps, t).value.real)

    worst_limit = 0.0
    for n in (0, 1, 2):
        for t in (0.5, 1.0, 2.0):
            # Richardson order limit of the non-integer formula vs the integer-order value
            limit = (4.0 * even_combo(n, t, 5e-4) - even_combo(n, t, 1e-3)) / 3.0
            worst_limit = max(worst_limit, abs(limit - neumann(float(n), t).value.real))

    def d1(f, z, h=0.0025):
        fm2, fm1, fp1, fp2 = f(z - 2 * h), f(z - h), f(z + h), f(z + 2 * h)
        return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)

    worst_wron = 0.0
    for nu in (0.0, 0.3, 1.0, 1.7):
        for z in (0.5, 1.0, 2.0):
            j = bessel_j(nu, z).value.real
            n_ = neumann(nu, z).value.real
            jp = d1(lambda x: bessel_j(nu, x).value.real, z)
            np_ = d1(lambda x: neumann(nu, x).value.real, z)
            worst_wron = max(worst_wron, abs(j * np_ - jp * n_ - 2.0 / (math.pi * z)))
    ok = worst_limit < 1e-8 and worst_wron < 1e-7
    _line(5, "integer-limit", ok, f"limit vs oracle {worst_limit:.2e}, wronskian {worst_wron:.2e}")
    assert worst_limit < 1e-8
    assert worst_wron < 1e-7


# ---------------------------------------------------------------------------
# 6. first order of the mapped reduced series, coefficient-exact
# ---------------------------------------------------------------------------


def test_criterion_06_reduced_map_first_order_coefficients():
    residuals = [check_eq3prime_order(n, 1, K=16, M=12).residual for n in (0, 1, 2)]
    ok = all(r <= 1e-10 for r in residuals)
    _line(
        6,
        "reduced-map-order-1",
        ok,
        f"coefficient distances {[f'{r:.3e}' for r in residuals]} vs tol 1e-10; "
        "the truncated map's first-order series misses the order-derivative "
        "closed form by an O(0.1) constant (measured, stable in K and M)",
    )
    assert all(r <= 1e-10 for r in residuals)


# ---------------------------------------------------------------------------
# 7. first and second order of the mapped Neumann series at probes
# ---------------------------------------------------------------------------


def test_criterion_07_neumann_map_orders():
    r1 = [check_eq15_order(n, 1, K=16, M=12).residual for n in (0, 1)]
    r2 = [check_eq15_order(n, 2, K=24, M=8).residual for n in (0, 1)]
    ok = all(r <= 1e-5 for r in r1) and all(r <= 1e-4 for r in r2)
    _line(
        7,
        "neumann-map-orders",
        ok,
        f"j=1 dist {[f'{r:.2e}' for r in r1]} vs 1e-5, j=2 dist "
        f"{[f'{r:.2e}' for r in r2]} vs 1e-4; log-derivative terms inject "
        "factorially growing negative powers (measured)",
    )
    assert all(r <= 1e-5 for r in r1)
    assert all(r <= 1e-4 for r in r2)


# ---------------------------------------------------------------------------
# 8. mapped Hankel series and their recombination
# ---------------------------------------------------------------------------


def _mapped_lambda1(series):
    return lambda_coefficients(series, 12, 1)[1]


def test_criterion_08_hankel_map_and_recombination():
    map_res = [check_eq18_order(1, n, 1, K=16, M=12).residual for n in (0, 1)]
    rec_res = [
        (_mapped_lambda1(hankel_t_series(1, n, 16)) + _mapped_lambda1(hankel_t_series(2, n, 16)))
        .scale(0.5)
        .compare(_mapped_lambda1(bessel_t_series(n, 16)), 16 - 12)
        for n in (0, 1)
    ]
    ok = all(r <= 1e-5 for r in map_res) and all(r <= 1e-12 for r in rec_res)
    _line(
        8,
        "hankel-map-and-recombination",
        ok,
        f"map dist {[f'{r:.2e}' for r in map_res]} vs 1e-5 (measured miss), "
        f"recombination {[f'{r:.2e}' for r in rec_res]} vs 1e-12 (holds by linearity)",
    )
    assert all(r <= 1e-12 for r in rec_res)
    assert all(r <= 1e-5 for r in map_res)


# ---------------------------------------------------------------------------
# 9. unit-deformation trend
# ---------------------------------------------------------------------------


def test_criterion_09_unit_shift_trend():
    reps = [check_integer_shift(n, J_max_list=(2, 4, 6, 8), t=1.0) for n in (0, 1)]
    ok = all(r.observed[-1] <= r.observed[0] / 2.0 for r in reps)
    detail = "; ".join(
        f"n={r.params['n']}: residuals {[f'{v:.2e}' for v in r.observed]}" for r in reps
    )
    _line(
        9,
        "unit-shift-trend",
        ok,
        detail + "; residuals grow with exponential order instead of shrinking (measured)",
    )
    for r in reps:
        assert r.observed[-1] <= r.observed[0] / 2.0


# ---------------------------------------------------------------------------
# 10. operator algebra
# ---------------------------------------------------------------------------


def test_criterion_10_operator_algebra():
    # (a) zero deformation is the identity
    s = reduced_j_series(1, 14)
    ident_dist = apply_exp_sigma(s, 6, 4, 0.0).compare(s, 14)

    # (b) derivative-after-antiderivative round trip on randomized series;
    # the only allowed defect is the final rounding of the coefficient
    # division (at most 1 ulp relative)
    rng = random.Random(20260808)
    worst_rt = 0.0
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(3, 14)):
            k = rng.randint(-4, 9)
            j = rng.randint(0, 3)
            terms[(k, j)] = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        series = LogPowerSeries("u-of-z", terms, 12)
        scale = max(abs(c) for c in series.terms.values())
        worst_rt = max(worst_rt, series.compare(series.antiderivative().derivative(), 12) / scale)

    # (c) kernel sign through the series calculus at random points, against
    # the checker's stated rounding and truncation bound
    kernel = check_eq14_kernel(seed=314159)

    ok = ident_dist == 0.0 and worst_rt <= 2.0**-50 and kernel.residual <= kernel.tolerance
    _line(
        10,
        "operator-algebra",
        ok,
        f"identity dist {ident_dist}, round-trip rel {worst_rt:.2e} (<= 1 ulp), "
        f"kernel residual {kernel.residual:.2e} (<= {kernel.tolerance:.2e})",
    )
    assert ident_dist == 0.0
    assert worst_rt <= 2.0**-50
    assert kernel.residual <= kernel.tolerance
