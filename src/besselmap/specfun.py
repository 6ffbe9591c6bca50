"""Reference evaluators for the Bessel family at real order, and series builders.

The evaluators are deliberately series/quadrature based and self-contained:

* ``bessel_j``   -- ascending power series, summed to relative 1e-16.
* ``neumann``    -- the positive/negative-order combination for non-integer
  order; for integer order the logarithmic series (``neumann_log_series``,
  DLMF 10.8.1), with the reflection N_-n = (-1)^n N_n.
* ``hankel``     -- J +/- i N.
* ``k_bessel`` -- the half-line trapezoid (shared with
  ``sonine.a_function``) after an exponential substitution that makes the integrand decay
  double-exponentially at both ends, with node doubling until stabilization.
* ``log_reduced_j`` / ``neumann_scaled_table`` -- (signs, logs) arrays of
  J_m(z)/z^m and t^m N_m(t) for every order m = 0..max, for sums whose
  factors overflow or underflow double precision.

The intended working range is desk scale: arguments in (0, 20], orders in
[-10, 10].  No asymptotic large-argument machinery is included.

Series builders return :class:`~besselmap.logseries.LogPowerSeries` objects
in u = z**2/2 (tag "u-of-z") or u = t**2/2 (tag "u-of-t").
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .logseries import LogPowerSeries

__all__ = [
    "EvalResult",
    "bessel_j",
    "neumann",
    "neumann_log_series",
    "hankel",
    "k_bessel",
    "reduced_j_series",
    "bessel_t_series",
    "neumann_t_series",
    "hankel_t_series",
    "FAMILIES",
    "lambda_taylor_target",
    "log_reduced_j",
    "neumann_scaled_table",
]

_MAX_ARG = 20.0
_MAX_ORDER = 10.0
_SERIES_LIMIT = 600
_EPS = 2.0**-52


@dataclass(frozen=True)
class EvalResult:
    """A computed function value with an error estimate and an effort count."""

    value: complex
    err_estimate: float
    effort: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.err_estimate) or self.err_estimate < 0:
            raise ValueError(f"bad err_estimate {self.err_estimate}")
        if self.effort < 1:
            raise ValueError("effort must be >= 1")


# ---------------------------------------------------------------------------
# psi at positive integers
# ---------------------------------------------------------------------------

# _PSI[m - 1] = psi(m) = -Euler's constant + H_(m-1) (DLMF 5.4.14), built by
# one running sum psi(m + 1) = psi(m) + 1/m and grown on demand by _psi_table.
# Each new entry reads the last one, so growth holds a lock.
_PSI = [-0.5772156649015329]
_PSI_GROWTH = threading.Lock()


def _psi_table(m: int) -> list:
    """_PSI, grown to hold at least psi(1), ..., psi(m)."""
    if len(_PSI) < m:
        with _PSI_GROWTH:
            while len(_PSI) < m:
                _PSI.append(_PSI[-1] + 1.0 / len(_PSI))
    return _PSI


# ---------------------------------------------------------------------------
# J, N, H
# ---------------------------------------------------------------------------


def _is_integer(nu: float) -> bool:
    return abs(nu - round(nu)) < 1e-8


def _check_domain(nu: float, z: float) -> None:
    """The public guard: |nu| <= 10 and |z| <= 20."""
    if abs(nu) > _MAX_ORDER:
        raise ValueError(f"|nu| = {abs(nu)} outside the supported order range [-{_MAX_ORDER}, {_MAX_ORDER}]")
    if abs(z) > _MAX_ARG:
        raise ValueError(f"|z| = {abs(z)} outside the supported range (0, {_MAX_ARG}]")


def bessel_j(nu: float, z: float) -> EvalResult:
    """J_nu(z) by the ascending series, summed until term < 1e-16 * |partial|."""
    nu = float(nu)
    z = float(z)
    _check_domain(nu, z)
    if _is_integer(nu):
        n = round(nu)
        if n < 0:
            r = bessel_j(-nu, abs(z))
            sign = (-1.0) ** (-n)
            if z < 0:
                sign *= (-1.0) ** (-n)
            return EvalResult(sign * r.value, r.err_estimate, r.effort)
        if z < 0:
            r = bessel_j(nu, -z)
            return EvalResult((-1.0) ** n * r.value, r.err_estimate, r.effort)
        if z == 0.0:
            return EvalResult(1.0 if n == 0 else 0.0, 0.0, 1)
        nu = float(n)
    elif z <= 0:
        raise ValueError("z must be positive for non-integer order")
    return _j_series(nu, z)


# Rounding allowance of both ascending series (J and the logarithmic N), per
# unit of summed |addend|.  At 4 eps a sweep of n = 0..10, z in [0.01, 20]
# against mpmath reached error/estimate 0.74 on the logarithmic series; 8 eps
# leaves a margin of two.  J at 8 eps peaks at 0.39 over nu in [-10, 10].
_SERIES_ROUNDING = 8.0 * _EPS


def _j_series(nu: float, z: float) -> EvalResult:
    """The ascending series of J_nu(z), z > 0, for callers that have already
    checked the domain."""
    half = 0.5 * z
    term = half**nu / math.gamma(nu + 1.0)
    total = term
    abs_sum = abs(term)
    k = 1
    while k < _SERIES_LIMIT:
        term *= -(half * half) / (k * (nu + k))
        total += term
        abs_sum += abs(term)
        if abs(term) < 1e-16 * abs(total) + 1e-300:
            break
        k += 1
    return EvalResult(total, abs(term) + _SERIES_ROUNDING * abs_sum, k)


def neumann_log_series(n: int, z: float) -> EvalResult:
    """N_n(z) for integer n >= 0 by the textbook logarithmic expansion.

    err_estimate bounds the series' own error: the size of the last term
    summed, a few ulps of every addend (the cancellation), and the error of J_n
    amplified by the (2/pi) log(z/2) factor that multiplies it.
    """
    if n != int(n) or n < 0:
        raise ValueError("neumann_log_series needs integer n >= 0")
    n = int(n)
    if z <= 0:
        raise ValueError("z must be positive")
    half = 0.5 * z
    jn = bessel_j(n, z)
    log_factor = (2.0 / math.pi) * math.log(half)
    total = log_factor * jn.value.real
    abs_sum = abs(total)
    for k in range(n):
        addend = (math.factorial(n - k - 1) / math.factorial(k)) * half ** (2 * k - n) / math.pi
        total -= addend
        abs_sum += addend
    term = half**n / math.factorial(n)
    psi = _psi_table(n + _SERIES_LIMIT)
    k = 0
    effort = jn.effort + n
    while k < _SERIES_LIMIT:
        contrib = term * (psi[k] + psi[n + k]) / math.pi
        total -= contrib
        abs_sum += abs(contrib)
        effort += 1
        if abs(contrib) < 1e-17 * abs(total) + 1e-300:
            break
        term *= -(half * half) / ((k + 1) * (n + k + 1))
        k += 1
    err = abs(term) + _SERIES_ROUNDING * abs_sum + abs(log_factor) * jn.err_estimate
    return EvalResult(total, err, effort)


def neumann(nu: float, z: float) -> EvalResult:
    """N_nu(z).

    Non-integer order: the positive/negative-order combination
    (J_nu cos(nu pi) - J_-nu) / sin(nu pi).  Integer order n: the
    logarithmic series, reflected as N_-n = (-1)^n N_n for n < 0.
    """
    nu = float(nu)
    z = float(z)
    if z <= 0:
        raise ValueError("z must be positive")
    _check_domain(nu, z)
    if _is_integer(nu):
        n = round(nu)
        r = neumann_log_series(abs(n), z)
        if n >= 0:
            return r
        return EvalResult((-1.0) ** n * r.value, r.err_estimate, r.effort)
    jp = _j_series(nu, z)
    jm = _j_series(-nu, z)
    s = math.sin(math.pi * nu)
    c = math.cos(math.pi * nu)
    val = (jp.value.real * c - jm.value.real) / s
    err = (jp.err_estimate + jm.err_estimate + 1e-16 * (abs(jp.value) + abs(jm.value))) / abs(s)
    return EvalResult(val, err, jp.effort + jm.effort)


def hankel(kind: int, nu: float, z: float) -> EvalResult:
    """H^(1) = J + iN, H^(2) = J - iN."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    j = bessel_j(nu, z)
    n = neumann(nu, z)
    sign = 1.0 if kind == 1 else -1.0
    return EvalResult(
        complex(j.value.real, sign * n.value.real),
        j.err_estimate + n.err_estimate,
        j.effort + n.effort,
    )


# ---------------------------------------------------------------------------
# K by half-line quadrature
# ---------------------------------------------------------------------------

_NODE_BUDGET = 2**14
_HALFLINE_WINDOW = 12.0  # |w| range of the trapezoid
_HALFLINE_REL_TARGET = 1e-12  # node doubling stops at this relative change


def _halfline_quadrature(g) -> tuple[float, float, int]:
    """Trapezoid in w for the integral of g(e^w) dw over the real line.

    The caller folds the e^w jacobian into g.  After the substitution
    x = e^w the integrands used here decay double-exponentially in both
    directions, so plain trapezoid converges geometrically under node
    doubling (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).  Returns
    (value, err, nodes).  err is the last doubling's change plus the
    summation's rounding, eps * nodes * |value|, which bounds it because
    every integrand here is positive.  Growth by more than 4x on two
    doublings is divergence and raises, as does exhausting the node budget.
    """

    def sample(h: float) -> tuple[float, int]:
        total = g(1.0)  # w = 0
        count = 1
        w = h
        while w <= _HALFLINE_WINDOW:
            total += g(math.exp(w))
            total += g(math.exp(-w))
            count += 2
            w += h
        return total * h, count

    prev, nodes = sample(0.5)
    h = 0.25
    growth = 0
    err = math.inf
    while nodes < _NODE_BUDGET:
        cur, nodes = sample(h)
        err = abs(cur - prev)
        if err <= _HALFLINE_REL_TARGET * max(abs(cur), 1e-300):
            return cur, err + _EPS * nodes * abs(cur), nodes
        if abs(cur) > 4.0 * abs(prev) + 1.0:
            growth += 1
            if growth >= 2:
                raise ArithmeticError("half-line quadrature diverges under node doubling")
        prev = cur
        h *= 0.5
    raise ArithmeticError(
        f"half-line quadrature failed to stabilize within {_NODE_BUDGET} nodes (last delta {err:.3e})"
    )


def k_bessel(nu: float, t: float) -> EvalResult:
    """K_nu(t) from (1/2)(t/2)^nu * integral of exp(-s - t^2/(4s)) s^(-nu-1) ds."""
    nu = float(nu)
    t = float(t)
    if t <= 0:
        raise ValueError("t must be positive")
    _check_domain(nu, t)
    quart = 0.25 * t * t

    def g(s: float) -> float:
        expo = -s - quart / s - nu * math.log(s)
        if expo < -700.0:
            return 0.0
        return math.exp(expo)  # includes the e^w jacobian: s^(-nu-1) * s = s^(-nu)

    val, err, nodes = _halfline_quadrature(g)
    pref = 0.5 * (0.5 * t) ** nu
    return EvalResult(pref * val, pref * err, nodes)


# ---------------------------------------------------------------------------
# Series builders
# ---------------------------------------------------------------------------


def _bessel_coefficients(n: int):
    """c_k(n) = (-1)^k / (k! (n+k)! 2^(n+k)) for k = 0, 1, 2, ...: the u^k
    coefficients of J_n(z)/z^n, u = z^2/2.  The t^n J_n(t) coefficients are
    c_k(n) 2^n, which is exact."""
    for k in itertools.count():
        yield (-1.0) ** k / (math.factorial(k) * math.factorial(n + k) * 2.0 ** (n + k))


def _reduced_j_lambda1_coefficients(n: int):
    """c_k(n) (-psi(n+k+1) - log 2) for k = 0, 1, 2, ...: the u^k coefficients
    of d/dlam [J_(n+lam)(z)/z^(n+lam)] at lam = 0."""
    ln2 = math.log(2.0)
    for k, c in enumerate(_bessel_coefficients(n)):
        yield c * (-_psi_table(n + k + 1)[n + k] - ln2)


def reduced_j_series(n: int, K: int) -> LogPowerSeries:
    """J_n(z)/z^n as a pure power series in u = z^2/2; coefficient of u^k is
    c_k(n) = (-1)^k / (k! (n+k)! 2^(n+k))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if K < n + 2:
        raise ValueError(f"K = {K} too small; need K >= n + 2 = {n + 2}")
    terms = {(k, 0): c for k, c in enumerate(itertools.islice(_bessel_coefficients(n), K + 1))}
    return LogPowerSeries("u-of-z", terms, K)


def bessel_t_series(n: int, K: int) -> LogPowerSeries:
    """t^n J_n(t) as a pure power series in u = t^2/2 (support starts at u^n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if K < n + 2:
        raise ValueError(f"K = {K} too small; need K >= n + 2 = {n + 2}")
    scale = 2.0**n
    cs = itertools.islice(_bessel_coefficients(n), K - n + 1)
    terms = {(n + k, 0): c * scale for k, c in enumerate(cs)}
    return LogPowerSeries("u-of-t", terms, K)


def neumann_t_series(n: int, K: int) -> LogPowerSeries:
    """t^n N_n(t) as a log-power series in u = t^2/2 with j_max = 1.

    Built from the standard integer-order expansion.  log(t/2) is rewritten
    as (1/2) log u - (1/2) log 2 and the constant is folded into the j = 0
    coefficients, so the representation is canonical and comparable.
    """
    if n < 0:
        raise ValueError("n must be >= 0 (use the reflection N_{-n} = (-1)^n N_n)")
    if K < n + 2:
        raise ValueError(f"K = {K} too small; need K >= n + 2 = {n + 2}")
    terms: dict[tuple[int, int], complex] = {}

    def bump(k: int, j: int, v: float) -> None:
        terms[(k, j)] = terms.get((k, j), 0.0) + v

    ln2 = math.log(2.0)
    psi = _psi_table(K + 1)
    scale = 2.0**n
    cs = [c * scale for c in itertools.islice(_bessel_coefficients(n), K - n + 1)]
    # (2/pi) log(t/2) t^n J_n(t)
    for k, c in enumerate(cs):
        bump(n + k, 1, (1.0 / math.pi) * c)
        bump(n + k, 0, -(ln2 / math.pi) * c)
    # -(1/pi) sum_{k<n} (n-k-1)!/k! (t/2)^(2k-n) t^n  =  -(1/pi) (n-k-1)!/k! 2^(n-k) u^k
    for k in range(n):
        bump(k, 0, -(math.factorial(n - k - 1) / math.factorial(k)) * 2.0 ** (n - k) / math.pi)
    # -(1/pi) sum_k (-1)^k [psi(k+1)+psi(n+k+1)] (t/2)^(n+2k) t^n / (k!(n+k)!)
    for k, c in enumerate(cs):
        bump(n + k, 0, -(psi[k] + psi[n + k]) * c / math.pi)
    return LogPowerSeries("u-of-t", terms, K)


def hankel_t_series(kind: int, n: int, K: int) -> LogPowerSeries:
    """t^n H_n^(kind)(t) = t^n J_n(t) +/- i t^n N_n(t) as a complex log-power series."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    sign = 1.0j if kind == 1 else -1.0j
    return bessel_t_series(n, K).add(neumann_t_series(n, K).scale(sign))


# Each series family: its builder (n, K) and, where the family has one, the
# real-order function (nu, x) whose integer-order Taylor series it is.
FAMILIES = {
    "reducedJ": (reduced_j_series, lambda nu, x: bessel_j(nu, x).value / x**nu),
    "J": (bessel_t_series, None),
    "N": (neumann_t_series, lambda nu, x: x**nu * neumann(nu, x).value),
    "H1": (
        lambda n, K: hankel_t_series(1, n, K),
        lambda nu, x: x**nu * hankel(1, nu, x).value,
    ),
    "H2": (
        lambda n, K: hankel_t_series(2, n, K),
        lambda nu, x: x**nu * hankel(2, nu, x).value,
    ),
}


# ---------------------------------------------------------------------------
# Lambda-Taylor targets
# ---------------------------------------------------------------------------


def _reduced_j_lambda1_analytic(n: int, z: float) -> float:
    """Coefficient route for d/dlam [J_(n+lam)(z)/z^(n+lam)] at lam = 0:
    sum_k c_k(n) (-psi(n+k+1) - log 2) u^k."""
    u = 0.5 * z * z
    total = 0.0
    for k, a in zip(range(_SERIES_LIMIT), _reduced_j_lambda1_coefficients(n)):
        term = a * u**k
        total += term
        if k > 2 and abs(term) < 1e-17 * abs(total) + 1e-300:
            break
    return total


def lambda_taylor_target(family: str, n: int, j: int, probe: float) -> complex:
    """(1/j!) d^j/dlam^j of the real-order target at lam = 0, j in {0, 1, 2}.

    Computed by Richardson-combined central differences in the order
    (steps 1e-3 and 5e-4).  For the reducedJ family at j = 1 the digamma
    coefficient form is also computed; disagreement beyond 1e-6 raises.
    """
    value = FAMILIES.get(family, (None, None))[1]
    if value is None:
        valid = tuple(name for name, (_, v) in FAMILIES.items() if v is not None)
        raise ValueError(f"unknown family {family!r}; expected one of {valid}")
    if j not in (0, 1, 2):
        raise ValueError("j must be 0, 1 or 2")
    if probe <= 0:
        raise ValueError("probe point must be positive")
    f = lambda lam: value(n + lam, probe)
    if j == 0:
        return f(0.0)
    h = 1e-3
    if j == 1:
        d1 = (f(h) - f(-h)) / (2.0 * h)
        d2 = (f(h / 2) - f(-h / 2)) / h
        fd = (4.0 * d2 - d1) / 3.0
        if family == "reducedJ":
            analytic = _reduced_j_lambda1_analytic(n, probe)
            if abs(fd - analytic) > 1e-6:
                raise ArithmeticError(
                    f"lambda-Taylor internal consistency failure: finite differences "
                    f"{fd} vs digamma form {analytic}"
                )
            return complex(analytic)
        return fd
    f0 = f(0.0)
    s1 = (f(h) - 2.0 * f0 + f(-h)) / (h * h)
    s2 = (f(h / 2) - 2.0 * f0 + f(-h / 2)) / (h * h / 4.0)
    return (4.0 * s2 - s1) / 3.0 / 2.0


# ---------------------------------------------------------------------------
# Scaled (sign, log-magnitude) evaluators for large-order term assembly
# ---------------------------------------------------------------------------


def log_reduced_j(nmax: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """(signs, logs) of J_m(z)/z^m for m = 0..nmax, z >= 0, stable to m ~ hundreds.

    J_m(z)/z^m = 2^(-m)/m! * S_m with S_m a fast-converging hypergeometric
    bracket.  All m are summed together, one lane each; a lane stops on its
    own convergence test, so its value does not depend on nmax.  z = 0 takes
    the same path (S_m = 1).  A zero bracket reads (1.0, -inf).
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if z < 0:
        raise ValueError("z must be >= 0")
    u = 0.5 * z * z
    order = np.arange(nmax + 1, dtype=float)
    s = np.ones(nmax + 1)
    term = np.ones(nmax + 1)
    live = np.arange(nmax + 1)
    for k in range(1, _SERIES_LIMIT):
        term[live] *= -(0.5 * u) / (k * (order[live] + k))
        s[live] += term[live]
        # a lane stops where the scalar loop would break; one whose test is not
        # true (NaN included) goes on, as the scalar loop does
        live = live[~(np.abs(term[live]) < 1e-18 * np.abs(s[live]) + 1e-300)]
        if not live.size:
            break
    ln2 = math.log(2.0)
    logs = [
        -m * ln2 - math.lgamma(m + 1.0) + math.log(abs(v)) if v else -math.inf
        for m, v in enumerate(s.tolist())
    ]
    return np.where(s < 0, -1.0, 1.0), np.array(logs)


def neumann_scaled_table(t: float, pmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(signs, logs) of t^p N_p(t) for p = 0..pmax by the scaled upward recurrence
    G_{p+1} = 2p G_p - t^2 G_{p-1}, which is forward-stable for the N family.
    A zero value reads (1.0, -inf)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if pmax < 1:
        raise ValueError("pmax must be >= 1")
    g0 = neumann(0.0, t).value.real
    g1 = t * neumann(1.0, t).value.real
    mants = [0.0, 0.0]
    exps = [0, 0]
    mants[0], exps[0] = math.frexp(g0)
    mants[1], exps[1] = math.frexp(g1)
    for p in range(1, pmax):
        v = 2.0 * p * mants[p] * 2.0 ** (exps[p] - exps[p - 1]) - t * t * mants[p - 1]
        m, e = math.frexp(v)
        mants.append(m)
        exps.append(e + exps[p - 1])
    logs = [
        math.log(abs(m)) + e * math.log(2.0) if m else -math.inf for m, e in zip(mants, exps)
    ]
    return np.where(np.array(mants) < 0, -1.0, 1.0), np.array(logs)
