"""Reference evaluators for the Bessel family at real order, and series builders.

The evaluators are deliberately series/quadrature based and self-contained:

* ``bessel_j``   -- ascending power series, summed to relative 1e-16, at every
  non-integer order; exact integers reduce to n, z >= 0 by one sign.
* ``neumann``    -- the positive/negative-order combination, sin and cos of
  nu pi taken from nu minus its nearest integer; within 1e-8 of an integer the
  logarithmic series at that integer (DLMF 10.8.1), with the reflection
  N_-n = (-1)^n N_n.
* ``hankel``     -- J +/- i N.
* ``k_bessel`` -- a one-lane run of the half-line trapezoid (shared with
  ``sonine.a_function``) after an exponential substitution that makes the integrand decay
  double-exponentially at both ends, with nested node doubling until stabilization:
  each doubling samples only its new odd nodes, and the integrand sums a whole
  level for the lanes still live.
* ``log_reduced_j`` / ``neumann_scaled_table`` -- (signs, logs) arrays of
  J_m(z)/z^m and t^m N_m(t) for every order m = 0..max, for sums whose
  factors overflow or underflow double precision.

The intended working range is desk scale: arguments in (0, 20], orders in
[-10, 10].  No asymptotic large-argument machinery is included.

Series builders return :class:`~besselmap.logseries.LogPowerSeries` objects
in u = z**2/2 (tag "u-of-z") or u = t**2/2 (tag "u-of-t").  Each writes its
(power, log power) block from one array of c_k(n) and hands it to the
series unvalidated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .logseries import LogPowerSeries

__all__ = [
    "EvalResult",
    "bessel_j",
    "neumann",
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
# Orders closer than this to an integer n are taken as n by ``neumann``.
_NEAR_INTEGER = 1e-8


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

# _PSI[m - 1] = psi(m) = -Euler's constant + H_(m-1) (DLMF 5.4.14), built once
# by the running sum psi(m + 1) = psi(m) + 1/m.  610 entries are enough:
# the logarithmic series of N_n reads psi(n + k + 1) for k < 600 with n <= 10
# (neumann guards the order first), and the series builders raise on c_k(n),
# which needs n + k <= 170, before they read past psi(171).
_PSI = tuple(
    accumulate((1.0 / m for m in range(1, int(_MAX_ORDER) + _SERIES_LIMIT)), initial=-0.5772156649015329)
)


# ---------------------------------------------------------------------------
# J, N, H
# ---------------------------------------------------------------------------


def _check_domain(nu: float, z: float) -> None:
    """The public guard: |nu| <= 10 and |z| <= 20, NaN failing both."""
    if not abs(nu) <= _MAX_ORDER:
        raise ValueError(f"|nu| = {abs(nu)} outside the supported order range [-{_MAX_ORDER}, {_MAX_ORDER}]")
    if not abs(z) <= _MAX_ARG:
        raise ValueError(f"|z| = {abs(z)} outside the supported range (0, {_MAX_ARG}]")


def bessel_j(nu: float, z: float) -> EvalResult:
    """J_nu(z) by the ascending series, summed until term < 1e-16 * |partial|
    once k > -nu (before that the terms dip near the poles of 1/Gamma(nu+k+1)).
    Every non-integer order takes the series, however near an integer; an
    exact integer n takes J_-n = (-1)^n J_n and J_n(-z) = (-1)^n J_n(z) as one
    sign, z = 0 included."""
    nu = float(nu)
    z = float(z)
    _check_domain(nu, z)
    n = round(nu)
    if nu != n:
        if z <= 0:
            raise ValueError("z must be positive for non-integer order")
        return _j_series(nu, z)
    r = EvalResult(1.0 if n == 0 else 0.0, 0.0, 1) if z == 0.0 else _j_series(float(abs(n)), abs(z))
    if n % 2 and (n < 0) != (z < 0):
        return EvalResult(-r.value, r.err_estimate, r.effort)
    return r


# Rounding allowance of both ascending series (J and the logarithmic N), per
# unit of summed |addend|.  At 4 eps a sweep of n = 0..10, z in [0.01, 20]
# against mpmath reached error/estimate 0.74 on the logarithmic series; 8 eps
# leaves a margin of two.  J at 8 eps peaks at 0.55 over nu in [-10, 10] and near integers.
_SERIES_ROUNDING = 8.0 * _EPS


def _j_series(nu: float, z: float) -> EvalResult:
    """The ascending series of J_nu(z), z > 0, for callers that have already
    checked the domain."""
    half = 0.5 * z
    # Gamma(nu + 1) = nu Gamma(nu): nu + 1 would be rounded wherever it changes
    # binade (nu in [1, 2), [3, 4), ...), an error of |psi(nu + 1)| ulp / 2 that
    # the allowance above leaves out.  It is 1 to within eps at |nu| <= eps.
    term = half**nu / (nu * math.gamma(nu) if abs(nu) > _EPS else 1.0)
    total = term
    abs_sum = abs(term)
    k = 1
    while k < _SERIES_LIMIT:
        term *= -(half * half) / (k * (nu + k))
        total += term
        abs_sum += abs(term)
        if abs(term) < 1e-16 * abs(total) + 1e-300 and k + nu > 0:
            break
        k += 1
    return EvalResult(total, abs(term) + _SERIES_ROUNDING * abs_sum, k)


def _neumann_log_series(n: int, z: float) -> EvalResult:
    """N_n(z) by the textbook logarithmic expansion, for callers that have
    already checked the domain: integer 0 <= n <= 10 and 0 < z <= 20.

    err_estimate bounds the series' own error: the size of the last term
    summed, a few ulps of every addend (the cancellation), and the error of J_n
    amplified by the (2/pi) log(z/2) factor that multiplies it.
    """
    half = 0.5 * z
    jn = _j_series(float(n), z)
    log_factor = (2.0 / math.pi) * math.log(half)
    total = log_factor * jn.value.real
    abs_sum = abs(total)
    for k in range(n):
        addend = (math.factorial(n - k - 1) / math.factorial(k)) * half ** (2 * k - n) / math.pi
        total -= addend
        abs_sum += addend
    term = half**n / math.factorial(n)
    k = 0
    effort = jn.effort + n
    while k < _SERIES_LIMIT:
        contrib = term * (_PSI[k] + _PSI[n + k]) / math.pi
        total -= contrib
        abs_sum += abs(contrib)
        effort += 1
        if abs(contrib) < 1e-17 * abs(total) + 1e-300:
            break
        term *= -(half * half) / ((k + 1) * (n + k + 1))
        k += 1
    err = abs(term) + _SERIES_ROUNDING * abs_sum + abs(log_factor) * jn.err_estimate
    return EvalResult(total, err, effort)


def _sin_cos_pi(nu: float) -> tuple[float, float]:
    """sin and cos of pi nu from the exact remainder nu - n, n the nearest integer:
    pi * nu itself is rounded by about |pi nu| eps, which 1 / sin(pi nu) amplifies."""
    n = round(nu)
    sign = -1.0 if n % 2 else 1.0
    return sign * math.sin(math.pi * (nu - n)), sign * math.cos(math.pi * (nu - n))


def neumann(nu: float, z: float) -> EvalResult:
    """N_nu(z).

    Order nu at least 1e-8 from the nearest integer n: the positive/negative-
    order combination (J_nu cos(nu pi) - J_-nu) / sin(nu pi).  Otherwise the
    logarithmic series at n, reflected as N_-n = (-1)^n N_n for n < 0.
    """
    nu = float(nu)
    z = float(z)
    if z <= 0:
        raise ValueError("z must be positive")
    _check_domain(nu, z)
    n = round(nu)
    # Within 1e-8 of an integer the combination below loses about
    # eps / |nu - n| to cancellation, so the log series at n stands in; the
    # estimate leaves out the order offset (ROADMAP item 3).
    if abs(nu - n) < _NEAR_INTEGER:
        r = _neumann_log_series(abs(n), z)
        return EvalResult(-r.value, r.err_estimate, r.effort) if n < 0 and n % 2 else r
    jp = _j_series(nu, z)
    jm = _j_series(-nu, z)
    s, c = _sin_cos_pi(nu)
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


def _halfline_quadrature(g, lanes: int) -> list:
    """Trapezoid in w for the integral over the real line of each lane of g at
    x = e^w.

    The caller folds the e^w jacobian into g.  After the substitution
    x = e^w the integrands used here decay double-exponentially in both
    directions, so plain trapezoid converges geometrically under node
    doubling (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).  The doubling
    is nested: the first level samples w = 0, +/-0.5, ..., +/-12, and each
    later one samples only its new odd nodes and adds them to the running
    sum, S(h) = S(2h)/2 + h * sum(new nodes), so every node is sampled once.
    A new level starts while fewer than 16384 nodes have been taken, so the
    last level has 24577.

    g has one contract.  For each level it is called once as g(xs, live),
    with the level's new nodes xs and the indices of the lanes still live,
    and returns one sum per live lane: that lane's integrand summed over xs
    in order, starting from 0.0.  A sum that leaves the float range reads
    inf.  Each lane stops on its own test, as ``log_reduced_j``'s lanes do,
    so a lane has the bits of its one-lane run.

    The trapezoid raises nothing itself: it returns a list with each lane's
    (value, err, nodes), or that lane's exception, which the caller raises
    in its own order.  err is the last doubling's change plus the
    summation's rounding, eps * nodes * |value|, which bounds it because
    every integrand here is positive.  Growth by more than 4x on two
    doublings is divergence and a sum still moving at the last level fails
    to stabilize, both ArithmeticError; a sum that leaves the float range is
    OverflowError.
    """

    def level(w: float, step: float) -> list:
        """e^w and e^-w for w, w + step, ... within the window."""
        xs = []
        while w <= _HALFLINE_WINDOW:
            xs.append(math.exp(w))
            xs.append(math.exp(-w))
            w += step
        return xs

    h = 0.5
    xs = [1.0] + level(h, h)  # w = 0 and the first level
    nodes = len(xs)
    live = list(range(lanes))
    raw = list(g(xs, live))
    prev = [r * h for r in raw]
    growth = [0] * lanes
    err = [math.inf] * lanes
    out: list = [None] * lanes
    while live and nodes < _NODE_BUDGET:
        h *= 0.5
        xs = level(h, 2.0 * h)
        nodes += len(xs)
        going = []
        for i, s in zip(live, g(xs, live)):
            raw[i] += s
            c = raw[i] * h
            err[i] = abs(c - prev[i])
            grows = abs(c) > 4.0 * abs(prev[i]) + 1.0
            if not math.isfinite(c):
                out[i] = OverflowError("half-line quadrature sum leaves the float range")
            elif err[i] <= _HALFLINE_REL_TARGET * max(abs(c), 1e-300):
                out[i] = (c, err[i] + _EPS * nodes * abs(c), nodes)
            elif grows and growth[i]:
                out[i] = ArithmeticError("half-line quadrature diverges under node doubling")
            else:
                growth[i] += grows
                prev[i] = c
                going.append(i)
        live = going
    for i in live:
        out[i] = ArithmeticError(
            f"half-line quadrature failed to stabilize within {nodes} nodes (last delta {err[i]:.3e})"
        )
    return out


def k_bessel(nu: float, t: float) -> EvalResult:
    """K_nu(t) from (1/2)(t/2)^nu * integral of exp(-s - t^2/(4s)) s^(-nu-1) ds,
    a one-lane run of the half-line trapezoid."""
    nu = float(nu)
    t = float(t)
    if t <= 0:
        raise ValueError("t must be positive")
    _check_domain(nu, t)
    quart = 0.25 * t * t

    def g(xs: list, live: list) -> list:
        total = 0.0
        for s in xs:
            expo = -s - quart / s - nu * math.log(s)
            if expo >= -700.0:
                total += math.exp(expo)  # includes the e^w jacobian: s^(-nu-1) * s = s^(-nu)
        return [total]

    (r,) = _halfline_quadrature(g, 1)
    if isinstance(r, Exception):
        raise r
    val, err, nodes = r
    pref = 0.5 * (0.5 * t) ** nu
    return EvalResult(pref * val, pref * err, nodes)


# ---------------------------------------------------------------------------
# Series builders
# ---------------------------------------------------------------------------


def _bessel_coefficients(n: int, count: int) -> np.ndarray:
    """c_k(n) = (-1)^k / (k! (n+k)! 2^(n+k)) for k = 0..count-1: the u^k
    coefficients of J_n(z)/z^n, u = z^2/2.  The t^n J_n(t) coefficients are
    c_k(n) 2^n, which is exact.  From k = 99 at n = 0 k!(n+k)! leaves the float range."""
    try:
        return np.array(
            [(-1.0) ** k / (math.factorial(k) * math.factorial(n + k) * 2.0 ** (n + k)) for k in range(count)]
        )
    except OverflowError:
        raise ValueError(f"c_k(n) at n = {n}, k = {count - 1}: k!(n+k)! leaves the float range; lower K") from None


def _check_series_order(n: int, K: int) -> None:
    """The builders' guard: n >= 0 and K >= n + 2."""
    if n < 0:
        raise ValueError("n must be >= 0 (use the reflection N_{-n} = (-1)^n N_n)")
    if K < n + 2:
        raise ValueError(f"K = {K} too small; need K >= n + 2 = {n + 2}")


def _t_blocks(n: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The (K + 1, 2) blocks of t^n J_n(t) and t^n N_n(t) in u = t^2/2, row k
    holding u^k and column j (log u)^j.

    N_n is the standard integer-order expansion (DLMF 10.8.1).  log(t/2) is
    rewritten as (1/2) log u - (1/2) log 2 and the constant is folded into
    the j = 0 column, so the representation is canonical and comparable.
    """
    _check_series_order(n, K)
    cs = _bessel_coefficients(n, K - n + 1) * 2.0**n
    psi = np.array(_PSI[: K + 1])
    ln2 = math.log(2.0)
    j_block = np.zeros((K + 1, 2), dtype=complex)
    n_block = np.zeros((K + 1, 2), dtype=complex)
    j_block[n:, 0] = cs
    # (2/pi) log(t/2) t^n J_n(t), and
    # -(1/pi) sum_k (-1)^k [psi(k+1)+psi(n+k+1)] (t/2)^(n+2k) t^n / (k!(n+k)!)
    n_block[n:, 1] = (1.0 / math.pi) * cs
    n_block[n:, 0] = -(ln2 / math.pi) * cs + -(psi[: K - n + 1] + psi[n:]) * cs / math.pi
    # -(1/pi) sum_{k<n} (n-k-1)!/k! (t/2)^(2k-n) t^n  =  -(1/pi) (n-k-1)!/k! 2^(n-k) u^k
    n_block[:n, 0] = [
        -(math.factorial(n - k - 1) / math.factorial(k)) * 2.0 ** (n - k) / math.pi for k in range(n)
    ]
    return j_block, n_block


def reduced_j_series(n: int, K: int) -> LogPowerSeries:
    """J_n(z)/z^n as a pure power series in u = z^2/2; coefficient of u^k is
    c_k(n) = (-1)^k / (k! (n+k)! 2^(n+k))."""
    _check_series_order(n, K)
    block = _bessel_coefficients(n, K + 1).astype(complex)[:, None]
    return LogPowerSeries._from_block("u-of-z", 0, K, block)


def _reduced_j_lambda1_series(n: int, K: int) -> LogPowerSeries:
    """Closed form of the lam^1 coefficient series of the reduced family,
    d/dlam [J_(n+lam)(z)/z^(n+lam)] at lam = 0: c_k(n) (-psi(n+k+1) - log 2) on u^k."""
    _check_series_order(n, K)
    block = _bessel_coefficients(n, K + 1) * (-np.array(_PSI[n : n + K + 1]) - math.log(2.0))
    return LogPowerSeries._from_block("u-of-z", 0, K, block.astype(complex)[:, None])


def bessel_t_series(n: int, K: int) -> LogPowerSeries:
    """t^n J_n(t) as a pure power series in u = t^2/2 (support starts at u^n)."""
    return LogPowerSeries._from_block("u-of-t", 0, K, _t_blocks(n, K)[0])


def neumann_t_series(n: int, K: int) -> LogPowerSeries:
    """t^n N_n(t) as a log-power series in u = t^2/2 with j_max = 1 (see :func:`_t_blocks`)."""
    return LogPowerSeries._from_block("u-of-t", 0, K, _t_blocks(n, K)[1])


def hankel_t_series(kind: int, n: int, K: int) -> LogPowerSeries:
    """t^n H_n^(kind)(t) = t^n J_n(t) +/- i t^n N_n(t) as a complex log-power series."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    j_block, n_block = _t_blocks(n, K)
    return LogPowerSeries._from_block("u-of-t", 0, K, j_block + n_block * (1.0j if kind == 1 else -1.0j))


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


def lambda_taylor_target(family: str, n: int, j: int, probe: float) -> complex:
    """(1/j!) d^j/dlam^j of the real-order target at lam = 0, j in {0, 1, 2}.

    The reducedJ family at j = 1 is its digamma coefficient form, the closed
    lam^1 series that EQ3P compares with.  Every other target is computed by
    Richardson-combined central differences in the order (steps 1e-3 and 5e-4),
    so those need |n| + 1e-3 <= 10.
    """
    value = FAMILIES.get(family, (None, None))[1]
    if value is None:
        valid = tuple(name for name, (_, v) in FAMILIES.items() if v is not None)
        raise ValueError(f"unknown family {family!r}; expected one of {valid}")
    if j not in (0, 1, 2):
        raise ValueError("j must be 0, 1 or 2")
    if probe <= 0:
        raise ValueError("probe point must be positive")
    _check_domain(n, probe)
    if j == 1 and family == "reducedJ":
        # its 64 terms reach rounding level at every probe <= 20
        return _reduced_j_lambda1_series(n, 63).evaluate(0.5 * probe * probe)
    f = lambda lam: value(n + lam, probe)
    if j == 0:
        return f(0.0)
    h = 1e-3
    # the stencil reaches n +/- h; ROADMAP item 2's order jets remove it
    if abs(n) + h > _MAX_ORDER:
        raise ValueError(f"n = {n}: the finite-difference step {h:g} in the order leaves |nu| <= {_MAX_ORDER}")
    if j == 1:
        d1 = (f(h) - f(-h)) / (2.0 * h)
        d2 = (f(h / 2) - f(-h / 2)) / h
        return (4.0 * d2 - d1) / 3.0
    f0 = f(0.0)
    s1 = (f(h) - 2.0 * f0 + f(-h)) / (h * h)
    s2 = (f(h / 2) - 2.0 * f0 + f(-h / 2)) / (h * h / 4.0)
    return (4.0 * s2 - s1) / 3.0 / 2.0


# ---------------------------------------------------------------------------
# Scaled (sign, log-magnitude) evaluators for large-order term assembly
# ---------------------------------------------------------------------------


def log_reduced_j(nmax: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """(signs, logs) of J_m(z)/z^m for m = 0..nmax, finite z >= 0, stable to m ~ hundreds.

    J_m(z)/z^m = 2^(-m)/m! * S_m with S_m a fast-converging hypergeometric
    bracket.  All m are summed together, one lane each; a lane stops on its
    own convergence test, so its value does not depend on nmax.  z = 0 takes
    the same path (S_m = 1).  A zero bracket reads (1.0, -inf).
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if not 0 <= z < math.inf:
        raise ValueError("z must be >= 0 and finite")
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
    if not t > 0:
        raise ValueError("t must be positive")
    if pmax < 1:
        raise ValueError("pmax must be >= 1")
    # the public neumann seeds the table: its guard is the only one on EQ9/EQ11's t
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
