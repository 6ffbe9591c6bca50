"""Reference evaluators for the Bessel family at real order, and series builders.

The evaluators are deliberately series/quadrature based and self-contained:

* ``bessel_j``   -- ascending power series, summed to relative 1e-16, at every
  non-integer order; exact integers reduce to n, z >= 0 by one sign.
* ``neumann``    -- the positive/negative-order combination, sin and cos of
  nu pi taken from nu minus its nearest integer; at an integer n and within
  1e-8 of one, the order jet of N at n summed at delta = nu - n (its lam^0,
  lam^1 and lam^2 columns, negative n included).
* ``hankel``     -- J +/- i N.
* ``k_bessel`` -- a one-lane run of the half-line trapezoid (shared with
  ``sonine.a_function``) after an exponential substitution that makes the integrand decay
  double-exponentially at both ends, with nested node doubling until stabilization:
  each doubling samples only its new odd nodes, whose values are built once per
  process, and the integrand sums a whole level for the lanes still live.
* ``log_reduced_j`` / ``neumann_scaled_table`` -- (signs, logs) arrays of
  J_m(z)/z^m and t^m N_m(t) for every order m = 0..max, for sums whose
  factors overflow or underflow double precision: every order's bracket in
  blocks of rows, and the upward recurrence on plain floats scaled by powers
  of two, each with the bits of its per-order, per-step loop.

The intended working range is desk scale: arguments in (0, 20], orders in
[-10, 10].  No asymptotic large-argument machinery is included.

The order jet (``_order_jet``) gives every lam-Taylor coefficient of a family
at order n + lam, n an integer, as a :class:`~besselmap.logseries.LogPowerSeries`
in u = z**2/2 (tag "u-of-z") or u = t**2/2 (tag "u-of-t"): its lam^0 column is
the family's series builder, and ``lambda_taylor_target`` sums its lam^j column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
# by the running sum psi(m + 1) = psi(m) + 1/m.  171 entries are enough: the
# order jets, its only reader, raise on c_k(n), whose k!(m-1)! leaves the float
# range from m = 172, before they read past psi(171).
_PSI = tuple(accumulate((1.0 / m for m in range(1, 171)), initial=-0.5772156649015329))


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
    sign, z = 0 included.  A negative order at tiny z whose value leaves the
    float range raises OverflowError."""
    nu = float(nu)
    z = float(z)
    _check_domain(nu, z)
    n = round(nu)
    if nu != n:
        if z <= 0:
            raise ValueError("z must be positive for non-integer order")
        try:
            return _j_series(nu, z)
        except OverflowError:
            raise OverflowError(f"J_nu(z) at nu = {nu}, z = {z} leaves the float range") from None
    r = EvalResult(1.0 if n == 0 else 0.0, 0.0, 1) if z == 0.0 else _j_series(float(abs(n)), abs(z))
    if n % 2 and (n < 0) != (z < 0):
        return EvalResult(-r.value, r.err_estimate, r.effort)
    return r


# Rounding allowance of the ascending series of J and of N's order jet, per
# unit of summed |addend|.  Against mpmath, J's error/estimate peaks at 0.55
# over nu in [-10, 10] and near integers, and the jet's at 0.30 on
# n = -10..10, z in [0.01, 20], at and within 1e-8 of the integers.
_SERIES_ROUNDING = 8.0 * _EPS


def _j_series(nu: float, z: float) -> EvalResult:
    """The ascending series of J_nu(z), z > 0, for callers that have already
    checked the domain; OverflowError where a term leaves the float range."""
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
    if not abs_sum < math.inf:
        raise OverflowError("the ascending series leaves the float range")
    return EvalResult(total, abs(term) + _SERIES_ROUNDING * abs_sum, k)


def _sin_cos_pi(nu: float) -> tuple[float, float]:
    """sin and cos of pi nu from the exact remainder nu - n, n the nearest integer:
    pi * nu itself is rounded by about |pi nu| eps, which 1 / sin(pi nu) amplifies."""
    n = round(nu)
    sign = -1.0 if n % 2 else 1.0
    return sign * math.sin(math.pi * (nu - n)), sign * math.cos(math.pi * (nu - n))


def neumann(nu: float, z: float) -> EvalResult:
    """N_nu(z).

    Order nu at least 1e-8 from the nearest integer n: the positive/negative-
    order combination (J_nu cos(nu pi) - J_-nu) / sin(nu pi), which loses
    about eps / |nu - n| to cancellation.  Otherwise N's order jet at n summed
    at delta = nu - n (``_neumann_jet``), whose estimate covers the offset.
    A value or estimate that leaves the float range raises OverflowError.
    """
    nu = float(nu)
    z = float(z)
    if z <= 0:
        raise ValueError("z must be positive")
    _check_domain(nu, z)
    n = round(nu)
    try:
        if abs(nu - n) < _NEAR_INTEGER:
            val, err, effort = _neumann_jet(n, nu - n, z)
        else:
            jp = _j_series(nu, z)
            jm = _j_series(-nu, z)
            s, c = _sin_cos_pi(nu)
            val = (jp.value.real * c - jm.value.real) / s
            err = (jp.err_estimate + jm.err_estimate + 1e-16 * (abs(jp.value) + abs(jm.value))) / abs(s)
            effort = jp.effort + jm.effort
        if err < math.inf:
            return EvalResult(val, err, effort)
    except OverflowError:
        pass
    raise OverflowError(f"N_nu(z) at nu = {nu}, z = {z} leaves the float range")


@lru_cache(maxsize=None)
def _neumann_jet_rows(n: int) -> tuple:
    """One flat tuple (a0, a1, b0, b1, b2, c0, c1, c2, c3) per row u^k, k =
    min(n, 0)..64, of t^(n+lam) N_(n+lam)(t) from N's order jet at n, as Python
    floats: a, b and c are the lam^0, lam^1 and lam^2 coefficients, indexed by
    their power j of log u.  The lam^p column has no log power above p + 1, so
    no slot is left out that could be non-zero.  ``neumann`` guards the order
    first, so this holds at most 21 entries."""
    cols = [c._aligned(min(n, 0), 64, p + 2).real for p, c in enumerate(_order_jet("N", n, 64, 2))]
    return tuple(map(tuple, np.hstack(cols).tolist()))


def _neumann_jet(n: int, delta: float, z: float) -> tuple[float, float, int]:
    """(value, estimate, rows) of N_(n+delta)(z) = z^-(n+delta) sum_p delta^p
    col_p(u), u = z^2/2, col_p the lam^p column of N's order jet at n.

    One loop over the rows u^k, k = min(n, 0)..64, keeps one running sum s_j
    per log power j and the rows' magnitude sum_j |t_j| |log u|^j; it stops at
    the first row past k = n below 1e-17 of that magnitude (the first row never
    is).  z^-n rides in u^k from the start, so a term overflows only where N
    does; the value is s_0 + L (s_1 + L (s_2 + L s_3)), L = log u, times
    z^-delta.  At delta = 0 it is the lam^0 column alone.

    The estimate is the last row's magnitude, ``_SERIES_ROUNDING`` times the
    magnitude sum, and |delta|^3 times a bound on the lam^3 column, which the
    jet does not carry: (|L| + 5)^3 / 6 times the magnitude sum.  Each row's
    lam-dependence is exp(b_1 lam + b_2 lam^2 + ...), with u^lam giving
    b_1 = L plus a psi(m) of a 1/Gamma or Gamma factor and log 2, |b_1| <
    |L| + 5 where the rows are largest; the lam^3 coefficient of exp((|L| + 5)
    lam) is that bound.  Against mpmath's third order derivative in nu the
    lam^3 column reaches at most 0.44 of it, over n = -10..10 at 14 geometric
    z in [0.01, 20] and at z = 1.2, sqrt(2) and 1.7, where |L| is smallest.
    """
    L = 2.0 * math.log(z) - math.log(2.0)  # log u, finite where u underflows
    aL = abs(L)
    u = 0.5 * z * z
    w = z**-n if n >= 0 else (0.5 * z) ** n  # u^min(n, 0) z^-n
    s0 = s1 = s2 = s3 = mag = 0.0
    for i, (a0, a1, b0, b1, b2, c0, c1, c2, c3) in enumerate(_neumann_jet_rows(n)):
        t0 = (a0 + delta * (b0 + delta * c0)) * w
        t1 = (a1 + delta * (b1 + delta * c1)) * w
        t2 = delta * (b2 + delta * c2) * w
        t3 = delta * delta * c3 * w
        s0 += t0
        s1 += t1
        s2 += t2
        s3 += t3
        row = abs(t0) + aL * (abs(t1) + aL * (abs(t2) + aL * abs(t3)))
        mag += row
        if i > n and row < 1e-17 * mag:  # i = k - min(n, 0): k > n, or row 0 at n < 0
            break
        w *= u
    err = row + (_SERIES_ROUNDING + abs(delta) ** 3 * (aL + 5.0) ** 3 / 6.0) * mag
    return (s0 + L * (s1 + L * (s2 + L * s3))) * z**-delta, err * z**-delta, i + 1


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
_LOG_MAX = math.log(np.finfo(float).max)  # k_bessel's overflow test


def _check_t(t: float) -> None:
    """The guard on a half-line argument t: 0 < t <= 20, NaN failing."""
    if not 0.0 < t <= _MAX_ARG:
        raise ValueError(f"t = {t} outside the supported range (0, {_MAX_ARG}]")


# Each level's array is built once; the trapezoid's budget stops it at level 9.
@lru_cache(maxsize=None)
def _halfline_level(i: int) -> np.ndarray:
    """The new nodes of the half-line trapezoid's level i, as a read-only
    float64 array: e^w and e^-w for w = h, h + step, ... (a running sum) up
    to the window's edge, with h = 2^-(i+1) and step 2h.  Level 0 also holds
    w = 0 and steps by h, so it takes every multiple of 0.5."""
    h = 0.5 ** (i + 1)
    step = h if i == 0 else 2.0 * h
    xs = [1.0] if i == 0 else []
    w = h
    while w <= _HALFLINE_WINDOW:
        xs += (math.exp(w), math.exp(-w))
        w += step
    out = np.array(xs)
    out.flags.writeable = False
    return out


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
    A new level starts while fewer than 16384 nodes have been taken, so a
    call reaches at most ten levels, 24,577 nodes in all.  Their nodes are
    the same on every call: each level's array is built once per process
    (:func:`_halfline_level`).

    g has one contract.  For each level it is called once as g(xs, live),
    with the level's new nodes xs (the shared read-only array) and the
    indices of the lanes still live, and returns one sum per live lane: that
    lane's integrand summed over xs in order, starting from 0.0.  A sum that
    leaves the float range reads inf.  Each lane stops on its own test, as
    ``log_reduced_j``'s lanes do, so a lane has the bits of its one-lane run.

    The trapezoid raises nothing itself: it returns a list with each lane's
    (value, err, nodes), or that lane's exception, which the caller raises
    in its own order.  err is the last doubling's change plus the
    summation's rounding, eps * nodes * |value|, which bounds it because
    every integrand here is positive.  Growth by more than 4x on two
    doublings is divergence and a sum still moving at the last level fails
    to stabilize, both ArithmeticError; a sum that leaves the float range is
    OverflowError.
    """
    h = 0.5
    level = 0
    xs = _halfline_level(level)
    nodes = len(xs)
    live = list(range(lanes))
    raw = list(g(xs, live))
    prev = [r * h for r in raw]
    growth = [0] * lanes
    err = [math.inf] * lanes
    out: list = [None] * lanes
    while live and nodes < _NODE_BUDGET:
        h *= 0.5
        level += 1
        xs = _halfline_level(level)
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
    a one-lane run of the half-line trapezoid.  Where the value leaves the float
    range it raises OverflowError; that is read off (1/2) Gamma(|nu|) (2/t)^|nu|,
    the value's leading term at small t, once the quadrature or its prefactor
    has failed."""
    nu = float(nu)
    t = float(t)
    _check_t(t)
    _check_domain(nu, t)
    quart = 0.25 * t * t

    def g(xs: np.ndarray, live: list) -> list:
        total = 0.0
        for s in xs.tolist():
            expo = -s - quart / s - nu * math.log(s)
            if expo >= -700.0:
                total += math.exp(expo)  # includes the e^w jacobian: s^(-nu-1) * s = s^(-nu)
        return [total]

    (r,) = _halfline_quadrature(g, 1)
    try:
        if isinstance(r, Exception):
            raise r
        val, err, nodes = r
        pref = 0.5 * (0.5 * t) ** nu
        if max(abs(pref * val), pref * err) < math.inf:
            return EvalResult(pref * val, pref * err, nodes)
    except ArithmeticError:
        if nu == 0.0 or math.lgamma(abs(nu)) + abs(nu) * math.log(2.0 / t) - math.log(2.0) < _LOG_MAX:
            raise
    raise OverflowError(f"K_nu(t) at nu = {nu}, t = {t} leaves the float range")


# ---------------------------------------------------------------------------
# Order jets: the series builders and the lambda-Taylor targets
# ---------------------------------------------------------------------------

# _LOG_GAMMA_JET[q - 1, m - 1] = psi^(q-1)(m) / q!, the lam^q coefficient of
# log Gamma(m + lam) - log Gamma(m), for q = 1, 2, 3 and m = 1..610: psi from
# _PSI, and (-1)^q (zeta(q) - sum_{j<m} j^-q) / q at q >= 2 (DLMF 5.15.2, 5.15.5).
_LOG_GAMMA_JET = np.array(
    [_PSI]
    + [
        (-1) ** q * (zeta - np.cumsum(np.r_[0.0, np.arange(1.0, len(_PSI)) ** -q])) / q
        for q, zeta in ((2, math.pi**2 / 6.0), (3, 1.2020569031595942))
    ]
)


def _sum_jet(n: int, kmax: int, tau: int, sigma: int, Q: int) -> np.ndarray:
    """(Q + 1, kmax + 1): the lam^0..lam^Q coefficients of
    (-1)^k 2^(sigma nu - k) / (k! Gamma(tau nu + k + 1)) at nu = n + lam, k = 0..kmax.

    With m = tau n + k + 1 >= 1 that is the prefactor (-1)^k 2^(sigma n - k) /
    (k! (m-1)!), an exact integer product scaled by a power of 2, times
    2^(sigma lam) exp(-sum_q psi^(q-1)(m) (tau lam)^q / q!).  At m <= 0 the
    reflection 1/Gamma(x) = Gamma(1 - x) sin(pi x) / pi (DLMF 5.5.3) stands in,
    with sin(pi tau lam) / pi = tau lam exp(-zeta(2) lam^2 + O(lam^4)), so Q <= 3.
    Every prefactor, and its error, comes before psi is read.
    """
    ms = np.arange(kmax + 1) + tau * n + 1
    try:
        pref = [
            (-1.0) ** k * (1 if m >= 1 else (-1) ** m * math.factorial(-m))
            / (math.factorial(k) * math.factorial(max(m - 1, 0)) * 2.0 ** (k - sigma * n))
            for k, m in enumerate(ms.tolist())
        ]
    except OverflowError:
        raise ValueError(f"c_k(n) at n = {n}, k = {kmax}: k!(n+k)! leaves the float range; lower K") from None
    refl = ms <= 0
    q = np.arange(1, Q + 1)[:, None]
    a = np.where(refl, (-tau) ** q, -(tau**q)) * _LOG_GAMMA_JET[:Q, np.where(refl, -ms, ms - 1)]
    a[:1] += sigma * math.log(2.0)
    a[1:2, refl] -= math.pi**2 / 6.0
    jet = np.zeros((Q + 1, kmax + 1))
    jet[0] = 1.0
    for p in range(1, Q + 1):  # jet = exp(sum_q a[q - 1] lam^q)
        jet[p] = sum(i * a[i - 1] * jet[p - i] for i in range(1, p + 1)) / p
    jet[1:, refl] = tau * jet[:-1, refl]
    jet[0, refl] = 0.0
    return pref * jet


@lru_cache(maxsize=64)
def _order_jet(family: str, n: int, K: int, P: int) -> tuple[LogPowerSeries, ...]:
    """The lam^0..lam^P (P <= 2) coefficient series, rows up to u^K, of a
    family's real-order function at order n + lam, n an integer.

    J_nu(z)/z^nu, t^nu J_nu(t) and t^nu J_-nu(t) are :func:`_sum_jet` sums on
    u^k, u^(nu+k) and u^k, with (tau, sigma) = (1, -1), (1, 0) and (-1, 1).
    u^lam = sum_l (log u)^l lam^l / l!, so lam^p carries log columns up to p.
    t^nu N_nu = (cos(nu pi) t^nu J_nu - t^nu J_-nu) / sin(nu pi): the numerator
    has no lam^0 term, so N's lam^p series is the numerator's lam^(p+1) row
    divided by sin(pi lam)/lam.  H1 and H2 are J +/- i N.
    """
    if K < n + 2:
        raise ValueError(f"K = {K} too small; need K >= n + 2 = {n + 2}")
    if family == "reducedJ":
        jet = _sum_jet(n, K, 1, -1, P).astype(complex)
        return tuple(LogPowerSeries._from_block("u-of-z", 0, K, c[:, None]) for c in jet)
    Q = P + (family != "J")  # N reads its numerator one order further
    lo = min(n, 0)
    tj = np.zeros((Q + 1, K - lo + 1, Q + 1))  # t^nu J_nu: lam^p, u^(lo + row), (log u)^l
    s = _sum_jet(n, K - n, 1, 0, Q)
    for l in range(Q + 1):
        tj[l:, n - lo :, l] = s[: Q + 1 - l] / math.factorial(l)
    jet = tj
    if family != "J":
        num = tj.copy()  # the numerator cos(pi lam) t^nu J_nu - (-1)^n t^nu J_-nu
        num[:, -lo:, 0] -= (-1) ** n * _sum_jet(n, K, -1, 1, Q)
        num[2:] -= math.pi**2 / 2.0 * tj[:-2]  # cos(pi lam) = 1 - (pi lam)^2 / 2 + O(lam^4)
        jet = num[1:] / math.pi  # over sin(pi lam) / lam = pi (1 - (pi lam)^2 / 6 + O(lam^4))
        jet[2:] += math.pi**2 / 6.0 * jet[:-2]
        if family != "N":
            jet = tj[:Q] + jet * (1j if family == "H1" else -1j)
    return tuple(LogPowerSeries._from_block("u-of-t", lo, K, np.asarray(c, dtype=complex)) for c in jet[: P + 1])


def _lambda0_series(family: str, n: int, K: int) -> LogPowerSeries:
    """The builders' guard, n >= 0, then the lam^0 column of the family's order jet."""
    if n < 0:
        raise ValueError("n must be >= 0 (use the reflection N_{-n} = (-1)^n N_n)")
    return _order_jet(family, n, K, 0)[0]


def reduced_j_series(n: int, K: int) -> LogPowerSeries:
    """J_n(z)/z^n as a pure power series in u = z^2/2; coefficient of u^k is
    c_k(n) = (-1)^k / (k! (n+k)! 2^(n+k))."""
    return _lambda0_series("reducedJ", n, K)


def bessel_t_series(n: int, K: int) -> LogPowerSeries:
    """t^n J_n(t) as a pure power series in u = t^2/2 (support starts at u^n)."""
    return _lambda0_series("J", n, K)


def neumann_t_series(n: int, K: int) -> LogPowerSeries:
    """t^n N_n(t) as a log-power series in u = t^2/2 with j_max = 1 (DLMF 10.8.1)."""
    return _lambda0_series("N", n, K)


def hankel_t_series(kind: int, n: int, K: int) -> LogPowerSeries:
    """t^n H_n^(kind)(t) = t^n J_n(t) +/- i t^n N_n(t) as a complex log-power series."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    return _lambda0_series(f"H{kind}", n, K)


# Each series family's builder (n, K): the lam^0 column of its order jet.
FAMILIES = {
    "reducedJ": reduced_j_series,
    "J": bessel_t_series,
    "N": neumann_t_series,
    "H1": lambda n, K: hankel_t_series(1, n, K),
    "H2": lambda n, K: hankel_t_series(2, n, K),
}


def lambda_taylor_target(family: str, n: int, j: int, probe: float | np.ndarray) -> complex | np.ndarray:
    """(1/j!) d^j/dlam^j at lam = 0 of the family's real-order function at
    order n + lam, taken at z or t = probe: the lam^j column of its order jet
    summed at u = probe^2/2, for j in {0, 1, 2} and integer |n| <= 10.  The
    jet has rows up to u^32 at probe <= 4 and up to u^64 beyond.

    ``probe`` is a number or an array of numbers.  An array is checked once
    (every probe positive, the largest in the domain) and its jet is summed
    once over it, with the row count the largest probe picks; so a probe gets
    the bits of its own call when all the probes lie on its side of 4."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
    if j not in (0, 1, 2):
        raise ValueError("j must be 0, 1 or 2")
    x = np.asarray(probe, dtype=float)
    if (x <= 0).any():
        raise ValueError("probe point must be positive")
    largest = x.max()
    _check_domain(n, largest)
    if n != round(n):
        raise ValueError(f"n = {n}: the order jet is taken at an integer order")
    return _order_jet(family, round(n), 32 if largest <= 4.0 else 64, 2)[j].evaluate(0.5 * x * x)


# ---------------------------------------------------------------------------
# Scaled (sign, log-magnitude) evaluators for large-order term assembly
# ---------------------------------------------------------------------------


# Rows k in log_reduced_j's first block of lanes; each later block doubles.
_FIRST_BLOCK = 8


def log_reduced_j(nmax: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """(signs, logs) of J_m(z)/z^m for m = 0..nmax, 0 <= z <= 20, stable to m ~ hundreds.

    J_m(z)/z^m = 2^(-m)/m! * S_m with S_m a fast-converging hypergeometric
    bracket.  All m are summed together, one lane each, until every lane's
    convergence test holds; past its own stop a lane's terms stay below 1e-18
    of its sum, under half an ulp, so its value does not depend on nmax.
    The lanes are summed a block of rows k at a time: the terms and the
    partial sums are running products and running sums down the k axis, each
    taken in order, so every lane has the bits of a loop over k; the stop is
    the first row where every lane's test holds.  z = 0 takes the same path
    (S_m = 1).  A zero bracket reads (1.0, -inf).  A z above 20 raises
    ValueError: there the alternating sums lose their digits to cancellation.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if not 0 <= z < math.inf:
        raise ValueError("z must be >= 0 and finite")
    if z > _MAX_ARG:
        raise ValueError(f"z = {z} outside the supported range [0, {_MAX_ARG}]")
    u = 0.5 * z * z
    order = np.arange(nmax + 1, dtype=float)
    term = s = np.ones(nmax + 1)  # the row before the block
    k0, rows = 1, _FIRST_BLOCK
    while True:
        k = np.arange(k0, min(k0 + rows, _SERIES_LIMIT))[:, None]
        terms = -(0.5 * u) / (k * (order + k))
        terms[0] *= term
        np.multiply.accumulate(terms, out=terms)
        sums = terms.copy()
        sums[0] += s
        np.add.accumulate(sums, out=sums)
        done = (np.abs(terms) < 1e-18 * np.abs(sums) + 1e-300).all(axis=1)
        stop = int(done.argmax()) if done.any() else len(k) - 1
        term, s = terms[stop], sums[stop]
        k0, rows = k0 + len(k), 2 * rows
        if done.any() or k0 == _SERIES_LIMIT:
            break
    return np.where(s < 0, -1.0, 1.0), _logs_of(s) + _log_reduced_prefactors(nmax)


def _logs_of(values: np.ndarray) -> np.ndarray:
    """log|v| of each element by libm's log (np.log differs from it by an ulp at
    some arguments); a zero reads -inf."""
    zero = values == 0.0
    logs = np.fromiter(map(math.log, np.where(zero, 1.0, np.abs(values)).tolist()), float, len(values))
    logs[zero] = -math.inf
    return logs


@lru_cache(maxsize=8)
def _log_reduced_prefactors(nmax: int) -> np.ndarray:
    """log(2^(-m) / m!) = -m log 2 - lgamma(m + 1) for m = 0..nmax, the left part
    of ``log_reduced_j``'s sum, so adding log|S_m| keeps its bits; read-only."""
    ln2 = math.log(2.0)
    out = np.array([-m * ln2 - math.lgamma(m + 1.0) for m in range(nmax + 1)])
    out.flags.writeable = False
    return out


# neumann_scaled_table's recurrence scales its pair of values by 2^-500 once
# the newer passes 2^500, so the values stay normal numbers.
_RESCALE = 500
_BIG = 2.0**_RESCALE


def neumann_scaled_table(t: float, pmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(signs, logs) of t^p N_p(t) for p = 0..pmax by the upward recurrence
    G_{p+1} = 2p G_p - t^2 G_{p-1}, which is forward-stable for the N family.
    A zero value reads (1.0, -inf).

    The recurrence runs on plain floats, scaled by 2^-500 whenever |G_p| passes
    2^500, and the exponents are taken by one ``np.frexp`` at the end.  Scaling
    by a power of two commutes with IEEE rounding while the numbers stay
    normal, so every G_p has the bits of a recurrence that splits each value
    into mantissa and exponent at every step."""
    _check_t(t)
    if pmax < 1:
        raise ValueError("pmax must be >= 1")
    a = neumann(0.0, t).value.real
    b = t * neumann(1.0, t).value.real
    tt = t * t
    values = [a, b]
    rescaled = []  # each p from which G_p is kept scaled by a further 2^-500
    for p2 in range(2, 2 * pmax, 2):  # p2 = 2p, p = 1..pmax-1; 2p * G_p rounds as 2.0 * p * G_p
        a, b = b, p2 * b - tt * a
        if b > _BIG or b < -_BIG:
            a *= 1.0 / _BIG
            b *= 1.0 / _BIG
            rescaled.append(len(values))
        values.append(b)
    mants, exps = np.frexp(values)
    for p in rescaled:
        exps[p:] += _RESCALE
    return np.where(mants < 0, -1.0, 1.0), _logs_of(mants) + exps * math.log(2.0)
