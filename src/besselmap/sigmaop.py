"""The order-shift generator Sigma and its truncated exponential map.

Sigma acts on a log-power series s as

    Sigma s = sum_{m=1..M} w(m) * [ d^m s / m  -  I^m s / m ]

where d^m is the m-fold derivative in u, I^m the m-fold antiderivative
(zero integration constants), and the weight w(m) is 1 for the plain
variant ("z1") or (-1)^m for the alternating variant ("z2", on the t side of
the bilinear identities, whose kernel has opposite derivatives in u_z and u_t;
EQ14_KERNEL checks that sign).  Both signs of the weight are even in m, so
the two variants differ exactly in the odd-m terms.

The series' variable picks the map, in one table (``MAP_FOR_TAG``): a series
in u of z takes the plain variant as exp(-lam Sigma), one in u of t the
alternating variant as exp(+lam Sigma).  The exponential is evaluated as a
plain Taylor truncation at order J; there is no resummation.  Each entry
point takes only the numbers it reads (shift window M, exponential order J,
deformation lam) and checks them on entry.

Reliable-order bookkeeping: one application of Sigma with window M can only
be trusted at powers whose derivative contributions all came from within the
known range, so K_trunc drops by M per application and terms above the new
K_trunc are discarded.  Coefficients at the surviving powers (including any negative
powers generated from log terms) received every in-window contribution.
:func:`lambda_coefficients` raises :class:`ReliableOrderExhausted` when
K_trunc - J*M < 0; the partial sums are not guarded and carry their K_trunc.

Sigma is applied by its definition: the derivative and antiderivative
kernels of :mod:`besselmap.logseries` run M steps each on the series'
dense coefficient block, and each step's weighted image is added into the
result, so the result has the bits of the sum built term by term from
:meth:`LogPowerSeries.derivative`, :meth:`LogPowerSeries.antiderivative`,
``scale`` and ``add``.  The lam^j ladder of the exponential is repeated
applications, one per order; a ladder up to the largest order also yields
every lower truncation as a partial sum (:func:`exp_sigma_partial_sums`).

The truncated map is a diagnostic object: how closely it reproduces
real-order Bessel-family targets is *measured* by the identity checkers,
not assumed.
"""

from __future__ import annotations

import operator
from itertools import accumulate, repeat

import numpy as np

from .logseries import LogPowerSeries, _complex_block, _real_block, antiderivative_block, derivative_block

__all__ = [
    "MAP_FOR_TAG",
    "ReliableOrderExhausted",
    "apply_sigma",
    "apply_exp_sigma",
    "exp_sigma_partial_sums",
    "lambda_coefficients",
]

# series variable -> (Sigma variant, sign of the exponent) of its map
MAP_FOR_TAG = {"u-of-z": ("z1", -1), "u-of-t": ("z2", 1)}


class ReliableOrderExhausted(ValueError):
    """K_trunc is too small for the requested comparison depth."""


def _check(M: int, J: int = 0, lam: float = 0.0) -> None:
    """The checks of the map's numbers: shift window M, exponential order J, deformation lam."""
    if M < 1:
        raise ValueError("shift_window must be >= 1")
    if J < 0:
        raise ValueError("exp_order must be >= 0")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")


def apply_sigma(s: LogPowerSeries, M: int) -> LogPowerSeries:
    """One application of Sigma with window M; the result's reliable order is K_trunc - M.

    The definition, one m at a time: d^m s and I^m s are taken step by step
    on the series' real (re, im) block, and w(m)/m times each is added and
    subtracted, in that order, into the result's rows k_min-M..K_trunc-M.
    """
    _check(M)
    R, J = s.coef.shape
    variant = MAP_FOR_TAG[s.variable_tag][0]
    acc = np.zeros((R, J + 1, 2))
    d = a = _real_block(s.coef)
    for m in range(1, M + 1):
        d = derivative_block(d, s.k_min - m + 1)
        a = antiderivative_block(a, s.k_min + m - 1)
        if not a[:, -1].any():  # the log degree grows only through the u^-1 row
            a = a[:, :-1]
        w = (1.0 if variant == "z1" else (-1.0) ** m) / m
        # d^m s holds powers k_min-m.., I^m s powers k_min+m..; keep k <= K_trunc-M
        if M - m < R:
            acc[M - m :, :J] += w * d[: R - (M - m)]
        if M + m < R:
            acc[M + m :, : a.shape[1]] -= w * a[: R - (M + m)]
    return LogPowerSeries._from_block(s.variable_tag, s.k_min - M, s.K_trunc - M, _complex_block(acc))


def _sigma_ladder(s: LogPowerSeries, M: int, J: int):
    """Yield sign^j Sigma^j s / j! for j = 0..J, Sigma^j by nesting,
    with the sign of the series' map."""
    sign = MAP_FOR_TAG[s.variable_tag][1]
    term = s
    yield term
    for j in range(1, J + 1):
        term = apply_sigma(term, M).scale(sign / j)
        yield term


def lambda_coefficients(s: LogPowerSeries, M: int, J: int) -> list[LogPowerSeries]:
    """Coefficient series of lam^j in exp(sign*lam*Sigma) s, j = 0..J.

    Entry j is sign^j Sigma^j s / j!, with Sigma^j computed by nesting, so
    entry j's reliable order is K_trunc - j*M.  Raises ReliableOrderExhausted
    if entry J would keep no reliable power.
    """
    _check(M, J)
    if s.K_trunc - J * M < 0:
        raise ReliableOrderExhausted(f"K = {s.K_trunc} cannot support {J} Sigma applications at window M = {M}")
    return list(_sigma_ladder(s, M, J))


def exp_sigma_partial_sums(s: LogPowerSeries, M: int, J: int, lam: float):
    """Iterate the truncated exponential at every order 0..J:
    sum_{j<=order} (sign*lam)^j Sigma^j s / j!.

    M, J and lam are checked on the call, before any order is taken.  Each
    order costs one more Sigma application than the one before it, and a
    caller that stops early pays only for the orders it took.  Order j's
    K_trunc is K_trunc - j*M, which may be negative: the caller reports it.
    """
    _check(M, J, lam)
    ladder = _sigma_ladder(s, M, J)
    first = next(ladder)  # s itself
    powers = accumulate(repeat(lam, J), operator.mul)  # lam, lam^2, ... as repeated products
    return accumulate((term.scale(p) for term, p in zip(ladder, powers)), LogPowerSeries.add, initial=first)


def apply_exp_sigma(s: LogPowerSeries, M: int, J: int, lam: float) -> LogPowerSeries:
    """Truncated exponential: sum_j (sign*lam)^j Sigma^j s / j!, j <= J.

    lam = 0 returns s itself (the exact identity, truncation order intact),
    once M and J have been checked.  Otherwise the accumulated series is
    reliable to K_trunc - J*M.
    """
    partial_sums = exp_sigma_partial_sums(s, M, J, lam)
    if lam == 0.0:
        return s
    *_, out = partial_sums
    return out
