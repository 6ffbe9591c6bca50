"""The order-shift generator Sigma and its truncated exponential map.

Sigma acts on a log-power series s as

    Sigma s = sum_{m=1..M} w(m) * [ d^m s / m  -  I^m s / m ]

where d^m is the m-fold derivative in u, I^m the m-fold antiderivative
(zero integration constants), and the weight w(m) is 1 for the plain
variant ("z1") or (-1)^m for the alternating variant ("z2", the one that
appears on the t side of the bilinear identities).  Both signs of the
weight are even in m, so the two variants differ exactly in the odd-m
terms.

exp(sign * lam * Sigma) is evaluated as a plain Taylor truncation at
exp_order J_max; there is no resummation.  Reliable-order bookkeeping:
one application of Sigma with window M can only be trusted at powers
whose derivative contributions all came from within the known range, so
K_trunc drops by M per application and terms above the new K_trunc are
discarded.  Coefficients at the surviving powers (including any negative
powers generated from log terms) received every in-window contribution.

Sigma is linear and its action depends only on where a series' dense
coefficient block sits (k_min, K_trunc, log columns J) and on (M,
variant).  So it is applied as one real matrix-vector product.  The
matrix is composed once from the derivative and antiderivative kernels
of :mod:`besselmap.logseries` and kept in a bounded LRU cache keyed by
that structure.  The lam^j ladder of the exponential is repeated
products, one per order; a ladder up to the largest order also yields
every lower truncation as a partial sum (:func:`exp_sigma_partial_sums`).

The truncated map is a diagnostic object: how closely it reproduces
real-order Bessel-family targets is *measured* by the identity checkers,
not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .logseries import LogPowerSeries, antiderivative_block, derivative_block

__all__ = [
    "SigmaConfig",
    "apply_sigma",
    "apply_exp_sigma",
    "exp_sigma_partial_sums",
    "lambda_coefficients",
    "kernel_identity_check",
]

_VARIANTS = ("z1", "z2")

# Operator matrices kept, one per input structure (k_min, K_trunc, J, M,
# variant).  A pass of the identity battery touches a few dozen structures.
SIGMA_CACHE_SIZE = 64


@dataclass(frozen=True)
class SigmaConfig:
    """Operator configuration: variant, shift window M, exp order, deformation lam."""

    variant: str = "z1"
    shift_window: int = 12
    exp_order: int = 4
    lam: float = 0.0

    def __post_init__(self) -> None:
        v = self.variant.lower()
        if v not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        object.__setattr__(self, "variant", v)
        if self.shift_window < 1:
            raise ValueError("shift_window must be >= 1")
        if self.exp_order < 0:
            raise ValueError("exp_order must be >= 0")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")

    def weight(self, m: int) -> float:
        return 1.0 if self.variant == "z1" else (-1.0) ** (m % 2)


@lru_cache(maxsize=SIGMA_CACHE_SIZE)
def _sigma_matrix(k_min: int, K_trunc: int, J: int, M: int, variant: str) -> np.ndarray:
    """Sigma as a real matrix, stored transposed: row i is the image of the
    i-th input coefficient.  Inputs lie on the (k_min..K_trunc, J) grid and
    outputs on the (k_min-M..K_trunc-M, J+1) grid, both flattened row-major.
    Built by applying the derivative and antiderivative kernels to the
    identity basis, M times each."""
    cfg = SigmaConfig(variant=variant, shift_window=M)
    R = K_trunc - k_min + 1
    n = R * J
    acc = np.zeros((R, J + 1, n))
    d = a = np.eye(n).reshape(R, J, n)
    for m in range(1, M + 1):
        d = derivative_block(d, k_min - m + 1)
        a = antiderivative_block(a, k_min + m - 1)
        if not a[:, -1].any():  # the log degree grows only through the u^-1 row
            a = a[:, :-1]
        w = cfg.weight(m) / m
        # d^m s holds powers k_min-m.., I^m s powers k_min+m..; keep k <= K_trunc-M
        if M - m < R:
            acc[M - m :, :J] += w * d[: R - (M - m)]
        if M + m < R:
            acc[M + m :, : a.shape[1]] -= w * a[: R - (M + m)]
    matrix = np.ascontiguousarray(acc.reshape(R * (J + 1), n).T)
    matrix.flags.writeable = False
    return matrix


def apply_sigma(s: LogPowerSeries, cfg: SigmaConfig) -> LogPowerSeries:
    """One application of Sigma; the result's reliable order is K_trunc - M.

    One real matrix-vector product: the cached operator matrix for the
    series' structure times its real and its imaginary coefficients.  The
    products are summed over the input coefficients in order by numpy's
    reduction, not by BLAS, so the rounding does not depend on the BLAS
    kernel a CPU picks, and coefficients that are zero change no sum.
    """
    M = cfg.shift_window
    R, J = s.coef.shape
    if R == 0:
        return LogPowerSeries._from_block(s.variable_tag, 0, s.K_trunc - M, s.coef)
    matrix = _sigma_matrix(s.k_min, s.K_trunc, J, M, cfg.variant)
    re_im = np.ascontiguousarray(s.coef).view(np.float64).reshape(R * J, 2)
    out = (matrix[:, None, :] * re_im[:, :, None]).sum(axis=0)
    coef = np.ascontiguousarray(out.T).view(np.complex128).reshape(R, J + 1)
    return LogPowerSeries._from_block(s.variable_tag, s.k_min - M, s.K_trunc - M, coef)


def _sigma_ladder(s: LogPowerSeries, cfg: SigmaConfig, sign: int):
    """Yield sign^j Sigma^j s / j! for j = 0..exp_order, Sigma^j by nesting."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    term = s
    yield term
    for j in range(1, cfg.exp_order + 1):
        term = apply_sigma(term, cfg).scale(sign / j)
        yield term


def lambda_coefficients(
    s: LogPowerSeries, cfg: SigmaConfig, sign: int = 1
) -> list[LogPowerSeries]:
    """Coefficient series of lam^j in exp(sign*lam*Sigma) s, j = 0..exp_order.

    Entry j is sign^j Sigma^j s / j!, with Sigma^j computed by nesting, so
    entry j's reliable order is K_trunc - j*M.
    """
    return list(_sigma_ladder(s, cfg, sign))


def exp_sigma_partial_sums(s: LogPowerSeries, cfg: SigmaConfig, sign: int = 1):
    """Yield the truncated exponential at every order J = 0..exp_order:
    sum_{j<=J} (sign*lam)^j Sigma^j s / j!.

    Each order costs one more Sigma application than the one before it, and
    a caller that stops early pays only for the orders it took.
    """
    ladder = _sigma_ladder(s, cfg, sign)
    out = next(ladder)
    yield out
    powl = 1.0
    for term in ladder:
        powl *= cfg.lam
        out = out.add(term.scale(powl))
        yield out


def apply_exp_sigma(s: LogPowerSeries, cfg: SigmaConfig, sign: int = 1) -> LogPowerSeries:
    """Truncated exponential: sum_j (sign*lam)^j Sigma^j s / j!, j <= exp_order.

    lam = 0 returns s itself (the exact identity, truncation order intact).
    Otherwise the accumulated series is reliable to K_trunc - exp_order*M.
    """
    if cfg.lam == 0.0:
        return s
    *_, out = exp_sigma_partial_sums(s, cfg, sign)
    return out


def kernel_identity_check(z: float, t: float) -> float:
    """Residual of d/d(z^2)[1/(t^2-z^2)] + d/d(t^2)[1/(t^2-z^2)], analytically zero.

    The two closed forms are +(t^2-z^2)^-2 and -(t^2-z^2)^-2; the residual
    guards the sign convention that turns the plain variant into the
    alternating one on the t side.
    """
    x = t * t - z * z
    if x == 0.0:
        raise ValueError("singular input: t^2 == z^2")
    d_z2 = 1.0 / (x * x)
    d_t2 = -1.0 / (x * x)
    return abs(d_z2 + d_t2)
