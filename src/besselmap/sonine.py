"""Generating-pair engine: contour Z functions, half-line A functions, bilinear sums.

A generating pair is a function Omega and its inverse Mho.  The pair defines

    Z_n(z) = (1/2 pi i) * closed integral of exp(-z^2 Omega(tau) + tau/2) dtau / tau^(n+1)
    A_n(t) = integral over (0, inf) of exp(-t^2 x - Mho(x)/2) Mho(x)^n dx

Z_n is computed by the trapezoidal rule on a circle |tau| = r, which is
spectrally accurate for integrands analytic in a neighbourhood of the
circle.  A_n is computed by the half-line trapezoid that also gives the K
functions (``specfun._halfline_quadrature``).

Sign convention: both exponents are taken decaying (-z^2 Omega and -t^2 x).
With the growing t-exponent the half-line integral does not exist for real
t, so the decaying form is the computable one; every bilinear report records
this convention.  Under it the bilinear sum converges (for |z| < t) to
+1/(t^2 + z^2), and the built-in Bessel pair identifies as

    Z_n(z) = J_n(z)/z^n,      A_n(t) = t^(n-1) K_(n-1)(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import EvalResult, _halfline_quadrature

__all__ = ["GeneratingPair", "bessel_pair", "z_function", "a_function", "bilinear_check", "PAIRS"]

_CONTOUR_BUDGET = 2**12


@dataclass(frozen=True)
class GeneratingPair:
    """An (Omega, Mho) pair with its contour parameters.

    ``omega`` receives the numpy array of all contour nodes at once and
    must act elementwise; the inverse check below also calls it on floats.
    Construction samples x in (0, 10] and requires Omega(Mho(x)) = x to
    1e-12; a pair that fails the inverse check is rejected.
    """

    name: str
    omega: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[float], float]
    contour_radius: float = 1.0
    contour_nodes: int = 256

    def __post_init__(self) -> None:
        if self.contour_radius <= 0:
            raise ValueError("contour_radius must be positive")
        n = self.contour_nodes
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError("contour_nodes must be a power of two >= 64")
        for x in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
            back = self.omega(self.inverse(x))
            if abs(back - x) > 1e-12:
                raise ValueError(
                    f"inverse check failed for pair {self.name!r}: Omega(Mho({x})) = {back}"
                )


def bessel_pair(radius: float = 1.0, nodes: int = 256) -> GeneratingPair:
    """The pair Omega(tau) = 1/(2 tau), Mho(x) = 1/(2 x)."""
    return GeneratingPair(
        name="bessel",
        omega=lambda tau: 1.0 / (2.0 * tau),
        inverse=lambda x: 1.0 / (2.0 * x),
        contour_radius=radius,
        contour_nodes=nodes,
    )


PAIRS: dict[str, Callable[[], GeneratingPair]] = {"bessel": bessel_pair}


def _contour_sum(pair: GeneratingPair, n: int, z: float, nodes: int) -> complex:
    r = pair.contour_radius
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    tau = r * np.exp(1j * theta)
    vals = np.exp(-z * z * pair.omega(tau) + tau / 2.0) * tau ** (-n)
    return complex(vals.mean())


def z_function(pair: GeneratingPair, n: int, z: float) -> EvalResult:
    """Z_n(z) by the trapezoidal rule on |tau| = r.

    The value is taken at the configured node count once a doubled grid
    confirms it; the node-doubling difference is the error estimate.
    """
    nodes = pair.contour_nodes
    cur = _contour_sum(pair, n, z, nodes)
    while True:
        nxt = _contour_sum(pair, n, z, 2 * nodes)
        err = abs(nxt - cur)
        if err <= 1e-13 * max(abs(nxt), 1.0) or 2 * nodes >= _CONTOUR_BUDGET:
            break
        nodes *= 2
        cur = nxt
    if err > 1e-10 * max(abs(cur), 1.0):
        raise ArithmeticError(
            f"Z_{n}({z}) did not converge within the contour node budget (delta {err:.3e})"
        )
    return EvalResult(_real_if_close(cur), err, nodes)


def _real_if_close(v: complex) -> complex:
    if abs(v.imag) <= 1e-13 * max(abs(v.real), 1.0):
        return complex(v.real, 0.0)
    return v


def a_function(pair: GeneratingPair, n: int, t: float) -> EvalResult:
    """A_n(t) by half-line quadrature under the decaying-exponent convention.

    Divergence (growth under node doubling) raises ArithmeticError instead
    of returning a number.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    t2 = t * t
    mho = pair.inverse

    def g(x: float) -> float:
        m = mho(x)
        expo = -t2 * x - 0.5 * m
        if expo < -700.0:
            return 0.0
        return math.exp(expo) * m**n * x  # trailing x is the e^w jacobian

    val, err, nodes = _halfline_quadrature(g)
    return EvalResult(val, err, nodes)


def _symmetric_partials(terms: np.ndarray, N: int) -> list[float]:
    """S_k = term_0 + sum_{m=1..k} (term_m + term_-m) for k = 0..N; ``terms[n + N]``
    is the term of index n.  np.cumsum adds in order, so each S_k has the bits of a
    running sum."""
    pairs = terms[N + 1 :] + terms[N - 1 :: -1]
    return np.cumsum(np.concatenate((terms[N : N + 1], pairs))).tolist()


def _tail_fit(terms: np.ndarray, N: int) -> tuple[float, float]:
    """Fit |term_k + term_-k| ~ C / k^alpha over the last decade; return (alpha,
    tail estimate).  ``terms`` is indexed as for :func:`_symmetric_partials`."""
    k = np.arange(max(2, N // 10), N + 1)
    pk = np.abs(terms[N + k] + terms[N - k])
    keep = (pk > 0.0) & (pk < math.inf)
    if np.count_nonzero(keep) < 3:
        return float("nan"), float("nan")
    # libm log per element: np.log differs from it by an ulp at some arguments
    ks = [math.log(v) for v in k[keep].tolist()]
    ps = [math.log(v) for v in pk[keep].tolist()]
    slope, intercept = np.polyfit(ks, ps, 1)
    alpha = -float(slope)
    c = math.exp(float(intercept))
    if alpha > 1.0:
        tail = c / ((alpha - 1.0) * N ** (alpha - 1.0))
    else:
        tail = float("inf")
    return alpha, tail


def bilinear_check(pair: GeneratingPair, z: float, t: float, N: int) -> dict:
    """Partial sums S_N = sum_{n=-N..N} Z_n(z) A_n(t) with tail diagnostics.

    Returns a plain record with the symmetric partial sums, the empirical
    limit 1/(t^2+z^2) of the decaying convention, the formal target
    -1/(t^2-z^2) carried by the bilinear identity in its original
    convention, and a tail exponent fitted over the last decade of terms.

    The engine multiplies raw quadrature values.  Z_n decays factorially
    while A_n grows factorially, so beyond |n| of roughly a dozen the
    product is dominated by the quadrature noise floor of Z_n amplified
    by A_n; the record carries that floor as ``noise_estimate`` and the
    partial sums are meaningful only while they stand above it.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if z == t:
        raise ValueError("singular input: z == t")
    terms = np.empty(2 * N + 1)
    effort = 0
    noise = 0.0
    for n in range(-N, N + 1):
        zr = z_function(pair, n, z)
        ar = a_function(pair, n, t)
        terms[n + N] = (zr.value * ar.value).real
        noise += zr.err_estimate * abs(ar.value) + abs(zr.value) * ar.err_estimate
        effort += zr.effort + ar.effort
    partials = _symmetric_partials(terms, N)
    s = partials[-1]
    tail_exponent, _ = _tail_fit(terms, N)
    empirical = 1.0 / (t * t + z * z)
    formal = -1.0 / (t * t - z * z)
    return {
        "pair": pair.name,
        "z": z,
        "t": t,
        "N": N,
        "partials": partials,
        "value": s,
        "empirical_limit": empirical,
        "residual_vs_empirical": abs(s - empirical),
        "formal_target": formal,
        "residual_vs_formal": abs(s - formal),
        "tail_exponent": tail_exponent,
        "noise_estimate": noise,
        "effort": effort,
        "convention_note": (
            "decaying exponents adopted for both integrals; the growing-exponent "
            "form that carries the -1/(t^2-z^2) normalization is not integrable "
            "on the half line"
        ),
    }
