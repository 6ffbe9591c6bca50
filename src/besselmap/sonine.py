"""Generating-pair engine: contour Z functions, half-line A functions, bilinear sums.

A generating pair is a function Omega and its inverse Mho.  The pair defines

    Z_n(z) = (1/2 pi i) * closed integral of exp(-z^2 Omega(tau) + tau/2) dtau / tau^(n+1)
    A_n(t) = integral over (0, inf) of exp(-t^2 x - Mho(x)/2) Mho(x)^n dx

Z_n is computed by the trapezoidal rule on a circle |tau| = r, which is
spectrally accurate for integrands analytic in a neighbourhood of the
circle.  A_n is computed by the half-line trapezoid that also gives the K
functions (``specfun._halfline_quadrature``).

``bilinear_check`` needs every Z_n and A_n for n = -N..N, and the orders
share their nodes: each order is a lane of the one contour sampler and of
the one half-line trapezoid, which sample exp(-z^2 Omega(tau) + tau/2) and
exp(-t^2 x - Mho(x)/2) once per node.  Both double nested, sampling only
each level's new odd nodes.  On the circle the trapezoid mean of
b_j tau_j^(-n) is r^(-n) B[n mod nodes]/nodes, B the discrete Fourier
transform of the samples b_j, so one FFT per node count gives every Z lane.
The half-line integrand sums a whole level for the lanes still live in one
array pass: Mho on the level's shared node array, one np.power over a
lanes x nodes matrix and one in-order running sum along the node axis, so an
A lane takes its powers Mho(x)^n only while it is live.  A lane keeps its own
stopping, divergence, budget and overflow rules, and ``z_function`` and
``a_function`` are the one-lane cases, so each term has the bits of its
single call.

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
from functools import lru_cache
from typing import Callable

import numpy as np

from .specfun import _EPS, _MAX_ARG, EvalResult, _check_t, _halfline_quadrature

__all__ = ["GeneratingPair", "bessel_pair", "z_function", "a_function", "bilinear_check"]

# The contour trapezoid starts at 256 nodes and doubles up to 4096.
_CONTOUR_NODES = 256
_CONTOUR_BUDGET = 2**12


@dataclass(frozen=True)
class GeneratingPair:
    """An (Omega, Mho) pair with its contour radius.

    ``omega`` receives the numpy array of all contour nodes at once and
    ``inverse`` the read-only numpy array of one half-line level's nodes;
    both must act elementwise.  The inverse check below also calls them on
    floats.
    Construction samples x in (0, 10] and requires Omega(Mho(x)) = x to
    1e-12; a pair that fails the inverse check is rejected.
    """

    name: str
    omega: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    contour_radius: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.contour_radius < math.inf:
            raise ValueError("contour_radius must be positive and finite")
        for x in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
            back = self.omega(self.inverse(x))
            if not abs(back - x) <= 1e-12:
                raise ValueError(
                    f"inverse check failed for pair {self.name!r}: Omega(Mho({x})) = {back}"
                )


def _half_reciprocal(x):
    """1/(2x), elementwise: the Bessel pair's Omega, which is its own inverse."""
    return 1.0 / (2.0 * x)


def bessel_pair(radius: float = 1.0) -> GeneratingPair:
    """The pair Omega(tau) = 1/(2 tau), Mho(x) = 1/(2 x): one function, its own inverse."""
    return GeneratingPair(
        name="bessel",
        omega=_half_reciprocal,
        inverse=_half_reciprocal,
        contour_radius=radius,
    )


@lru_cache(maxsize=16)
def _circle_nodes(r: float, nodes: int, odd_only: bool) -> np.ndarray:
    """tau_j = r exp(2 pi i j / nodes) for j = 0..nodes-1, or for the odd j
    only; read-only, since the nodes are kept for every later call."""
    j = np.arange(1, nodes, 2) if odd_only else np.arange(nodes)
    tau = r * np.exp(1j * (2.0 * math.pi * j / nodes))
    tau.flags.writeable = False
    return tau


def _contour_samples(pair: GeneratingPair, z: float, nodes: int, half: np.ndarray | None = None) -> np.ndarray:
    """b_j = exp(-z^2 Omega(tau_j) + tau_j/2) at tau_j = r exp(2 pi i j / nodes), j = 0..nodes-1.

    ``half`` holds the samples at nodes/2 nodes, which are the even j here: the
    angle 2 pi (2k)/nodes has the bits of 2 pi k/(nodes/2), since a power of two
    scales both without rounding.  Given ``half``, only the odd j are sampled.
    """
    tau = _circle_nodes(pair.contour_radius, nodes, half is not None)
    b = np.exp(-z * z * pair.omega(tau) + tau / 2.0)
    if half is None:
        return b
    out = np.empty(nodes, dtype=complex)
    out[0::2] = half
    out[1::2] = b
    return out


def _contour_sums(b: np.ndarray, ns: list, r: float) -> list[complex]:
    """The trapezoid means r^(-n) mean_j(b_j e^(-i n theta_j)), one per n in ns,
    all read from one FFT of the samples: the mean is B[n mod nodes]/nodes."""
    # np.fft loads numpy.fft on first use, so importing besselmap does not
    big_b = np.fft.fft(b, norm="forward")
    nodes = len(b)
    return [complex(big_b[int(n) % nodes]) * r**-n for n in ns]


def _z_lanes(pair: GeneratingPair, ns: list, z: float) -> list:
    """Z_n(z) for every n in ns, one lane per n on shared node counts.

    Each node count samples only its new nodes (see :func:`_contour_samples`),
    and every live lane reads its mean from the one FFT of that count's
    samples (Trefethen and Weideman, SIAM Rev. 56 (2014) 385).  A lane's value
    is taken at a node count once the doubled grid confirms it; each lane
    stops at its own doubling.  The result holds each lane's EvalResult, or
    the ArithmeticError of a lane that does not converge within the node
    budget.

    The error estimate is the node-doubling difference plus the rounding
    floor of the transform, which the difference does not see: the samples
    b_j = exp(-z^2 Omega(tau_j) + tau_j/2) can be far larger than the mean.
    With u = 2^-53, tau_j, the exponent and exp carry about 4 u |b_j| while
    the exponent is of order one, which moves the mean by at most
    4 u rms|b_j|.  A radix-2 FFT's error is bounded in the 2-norm by a small
    multiple of u log2(nodes) ||B||, and ||B|| = sqrt(nodes) ||b|| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, section
    24.1).  One output carries at most the whole norm, so the mean
    B[k]/nodes is off by about u log2(nodes) rms|b_j| at most, and the floor
    is u (log2(nodes) + 4) r^(-n) rms|b_j|: one reduction per node count for
    all lanes.  The twiddle factors are the transform's, so no lane rounds a
    power tau^(-n), and the floor has no |n| term.  The roundings change sign
    from node to node, so an output carries far less than the whole norm:
    against mpmath (n = -40..40, z in {0.05, 0.1, 0.5, 1, ..., 7}, r in
    {0.7, 1, 1.3}) the error stays below 0.3 of the estimate, and below 0.9
    before ``_real_if_close`` drops the imaginary noise.
    """
    r = pair.contour_radius
    for n in ns:
        if not float(n).is_integer():
            raise ValueError(f"Z_n needs an integer n (a closed contour defines no other); got n = {n}")
        try:
            r**-n
        except OverflowError:
            raise ValueError(f"Z_n at n = {n}: r^-n leaves the float range at contour radius r = {r}") from None
    if not abs(z) <= _MAX_ARG:
        raise ValueError(f"|z| = {abs(z)} outside the supported range [0, {_MAX_ARG}]")
    nodes = _CONTOUR_NODES
    b = _contour_samples(pair, z, nodes)
    cur = _contour_sums(b, ns, r)
    out: list = [None] * len(ns)
    live = list(range(len(ns)))
    while live:
        rms = math.sqrt(float(np.vdot(b, b).real) / nodes)  # rms|b_j| at the live lanes' node count
        b = _contour_samples(pair, z, 2 * nodes, b)
        nxt = _contour_sums(b, [ns[i] for i in live], r)
        going = []
        for i, v in zip(live, nxt):
            err = abs(v - cur[i])
            if not (err <= 1e-13 * max(abs(v), 1.0) or 2 * nodes >= _CONTOUR_BUDGET):
                cur[i] = v
                going.append(i)
            elif err > 1e-10 * max(abs(cur[i]), 1.0):
                out[i] = ArithmeticError(
                    f"Z_{ns[i]}({z}) did not converge within the contour node budget (delta {err:.3e})"
                )
            else:
                floor = 0.5 * _EPS * (math.log2(nodes) + 4) * r ** -ns[i] * rms
                out[i] = EvalResult(_real_if_close(cur[i]), err + floor, nodes)
        live = going
        nodes *= 2
    return out


def z_function(pair: GeneratingPair, n: int, z: float) -> EvalResult:
    """Z_n(z) by the trapezoidal rule on |tau| = r, for integer n and |z| <= 20.

    The value is taken at the first node count (256, 512, ...) that a doubled
    grid confirms; the error estimate is the node-doubling difference plus the
    rounding floor of the trapezoid mean (see :func:`_z_lanes`).
    """
    (r,) = _z_lanes(pair, [n], z)
    if isinstance(r, Exception):
        raise r
    return r


def _real_if_close(v: complex) -> complex:
    if abs(v.imag) <= 1e-13 * max(abs(v.real), 1.0):
        return complex(v.real, 0.0)
    return v


def a_function(pair: GeneratingPair, n: int, t: float) -> EvalResult:
    """A_n(t) by half-line quadrature under the decaying-exponent convention,
    the one-lane case of the A lanes, for a finite real n and 0 < t <= 20.

    An order or argument outside that domain, NaN included, raises ValueError.
    Divergence (growth under node doubling), and a power Mho(x)^n that leaves
    the float range at some node, raise ArithmeticError instead of returning
    a number.
    """
    if not math.isfinite(n):
        raise ValueError(f"A_n needs a finite real order n; got n = {n}")
    (r,) = _a_lanes(pair, [n], t)
    if isinstance(r, Exception):
        raise r
    return r


def _a_lanes(pair: GeneratingPair, ns: list, t: float) -> list:
    """A_n(t) for every n in ns from one half-line trapezoid, one lane per n.

    Each level's nodes x come as one shared array, and the pair's elementwise
    inverse gives Mho(x) on all of them; then the exponent -t^2 x - Mho(x)/2,
    and libm's exp at each node whose exponent is not below -700 (the others
    add nothing).  One np.power gives Mho(x)^n for every live lane at every
    kept node, and each lane's terms Mho(x)^n * exp(...) * x, the trailing x
    being the e^w jacobian, are summed in node order by one np.add.accumulate,
    so a lane's sum has the bits of a scalar loop over its terms from 0.0.  A
    lane whose power or sum leaves the float range reads inf.  The result
    holds each lane's EvalResult, or the exception ``a_function`` raises for
    that n.
    """
    try:
        _check_t(t)
    except ValueError as e:
        return [e] * len(ns)
    t2 = t * t
    orders = np.array(ns, dtype=float)[:, None]

    def g(x: np.ndarray, live: list) -> list:
        m = pair.inverse(x)
        expo = x * -t2
        expo -= 0.5 * m
        keep = ~(expo < -700.0)  # a NaN exponent is kept, so that its lane shows it
        x, m = x[keep], m[keep]
        if not len(x):
            return [0.0] * len(live)
        e = np.fromiter(map(math.exp, expo[keep].tolist()), float, len(x))
        terms = np.power(m, orders if len(live) == len(ns) else orders[live])
        terms *= e
        terms *= x
        # in node order; the + 0.0 gives a zero sum the sign of a loop from 0.0
        return (np.add.accumulate(terms, axis=1)[:, -1] + 0.0).tolist()

    with np.errstate(over="ignore"):  # an inf power or term makes its lane read inf
        lanes = _halfline_quadrature(g, len(ns))
    out = []
    for n, r in zip(ns, lanes):
        if isinstance(r, OverflowError):
            r = ArithmeticError(f"A_{n}({t}): Mho(x)^{n} leaves the float range at a quadrature node")
        out.append(r if isinstance(r, Exception) else EvalResult(*r))
    return out


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
    ks = np.fromiter(map(math.log, k[keep].tolist()), float)
    ps = np.fromiter(map(math.log, pk[keep].tolist()), float)
    slope, intercept = np.polyfit(ks, ps, 1)
    alpha = -float(slope)
    c = math.exp(float(intercept))
    if alpha > 1.0:
        tail = c / ((alpha - 1.0) * N ** (alpha - 1.0))
    else:
        tail = float("inf")
    return alpha, tail


def bilinear_check(pair: GeneratingPair, z: float, t: float, N: int) -> dict:
    """Partial sums S_N = sum_{n=-N..N} Z_n(z) A_n(t) with tail diagnostics,
    for an int N >= 1.

    Returns a plain record with the symmetric partial sums, the empirical
    limit 1/(t^2+z^2) of the decaying convention, the formal target
    -1/(t^2-z^2) carried by the bilinear identity in its original
    convention, and a tail exponent fitted over the last decade of terms.

    Every Z_n and A_n comes from one set of samples per node count, one lane
    per n, with the bits of its single call; where a single call raises, the
    check raises the first such error, n ascending and Z_n before A_n.

    The engine multiplies raw quadrature values.  Z_n decays factorially
    while A_n grows factorially, so beyond |n| of roughly a dozen the
    product is dominated by the quadrature noise floor of Z_n amplified
    by A_n; the record carries that floor as ``noise_estimate`` and the
    partial sums are meaningful only while they stand above it.
    """
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be an int >= 1; got N = {N!r}")
    if z == t:
        raise ValueError("singular input: z == t")
    ns = list(range(-N, N + 1))
    terms = np.empty(2 * N + 1)
    effort = 0
    noise = 0.0
    for n, zr, ar in zip(ns, _z_lanes(pair, ns, z), _a_lanes(pair, ns, t)):
        # the first failure in the order of single calls: n ascending, Z_n before A_n
        for r in (zr, ar):
            if isinstance(r, Exception):
                raise r
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
