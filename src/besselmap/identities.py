"""Named identity checkers, each producing a deterministic IdentityReport.

Two kinds of checks live here.

Bilinear-series checks (EQ9_REAL, EQ11_SUM) sum products of a reduced
Bessel factor and a weighted Neumann/Bessel factor over n in [-N, N].
Individual factors overflow/underflow double precision long before the
products do, so terms are assembled in (sign, log-magnitude) form.  Each
factor is one (signs, logs) table over orders m >= 0 from
:mod:`besselmap.specfun`, reflected once onto n = -N..N; the terms, their
partial sums and the tail fit are arrays, computed once per (z, t, N) for
both checks.

Operator-map checks (EQ3P_ORDER_J, EQ15_ORDER_J, EQ18_ORDER_J, EQ17_SHIFT)
compare the truncated exponential map against real-order targets, order by
order in the deformation parameter.  These checkers measure; they do not
assume the truncated map converges.  The measured residuals are large and
stable: the truncated double series (shift window M, exponential order
J_max) is a formal-logarithm expansion whose partial sums do not tend to
the real-order functions.  The reports state what was computed so the
behaviour is auditable rather than hidden.

EQ2_ROUNDTRIP, EQ3_CLOSURE and EQ14_KERNEL are definitional guards.

Each identity has one definition: its checker.  The checker's defaults are
the identity's defaults and its tolerance is a literal in its body; a
report's verdict is derived from its residual and tolerance.  ``CHECKERS``
maps every identity id to its checker; the CLI's ``check`` command calls
the checker with only the options the user set.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .logseries import LogPowerSeries
from .sigmaop import (
    SigmaConfig,
    exp_sigma_partial_sums,
    kernel_identity_check,
    lambda_coefficients,
)
from .sonine import _symmetric_partials, _tail_fit
from .specfun import (
    _reduced_j_lambda1_coefficients,
    bessel_j,
    bessel_t_series,
    hankel,
    hankel_t_series,
    lambda_taylor_target,
    log_reduced_j,
    neumann,
    neumann_scaled_table,
    neumann_t_series,
    reduced_j_series,
)

__all__ = [
    "IdentityReport",
    "ReliableOrderExhausted",
    "check_eq11",
    "check_eq9_real",
    "check_eq3prime_order",
    "check_eq15_order",
    "check_eq18_order",
    "check_integer_shift",
    "check_eq2_roundtrip",
    "check_eq3_closure",
    "check_eq14_kernel",
    "CHECKERS",
    "run_suite",
]

class ReliableOrderExhausted(ValueError):
    """K_trunc is too small for the requested comparison depth."""


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    params: dict
    observed: list
    residual: float
    tail_estimate: float
    tolerance: float
    details: dict = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self) -> None:
        if self.identity_id not in IDENTITY_IDS:
            raise ValueError(f"unknown identity_id {self.identity_id!r}")
        if not (self.residual >= 0 or math.isnan(self.residual)):
            raise ValueError("residual must be >= 0")

    @property
    def verdict(self) -> str:
        return "pass" if self.residual <= self.tolerance else "fail"

    def to_record(self) -> dict:
        """The report as a plain record; it shares no mutable object with the report."""
        return {
            "schema": 1,
            "identity_id": self.identity_id,
            "params": copy.deepcopy(self.params),
            "observed": list(self.observed),
            "residual": self.residual,
            "tail_estimate": self.tail_estimate,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "details": copy.deepcopy(self.details),
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# sign/log term assembly for the bilinear sums
# ---------------------------------------------------------------------------


def _reflect(table, lo: int, hi: int, pos_slope: float, neg_slope: float):
    """(signs, logs) over p = lo..hi from a (signs, logs) table over p >= 0.

    Index p reads row m = |p|.  For p < 0 an odd m flips the sign.  The log
    moves by slope * m, with one slope for p >= 0 and one for p < 0.
    """
    signs, logs = table
    p = np.arange(lo, hi + 1)
    m = np.abs(p)
    neg = p < 0
    flip = np.where(neg & (m % 2 == 1), -1.0, 1.0)
    return signs[m] * flip, logs[m] + np.where(neg, neg_slope, pos_slope) * m


def _combine(a, b) -> np.ndarray:
    """Elementwise products of (signs, logs) factors.  exp is taken by libm per
    element: np.exp differs from it by an ulp at some arguments."""
    lg = (a[1] + b[1]).tolist()
    mags = np.array([math.inf if x > 700.0 else math.exp(x) for x in lg])
    return a[0] * b[0] * mags


@lru_cache(maxsize=2)
def _bilinear_sums(z: float, t: float, N: int):
    """What EQ11 and EQ9 report at (z, t, N): the partial sums of the N-weighted
    and of the J-weighted series, and the tail fit (alpha, tail) of the
    N-weighted terms.  Memoised, so EQ9 and EQ11 at the same (z, t, N) share
    one computation; the values are tuples, so no caller can change them.

    Term n is [J_n(z)/z^n] t^p C_p(t), p = n - 1, with C = N or J.
    """
    nt = _reflect(neumann_scaled_table(t, N + 1), -N - 1, N - 1, 0.0, -2.0 * math.log(t))
    jt = _reflect(log_reduced_j(N + 1, t), -N - 1, N - 1, 2.0 * math.log(t), 0.0)
    jz = _reflect(log_reduced_j(N, z), -N, N, 0.0, 2.0 * math.log(z) if z else -math.inf)
    n_terms = _combine(jz, nt)
    return (
        tuple(_symmetric_partials(n_terms, N)),
        tuple(_symmetric_partials(_combine(jz, jt), N)),
        _tail_fit(n_terms, N),
    )


def _bilinear_prelude(z: float, t: float, N: int) -> tuple[float, str]:
    """Validate a bilinear check's inputs; return its target and notes."""
    if N < 10:
        raise ValueError("N must be >= 10")
    if z < 0:
        raise ValueError("z must be >= 0")
    if z == t:
        raise ValueError("singular input: z == t")
    notes = ""
    if z > t:
        notes = "outside the validated convergence region 0 <= z < t; reported, not asserted"
    return (2.0 / math.pi) / (t * t - z * z), notes


def check_eq11(z: float = 0.5, t: float = 2.0, N: int = 200) -> IdentityReport:
    """sum_n [J_n(z)/z^n] t^(n-1) N_(n-1)(t) against (2/pi)/(t^2 - z^2), 0 <= z < t."""
    target, notes = _bilinear_prelude(z, t, N)
    partials, _, (alpha, tail) = _bilinear_sums(z, t, N)
    return IdentityReport(
        "EQ11_SUM",
        {"z": z, "t": t, "N": N},
        list(partials),
        abs(partials[-1] - target),
        tail,
        5e-3,
        details={"target": target, "tail_exponent": alpha},
        notes=notes,
    )


def check_eq9_real(z: float = 0.5, t: float = 2.0, N: int = 200) -> IdentityReport:
    """Real/imaginary split of the Hankel-weighted sum: the J-weighted part must
    vanish and the N-weighted part must reproduce the EQ11 sum."""
    target, notes = _bilinear_prelude(z, t, N)
    n_partials, j_partials, (alpha, tail) = _bilinear_sums(z, t, N)
    j_resid = abs(j_partials[-1])
    n_resid = abs(n_partials[-1] - target)
    return IdentityReport(
        "EQ9_REAL",
        {"z": z, "t": t, "N": N},
        list(j_partials),
        max(j_resid, n_resid),
        tail,
        5e-3,
        details={
            "j_part_residual": j_resid,
            "n_part_residual": n_resid,
            "n_part_value": n_partials[-1],
            "target": target,
            "tail_exponent": alpha,
        },
        notes=notes,
    )


# ---------------------------------------------------------------------------
# operator-map checkers
# ---------------------------------------------------------------------------

_DEFAULT_PROBES = (0.5, 1.0, 2.0)


def _lambda_entry(series: LogPowerSeries, variant: str, M: int, j: int, sign: int):
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    if series.K_trunc - j * M < 0:
        raise ReliableOrderExhausted(
            f"K = {series.K_trunc} cannot support {j} Sigma applications at window M = {M}"
        )
    cfg = SigmaConfig(variant=variant, shift_window=M, exp_order=j, lam=1.0)
    return lambda_coefficients(series, cfg, sign=sign)[j]


def _digamma_target_series(n: int, K: int) -> LogPowerSeries:
    """Closed form of the first-order coefficient series for the reduced family:
    c_k(n) * (-psi(n+k+1) - log 2) on u^k."""
    coefficients = itertools.islice(_reduced_j_lambda1_coefficients(n), K + 1)
    return LogPowerSeries("u-of-z", {(k, 0): a for k, a in enumerate(coefficients)}, K)


def _probe_distances(entry: LogPowerSeries, family: str, n: int, j: int, probes) -> list:
    """|entry(u) - lam^j Taylor coefficient of the family at order n| at each
    probe, u = probe^2 / 2."""
    return [abs(entry.evaluate(0.5 * p * p) - lambda_taylor_target(family, n, j, p)) for p in probes]


def check_eq3prime_order(n: int = 0, j: int = 1, K: int = 16, M: int = 12) -> IdentityReport:
    """lam^j coefficient of the mapped reduced series against its real-order target.

    j = 1 compares coefficientwise against the digamma closed form over the
    reliable powers; j = 2 compares evaluations at z in {0.5, 1, 2} against
    Richardson finite differences.
    """
    if K < 8:
        raise ValueError("K must be >= 8")
    if M > K:
        raise ValueError("M must be <= K")
    entry = _lambda_entry(reduced_j_series(n, K), "z1", M, j, sign=-1)
    params = {"n": n, "j": j, "K": K, "M": M}
    if j == 1:
        order = K - M
        target = _digamma_target_series(n, K)
        distances = [
            abs(entry.coefficient(k, 0) - target.coefficient(k, 0)) for k in range(order + 1)
        ]
        residual = entry.compare(target, order)
        return IdentityReport(
            "EQ3P_ORDER_J",
            params,
            distances,
            residual,
            0.0,
            1e-10,
            details={"compared_order": order},
        )
    distances = _probe_distances(entry, "reducedJ", n, 2, _DEFAULT_PROBES)
    return IdentityReport("EQ3P_ORDER_J", params, distances, max(distances), 0.0, 1e-5)


def check_eq15_order(
    n: int = 0, j: int = 1, K: int = 16, M: int = 12, probes: tuple = _DEFAULT_PROBES
) -> IdentityReport:
    """lam^j entry of the alternating-variant map on t^n N_n, evaluated at the
    probes, against Richardson finite differences of t^nu N_nu."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if any(not 0.0 < t <= 4.0 for t in probes):
        raise ValueError("probes must lie in (0, 4]")
    base = neumann_t_series(n, K)
    entry = _lambda_entry(base, "z2", M, j, sign=1)
    notes = ""
    for t in probes:
        oracle = neumann(float(n), t).value.real * t**n
        if abs(base.evaluate(0.5 * t * t) - oracle) > 1e-6 * max(1.0, abs(oracle)):
            notes = f"probe t={t} outside series convergence for K={K}"
    distances = _probe_distances(entry, "N", n, j, probes)
    return IdentityReport(
        "EQ15_ORDER_J",
        {"n": n, "j": j, "K": K, "M": M, "probes": list(probes)},
        distances,
        max(distances),
        0.0,
        1e-5 if j == 1 else 1e-4,
        notes=notes,
    )


def check_eq18_order(
    kind: int = 1, n: int = 0, j: int = 1, K: int = 16, M: int = 12, probes: tuple = _DEFAULT_PROBES
) -> IdentityReport:
    """Same protocol for t^n H_n^(kind); additionally recombines the two mapped
    Hankel series through (H1 + H2)/2 and compares with the mapped t^n J_n
    series coefficientwise (the recombination residual is in details)."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    mapped = {k: _lambda_entry(hankel_t_series(k, n, K), "z2", M, j, sign=1) for k in (1, 2)}
    distances = _probe_distances(mapped[kind], f"H{kind}", n, j, probes)
    # closing consistency: mapped H series recombine into the mapped J series
    ej = _lambda_entry(bessel_t_series(n, K), "z2", M, j, sign=1)
    recombined = (mapped[1] + mapped[2]).scale(0.5)
    rec_residual = recombined.compare(ej, K - j * M)
    return IdentityReport(
        "EQ18_ORDER_J",
        {"kind": kind, "n": n, "j": j, "K": K, "M": M, "probes": list(probes)},
        distances,
        max(distances),
        0.0,
        1e-5,
        details={"recombination_residual": rec_residual},
    )


def check_integer_shift(
    n: int = 0,
    K: int = 16,
    M: int = 12,
    J_max_list: tuple = (2, 4, 6, 8),
    t: float = 1.0,
) -> IdentityReport:
    """Unit-deformation diagnostic: |exp(Sigma_t)[t^n N_n](t) - t^(n+1) N_(n+1)(t)|
    for each exponential order.  The verdict is a trend statement (last residual
    at most half of the first), not a convergence assertion."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 < t <= 2.0:
        raise ValueError("t must lie in (0, 2]")
    base = neumann_t_series(n, K)
    target = t ** (n + 1) * neumann(float(n + 1), t).value.real
    u = 0.5 * t * t
    # one ladder up to the largest order; the map at order J is its J-th prefix
    wanted = {int(jm) for jm in J_max_list}
    if min(wanted) < 0:
        raise ValueError("exp_order must be >= 0")
    cfg = SigmaConfig(variant="z2", shift_window=M, exp_order=max(wanted), lam=1.0)
    by_order: dict[int, float] = {}
    try:
        for order, partial in enumerate(exp_sigma_partial_sums(base, cfg, sign=1)):
            if not np.isfinite(partial.coef).all():
                break  # an overflowed coefficient: this order and every higher one report inf
            if order in wanted:
                by_order[order] = abs(partial.evaluate(u) - target)
    except (ValueError, OverflowError):
        pass  # this order and every higher one report inf
    residuals = [by_order.get(int(jm), math.inf) for jm in J_max_list]
    tol = residuals[0] / 2.0 if residuals[0] > 0 else 0.0
    return IdentityReport(
        "EQ17_SHIFT",
        {"n": n, "K": K, "M": M, "J_max_list": list(J_max_list), "t": t},
        residuals,
        residuals[-1],
        0.0,
        tol,
        details={"target": target},
        notes="trend check: residual at the largest J_max vs half the residual at the smallest",
    )


# ---------------------------------------------------------------------------
# definitional guards
# ---------------------------------------------------------------------------


def check_eq2_roundtrip(
    nus: tuple = (0.3, 0.7, 1.5, 2.6),
    zs: tuple = (0.5, 1.0, 2.0),
) -> IdentityReport:
    """sin(nu pi) N_nu + J_(-nu) - cos(nu pi) J_nu = 0 for non-integer nu."""
    residuals = []
    for nu in nus:
        for z in zs:
            jn = bessel_j(nu, z).value.real
            jm = bessel_j(-nu, z).value.real
            nn = neumann(nu, z).value.real
            residuals.append(abs(math.sin(math.pi * nu) * nn + jm - math.cos(math.pi * nu) * jn))
    return IdentityReport(
        "EQ2_ROUNDTRIP",
        {"nus": list(nus), "zs": list(zs)},
        residuals,
        max(residuals),
        0.0,
        1e-10,
    )


def check_eq3_closure(nus: tuple = (0.3, 1.0, 1.7), zs: tuple = (0.5, 1.0, 2.0)) -> IdentityReport:
    """H1 + H2 = 2J and H1 - H2 = 2iN, pointwise and exactly."""
    residuals = []
    for nu in nus:
        for z in zs:
            j = bessel_j(nu, z).value.real
            nn = neumann(nu, z).value.real
            h1 = hankel(1, nu, z).value
            h2 = hankel(2, nu, z).value
            residuals.append(abs(h1 + h2 - 2.0 * j))
            residuals.append(abs(h1 - h2 - 2.0j * nn))
    return IdentityReport(
        "EQ3_CLOSURE", {"nus": list(nus), "zs": list(zs)}, residuals, max(residuals), 0.0, 0.0
    )


def check_eq14_kernel(seed: int = 20260808) -> IdentityReport:
    """Kernel derivative identity at 20 random points; the residual is exactly zero."""
    rng = random.Random(seed)
    residuals = []
    while len(residuals) < 20:
        z = rng.uniform(0.2, 3.0)
        t = rng.uniform(0.2, 3.0)
        if abs(t * t - z * z) >= 0.05:
            residuals.append(kernel_identity_check(z, t))
    return IdentityReport(
        "EQ14_KERNEL", {"count": 20, "seed": seed}, residuals, max(residuals), 0.0, 0.0
    )


CHECKERS = {
    "EQ2_ROUNDTRIP": check_eq2_roundtrip,
    "EQ3_CLOSURE": check_eq3_closure,
    "EQ3P_ORDER_J": check_eq3prime_order,
    "EQ9_REAL": check_eq9_real,
    "EQ11_SUM": check_eq11,
    "EQ14_KERNEL": check_eq14_kernel,
    "EQ15_ORDER_J": check_eq15_order,
    "EQ17_SHIFT": check_integer_shift,
    "EQ18_ORDER_J": check_eq18_order,
}
IDENTITY_IDS = tuple(CHECKERS)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def run_suite() -> list[IdentityReport]:
    """The full identity battery with default parameters, deterministically ordered."""
    reports: list[IdentityReport] = []
    for z, t in ((0.0, 2.0), (0.5, 2.0), (1.0, 3.0)):
        reports.append(check_eq11(z, t))
        reports.append(check_eq9_real(z, t))
    for n in (0, 1, 2):
        reports.append(check_eq3prime_order(n, 1))
    for n in (0, 1):
        reports.append(check_eq15_order(n, 1))
        reports.append(check_eq15_order(n, 2, K=24, M=8))
        reports.append(check_eq18_order(1, n, 1))
        reports.append(check_integer_shift(n))
    reports.append(check_eq2_roundtrip())
    reports.append(check_eq3_closure())
    reports.append(check_eq14_kernel())
    reports.sort(key=lambda r: (r.identity_id, json.dumps(r.params, sort_keys=True)))
    return reports
