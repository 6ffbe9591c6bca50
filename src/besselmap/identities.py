"""Named identity checkers, each producing a deterministic IdentityReport.

Two kinds of checks live here.

Bilinear-series checks (EQ9_REAL, EQ11_SUM) sum products of a reduced
Bessel factor and a weighted Neumann/Bessel factor over n in [-N, N].
Individual factors overflow/underflow double precision long before the
products do, so terms are assembled in (sign, log-magnitude) form.  Each
factor is one (signs, logs) table over orders m >= 0 from
:mod:`besselmap.specfun`, each built in whole-array passes with the bits of
a per-order loop, and reflected once onto n = -N..N through index arrays
built per call; the terms, their partial sums and the tail fit are arrays,
computed once per (z, t, N) for both checks.  libm's exp and log are taken
per element, since numpy's differ from them by an ulp at some arguments.

Operator-map checks (EQ3P_ORDER_J, EQ15_ORDER_J, EQ18_ORDER_J, EQ17_SHIFT)
compare the truncated exponential map against real-order targets, order by
order in the deformation parameter.  The series' variable picks its map
(``sigmaop.MAP_FOR_TAG``): a series in u of z takes the plain variant as
exp(-lam Sigma), one in u of t the alternating variant as exp(+lam Sigma).
EQ3P at j = 2, EQ15 and EQ18 share one probe protocol
(:func:`_probe_report`): the caller builds its base series and names its
family, and each series and target is summed once at all the probes.  These
checkers measure; they do not assume the truncated map converges.  The
measured residuals are large and stable: the truncated
double series (shift window M, exponential order J_max) is a
formal-logarithm expansion whose partial sums do not tend to the real-order
functions.  The reports state what was computed, with the reliable order
left in each compared series, so the behaviour is auditable rather than
hidden.  That order is the compared series' own K_trunc: the guard that it
is not negative lives in ``sigmaop.lambda_coefficients``, and EQ17 reports
the K_trunc of its partial sums instead of raising.

A mapped ladder depends only on (family, n, K, M, J), so each is built once
per process, in one of two bounded caches: ``_lambda_entries`` holds the
lam^j entries the probe protocol and EQ3P read, and ``_shift_prefix`` EQ17's
partial sums up to the first whose coefficients are not finite.  A later call
applies no Sigma and makes no series; what it evaluates (the probes, EQ17's
t, the targets) stays per call, and an error such as
``ReliableOrderExhausted`` is raised on every call.

EQ2_ROUNDTRIP, EQ3_CLOSURE (the J, N Wronskian) and EQ14_KERNEL (the kernel's
derivatives through the series calculus) are definitional guards that can fail.

Each identity has one definition: its checker.  The checker's defaults are
the identity's defaults and its tolerance is a literal in its body; a
report's verdict is derived from its residual and tolerance.  ``CHECKERS``
maps every identity id to its checker; the CLI's ``check`` command calls
the checker with only the options the user set.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .logseries import LogPowerSeries, derivative_block
from .sigmaop import exp_sigma_partial_sums, lambda_coefficients
from .sonine import _symmetric_partials, _tail_fit
from .specfun import (
    FAMILIES,
    _EPS,
    _NEAR_INTEGER,
    _order_jet,
    _sin_cos_pi,
    bessel_j,
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
        if self.identity_id not in CHECKERS:
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


def _nonempty(**sequences) -> None:
    """Raise a ValueError that names the first empty sequence."""
    for name, seq in sequences.items():
        if len(seq) == 0:
            raise ValueError(f"{name} must not be empty")


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
    element (np.exp differs from it by an ulp at some arguments); a log above
    700 reads inf."""
    lg = a[1] + b[1]
    lg[lg > 700.0] = math.inf
    return a[0] * b[0] * np.fromiter(map(math.exp, lg.tolist()), float, len(lg))


@lru_cache(maxsize=2)
def _bilinear_sums(z: float, t: float, N: int):
    """What EQ11 and EQ9 report at (z, t, N): the partial sums of the N-weighted
    and of the J-weighted series, and the tail fit (alpha, tail) of the
    N-weighted terms.  Memoised, so EQ9 and EQ11 at the same (z, t, N) share
    one computation; the values are tuples, so no caller can change them.

    Term n is [J_n(z)/z^n] t^p C_p(t), p = n - 1, with C = N or J.  A term
    that leaves the float range raises ValueError: its sums would read inf or NaN.
    """
    nt = _reflect(neumann_scaled_table(t, N + 1), -N - 1, N - 1, 0.0, -2.0 * math.log(t))
    jt = _reflect(log_reduced_j(N + 1, t), -N - 1, N - 1, 2.0 * math.log(t), 0.0)
    jz = _reflect(log_reduced_j(N, z), -N, N, 0.0, 2.0 * math.log(z) if z else -math.inf)
    n_terms, j_terms = _combine(jz, nt), _combine(jz, jt)
    if not (np.isfinite(n_terms).all() and np.isfinite(j_terms).all()):
        raise ValueError(f"the bilinear terms at z = {z}, t = {t}, N = {N} leave the float range")
    return (
        tuple(_symmetric_partials(n_terms, N)),
        tuple(_symmetric_partials(j_terms, N)),
        _tail_fit(n_terms, N),
    )


def _bilinear_prelude(z: float, t: float, N: int) -> tuple[float, str]:
    """Check what only a bilinear check guards (``log_reduced_j`` guards 0 <= z <= 20,
    and a NaN passes on to it or to t's guard); return its target and notes."""
    if N < 10:
        raise ValueError("N must be >= 10")
    d = t * t - z * z
    target = (2.0 / math.pi) / d if d else math.inf
    if math.isinf(target):
        raise ValueError(
            f"singular input: t^2 - z^2 = {d} at z = {z}, t = {t}; the target (2/pi)/(t^2 - z^2) is not finite"
        )
    notes = ""
    if z > t:
        notes = "outside the validated convergence region 0 <= z < t; reported, not asserted"
    return target, notes


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


# Each memo below keeps 64 ladders: a pass of the identity battery reads 11,
# and 15 when its operator checks take n = 0, 1, 2.
@lru_cache(maxsize=64)
def _lambda_entries(family: str, n: int, K: int, M: int, J: int) -> tuple[LogPowerSeries, ...]:
    """The lam^j entries, j = 0..J, of the truncated map (rows up to u^K, window
    M) on the family's integer-order series at order n, built once per process.
    An exception, such as ``ReliableOrderExhausted``, is raised again on every
    call: lru_cache keeps none."""
    return tuple(lambda_coefficients(FAMILIES[family](n, K), M, J))


@lru_cache(maxsize=64)
def _shift_prefix(n: int, K: int, M: int, J: int) -> tuple[LogPowerSeries, ...]:
    """The partial sums of exp(Sigma) on t^n N_n (rows up to u^K, window M) at
    the orders 0..J, up to the first whose coefficients are not finite or whose
    building raises, built once per process.  The arguments are checked before
    the ladder is taken, and their errors are raised on every call."""
    ladder = exp_sigma_partial_sums(neumann_t_series(n, K), M, J, 1.0)
    prefix = []
    # the ladder is taken lazily in this loop; its overflows end the prefix,
    # so numpy need not warn of them
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for partial in ladder:
                if not np.isfinite(partial.coef).all():
                    break
                prefix.append(partial)
        except (ValueError, OverflowError):
            pass
    return tuple(prefix)


def _lambda_entry(family: str, n: int, K: int, M: int, j: int) -> LogPowerSeries:
    """The lam^j entry of the mapped integer-order series of ``family`` at n."""
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    return _lambda_entries(family, n, K, M, j)[j]


def _probe_report(identity_id: str, params: dict, base: LogPowerSeries, family: str, probes, tol: float):
    """The probe protocol: |entry(u) - target| at each probe x, u = x^2 / 2, where
    entry is the lam^j series of the mapped base series (the integer-order series
    of ``family`` at order n) and target the lam^j Taylor coefficient of the
    family's real-order function.  A probe where the base series itself misses
    the family's value by more than 1e-6 relative is named in the notes, each
    such probe in the order given."""
    n, j = params["n"], params["j"]
    _nonempty(probes=probes)
    if any(not 0.0 < x <= 4.0 for x in probes):
        raise ValueError("probes must lie in (0, 4]")
    entry = _lambda_entry(family, n, params["K"], params["M"], j)
    # each series and target column is summed once, at all the probes
    x = np.array(probes, dtype=float)
    u = 0.5 * x * x
    oracles = lambda_taylor_target(family, n, 0, x).tolist()
    missed = [
        f"t={p}"
        for p, value, oracle in zip(probes, base.evaluate(u).tolist(), oracles)
        if abs(value - oracle) > 1e-6 * max(1.0, abs(oracle))
    ]
    notes = f"probe {', '.join(missed)} outside series convergence for K={base.K_trunc}" if missed else ""
    targets = lambda_taylor_target(family, n, j, x).tolist()
    distances = [abs(value - target) for value, target in zip(entry.evaluate(u).tolist(), targets)]
    details = {"reliable_order": entry.K_trunc}
    return IdentityReport(identity_id, params, distances, max(distances), 0.0, tol, details, notes)


def check_eq3prime_order(n: int = 0, j: int = 1, K: int = 16, M: int = 12) -> IdentityReport:
    """lam^j coefficient of the mapped reduced series against its real-order target.

    j = 1 compares coefficientwise against the reduced family's order-jet lam^1
    column over the reliable powers; j = 2 runs the probe protocol at z in {0.5, 1, 2}.
    """
    if K < 8:
        raise ValueError("K must be >= 8")
    base = reduced_j_series(n, K)
    params = {"n": n, "j": j, "K": K, "M": M}
    if j == 2:
        return _probe_report("EQ3P_ORDER_J", params, base, "reducedJ", _DEFAULT_PROBES, 1e-5)
    entry = _lambda_entry("reducedJ", n, K, M, j)
    order = entry.K_trunc
    target = _order_jet("reducedJ", n, K, 1)[1]
    distances = [abs(entry.coefficient(k, 0) - target.coefficient(k, 0)) for k in range(order + 1)]
    residual = entry.compare(target, order)
    return IdentityReport("EQ3P_ORDER_J", params, distances, residual, 0.0, 1e-10, {"reliable_order": order})


def check_eq15_order(
    n: int = 0, j: int = 1, K: int = 16, M: int = 12, probes: tuple = _DEFAULT_PROBES
) -> IdentityReport:
    """The probe protocol for t^n N_n, against t^nu N_nu."""
    params = {"n": n, "j": j, "K": K, "M": M, "probes": list(probes)}
    return _probe_report("EQ15_ORDER_J", params, neumann_t_series(n, K), "N", probes, 1e-5 if j == 1 else 1e-4)


def check_eq18_order(
    kind: int = 1, n: int = 0, j: int = 1, K: int = 16, M: int = 12, probes: tuple = _DEFAULT_PROBES
) -> IdentityReport:
    """The probe protocol for t^n H_n^(kind), against t^nu H_nu^(kind).  Only that
    series is mapped: (H1 + H2)/2 = J holds for the mapped series by the real
    linearity of Sigma, which the tests check."""
    params = {"kind": kind, "n": n, "j": j, "K": K, "M": M, "probes": list(probes)}
    return _probe_report("EQ18_ORDER_J", params, hankel_t_series(kind, n, K), f"H{kind}", probes, 1e-5)


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
    if not 0.0 < t <= 2.0:
        raise ValueError("t must lie in (0, 2]")
    neumann_t_series(n, K)  # the base series' guards come before the target's
    target = t ** (n + 1) * neumann(float(n + 1), t).value.real
    u = 0.5 * t * t
    _nonempty(J_max_list=J_max_list)
    wanted = {int(jm) for jm in J_max_list}
    if min(wanted) < 0:
        raise ValueError("exp_order must be >= 0")
    # one ladder up to the largest order; the map at order J is its J-th prefix
    prefix = _shift_prefix(n, K, M, max(wanted))
    compared: dict[int, tuple[float, int]] = {}  # order -> (residual, K_trunc of the partial sum compared)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for order, partial in enumerate(prefix):
                if order in wanted:
                    compared[order] = (abs(partial.evaluate(u) - target), partial.K_trunc)
        except (ValueError, OverflowError):
            pass  # this order and every higher one report inf, as do those past the prefix
    results = [compared.get(int(jm), (math.inf, None)) for jm in J_max_list]
    residuals = [r for r, _ in results]
    tol = residuals[0] / 2.0 if residuals[0] > 0 else 0.0
    return IdentityReport(
        "EQ17_SHIFT",
        {"n": n, "K": K, "M": M, "J_max_list": list(J_max_list), "t": t},
        residuals,
        residuals[-1],
        0.0,
        tol,
        details={"target": target, "reliable_order": [k for _, k in results]},
        notes="trend check: residual at the largest J_max vs half the residual at the smallest",
    )


# ---------------------------------------------------------------------------
# definitional guards
# ---------------------------------------------------------------------------


def check_eq2_roundtrip(
    nus: tuple = (0.3, 0.7, 1.5, 2.6),
    zs: tuple = (0.5, 1.0, 2.0),
) -> IdentityReport:
    """sin(nu pi) N_nu + J_(-nu) - cos(nu pi) J_nu = 0 for non-integer nu, the angle as in neumann.
    An order that neumann takes as an integer tests no combination and is an error, as
    is a NaN or infinite one."""
    _nonempty(nus=nus, zs=zs)
    residuals = []
    for nu in nus:
        if not (math.isfinite(nu) and abs(nu - round(nu)) >= _NEAR_INTEGER):  # NaN fails too
            raise ValueError(f"EQ2 needs finite orders at least {_NEAR_INTEGER} from an integer; got nu = {nu}")
        s, c = _sin_cos_pi(nu)
        for z in zs:
            jn = bessel_j(nu, z).value.real
            jm = bessel_j(-nu, z).value.real
            nn = neumann(nu, z).value.real
            residuals.append(abs(s * nn + jm - c * jn))
    return IdentityReport(
        "EQ2_ROUNDTRIP",
        {"nus": list(nus), "zs": list(zs)},
        residuals,
        max(residuals),
        0.0,
        1e-10,
    )


def check_eq3_closure(nus: tuple = (0.3, 1.0, 1.7), zs: tuple = (0.5, 1.0, 2.0)) -> IdentityReport:
    """The Wronskian J_(nu+1) N_nu - J_nu N_(nu+1) = 2/(pi z) (DLMF 10.5) holds only
    if N is independent of J.  observed is each point's defect over its bound
    (tolerance 1): each factor's err_estimate times |other factor|, plus 4 eps
    (|a| + |b| + 1/z) for rounding a = J_(nu+1) N_nu, b = J_nu N_(nu+1) and a - b - 2/(pi z)."""
    _nonempty(nus=nus, zs=zs)
    ratios = []
    for nu in nus:
        lo = nu - 1.0 if nu > 9.0 else nu  # the pair (lo, lo + 1) holds nu and stays in |order| <= 10
        for z in zs:
            j0, j1 = bessel_j(lo, z), bessel_j(lo + 1.0, z)
            n0, n1 = neumann(lo, z), neumann(lo + 1.0, z)
            a = j1.value.real * n0.value.real
            b = j0.value.real * n1.value.real
            bound = sum(abs(x.value) * y.err_estimate for x, y in ((n0, j1), (j1, n0), (n1, j0), (j0, n1)))
            bound += 4.0 * _EPS * (abs(a) + abs(b) + 1.0 / z)
            ratios.append(abs(a - b - 2.0 / (math.pi * z)) / bound)
    return IdentityReport(
        "EQ3_CLOSURE", {"nus": list(nus), "zs": list(zs)}, ratios, max(ratios), 0.0, 1.0
    )


def check_eq14_kernel(seed: int = 20260808) -> IdentityReport:
    """d/du_z + d/du_t of the kernel 1/(t^2 - z^2) vanishes: the sign that puts the
    alternating Sigma variant on the t side.  With lo, hi the smaller and larger of
    u = x^2/2 at z and t, ``derivative_block`` reads the kernel's block
    sum_{k<31} lo^k hi^(-k-1) / 2 as a series in lo (rows 0..30) and in hi (rows -31..-1).
    observed is |d_lo + d_hi| / |d_lo| at 20 random points with min(z, t) <= max(z, t) / 2.
    Tolerance 64 eps + 31 4^-30: d_lo + d_hi telescopes to -(31/2) lo^30 hi^-32, which
    is at most 31 (lo/hi)^30 <= 31 4^-30 of d_lo >= 1/(2 hi^2); each derivative sums
    31 terms of one sign, rounding below 32 eps of |d_lo|."""
    rng = random.Random(seed)
    points = []
    while len(points) < 20:
        z, t = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        if min(z, t) <= 0.5 * max(z, t):
            points.append(sorted((0.5 * z * z, 0.5 * t * t)))
    lo, hi = np.array(points).T[:, :, None]
    k, block = np.arange(31), np.full((31, 1), 0.5)
    d_lo = (derivative_block(block, 0)[:, 0] * lo ** (k - 1) * hi ** (-k - 1)).sum(axis=1)
    d_hi = (derivative_block(block, -31)[:, 0] * lo ** (30 - k) * hi ** (k - 32)).sum(axis=1)
    residuals = (np.abs(d_lo + d_hi) / np.abs(d_lo)).tolist()
    return IdentityReport(
        "EQ14_KERNEL", {"count": 20, "seed": seed}, residuals, max(residuals), 0.0, 64 * _EPS + 31 * 4.0**-30
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
