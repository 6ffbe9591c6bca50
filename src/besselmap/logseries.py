"""Finite log-power series and their exact derivative/antiderivative calculus.

Everything in this package lives in the variable ``u = z**2 / 2`` (or
``u = t**2 / 2`` for the second argument of the bilinear identities).  With
that choice the operator "twice the derivative with respect to z squared"
is exactly ``d/du``, and the matching antiderivative is exactly ``∫ du``.
Getting this factor of two right once, here, avoids factor-of-2 drift in
every operator built on top.

A :class:`LogPowerSeries` is a finite sum

    sum_{k,j} a[k,j] * u**k * (log u)**j

with integer powers ``k`` (negative allowed), non-negative integer log
powers ``j`` and complex coefficients.  ``K_trunc`` declares the highest
power that is *known*: powers above it are unrepresented, not zero.
Differentiation consumes one known power per application, so it lowers
``K_trunc``; antidifferentiation raises it.

Storage is dense: ``coef`` is a 2-D complex array whose row ``r`` holds
the power ``k_min + r`` and whose column ``j`` holds the log power ``j``.
The rows run from ``k_min`` up to ``K_trunc``; the first row and the last
column are not all zero, so ``k_min`` is the smallest power present and
``coef.shape[1] - 1`` the largest log power (an empty series has no rows
and ``k_min = 0``).  The public constructor takes a ``(k, j) -> complex``
mapping and validates it; results of the calculus are built directly from
arrays and are not validated again.  ``terms`` is a read-only mapping view
built on demand.

:meth:`LogPowerSeries.evaluate` takes a number or an array of points and sums
the non-zero terms, kept as vectors once a series is first evaluated, in one
numpy pass.  Each point adds its terms in increasing (k, j) order, with log u
from ``cmath.log``; at points u > 0 and powers |k| < 100, which is every point
the checkers sum at, that gives the bits of a scalar loop over the terms.  A
sum that is not finite raises OverflowError, without a numpy warning.

Integration constants are fixed to zero at every stage:

    ∫ u**k du            = u**(k+1) / (k+1)          (k != -1)
    ∫ u**-1 (log u)**j   = (log u)**(j+1) / (j+1)
    ∫ u**k (log u)**j du = by parts, no constant     (k != -1)

This is the unique convention that makes the single-step derivative a
left inverse of the single-step antiderivative termwise.

The two single-step operators are also exported as array kernels,
:func:`derivative_block` and :func:`antiderivative_block`, which act on a
coefficient block of shape ``(rows, J, *batch)``; :mod:`besselmap.sigmaop`
applies Sigma by running them on a series' real (re, im) block.
"""

from __future__ import annotations

import cmath
import math
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = ["LogPowerSeries", "antiderivative_block", "derivative_block"]

_TAGS = ("u-of-z", "u-of-t")

_set = object.__setattr__  # the constructors' way past the immutability guard

_EMPTY = np.zeros((0, 1), dtype=complex)  # the block of the empty series
_EMPTY.flags.writeable = False


def _real_block(coef: np.ndarray) -> np.ndarray:
    """A complex (rows, J) block as a real (rows, J, 2) block of (re, im) pairs.

    The calculus runs on this view so that every division is a real one:
    numpy's complex division multiplies by a reciprocal, which rounds
    differently from dividing each part, as the termwise rules do."""
    coef = np.ascontiguousarray(coef)
    return coef.view(np.float64).reshape(coef.shape + (2,))


def _complex_block(block: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_real_block`."""
    return np.ascontiguousarray(block).view(np.complex128)[..., 0]


def _column(values: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a 1-D vector so it broadcasts along axis 0 of an ndim array."""
    return values.reshape((-1,) + (1,) * (ndim - 1))


def derivative_block(coef: np.ndarray, k_min: int) -> np.ndarray:
    """One d/du on a block whose row r holds u^(k_min + r); the result's row
    r holds u^(k_min - 1 + r).

    d/du [u^k (log u)^j] = k u^(k-1) (log u)^j + j u^(k-1) (log u)^(j-1)
    """
    k = np.arange(k_min, k_min + coef.shape[0], dtype=float)
    out = coef * _column(k, coef.ndim)
    if coef.shape[1] > 1:
        j = np.arange(1, coef.shape[1], dtype=float)
        out[:, :-1] += coef[:, 1:] * j.reshape((1, -1) + (1,) * (coef.ndim - 2))
    return out


def antiderivative_block(coef: np.ndarray, k_min: int) -> np.ndarray:
    """One ∫ du on a block whose row r holds u^(k_min + r); the result's row r
    holds u^(k_min + 1 + r) and it has one more log column than the input.

    Rows with k != -1 integrate by parts down the log powers; the u^-1 row
    moves one log column up instead.
    """
    rows, J = coef.shape[:2]
    out = np.zeros((rows, J + 1) + coef.shape[2:], dtype=coef.dtype)
    kp1 = np.arange(k_min + 1, k_min + 1 + rows, dtype=float)
    r_log = -1 - k_min  # row of u^-1, if it lies in the block
    has_log_row = 0 <= r_log < rows
    if has_log_row:
        kp1[r_log] = 1.0  # placeholder divisor; the row is overwritten below
    kp1 = _column(kp1, coef.ndim - 1)  # divides one log column at a time
    for j in range(J):
        c = coef[:, j]
        for jj in range(j, -1, -1):
            out[:, jj] += c / kp1
            if jj:
                c = -c * jj / kp1
    if has_log_row:
        out[r_log] = 0.0
        steps = np.arange(1, J + 1, dtype=float).reshape((-1,) + (1,) * (coef.ndim - 2))
        out[r_log, 1:] = coef[r_log] / steps
    return out


class LogPowerSeries:
    """Immutable finite log-power series in u with declared truncation order.

    Parameters
    ----------
    variable_tag : "u-of-z" or "u-of-t"
        Which physical variable u abbreviates; series with different tags
        never mix.
    terms : mapping (k, j) -> complex
        Coefficient of u**k (log u)**j.  Zero coefficients are dropped.
    K_trunc : int
        Highest reliable power of u.  Terms with k > K_trunc are rejected.
    """

    __slots__ = ("variable_tag", "k_min", "K_trunc", "coef", "_vectors")

    def __init__(
        self,
        variable_tag: str,
        terms: Mapping[tuple[int, int], complex] | None = None,
        K_trunc: int = 0,
    ) -> None:
        _set(self, "variable_tag", variable_tag)
        _set(self, "K_trunc", K_trunc)
        self.__post_init__({} if terms is None else terms)

    def __post_init__(self, terms: Mapping[tuple[int, int], complex]) -> None:
        """Validate the public input and lay it out as the dense block.

        Only the public constructor runs this, so counting its calls counts
        the validated constructions (the benchmark's trace does)."""
        if self.variable_tag not in _TAGS:
            raise ValueError(f"unknown variable_tag {self.variable_tag!r}; expected one of {_TAGS}")
        cleaned: dict[tuple[int, int], complex] = {}
        for (k, j), a in terms.items():
            a = complex(a)
            if a == 0:
                continue
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValueError(f"non-finite coefficient at (k={k}, j={j}): {a}")
            if j < 0:
                raise ValueError(f"negative log power j={j}")
            cleaned[(int(k), int(j))] = a
        for (k, _j) in cleaned:
            if k > self.K_trunc:
                raise ValueError(
                    f"term u^{k} lies above the declared truncation order {self.K_trunc}"
                )
        k_min = min((k for k, _ in cleaned), default=0)
        J = max((j for _, j in cleaned), default=0) + 1
        coef = np.zeros((max(self.K_trunc - k_min + 1, 0), J), dtype=complex)
        for (k, j), a in cleaned.items():
            coef[k - k_min, j] = a
        self._store(k_min, coef)

    @classmethod
    def _from_block(cls, variable_tag: str, k_min: int, K_trunc: int, coef: np.ndarray):
        """Series from a coefficient block whose row r holds u^(k_min + r).

        The values are not validated: this is the constructor for results of
        the calculus, whose inputs were.
        """
        self = object.__new__(cls)
        _set(self, "variable_tag", variable_tag)
        _set(self, "K_trunc", K_trunc)
        self._store(k_min, coef)
        return self

    def _store(self, k_min: int, coef: np.ndarray) -> None:
        """Keep the block, row r holding u^(k_min + r), in canonical form: rows
        above K_trunc dropped, all-zero leading rows and trailing log columns
        trimmed, read-only."""
        coef = coef[: max(self.K_trunc - k_min + 1, 0)]
        rows = np.flatnonzero(coef.any(axis=1))
        if rows.size == 0:
            k_min, coef = 0, _EMPTY
        else:
            cols = np.flatnonzero(coef.any(axis=0))
            coef = coef[rows[0] :, : cols[-1] + 1]
            coef.flags.writeable = False
            k_min += int(rows[0])
        _set(self, "k_min", k_min)
        _set(self, "coef", coef)
        _set(self, "_vectors", None)

    def _term_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, k, j) of the non-zero terms in increasing (k, j) order, built on
        first use and kept read-only."""
        if self._vectors is None:
            rows, cols = np.nonzero(self.coef)
            vectors = (self.coef[rows, cols], rows + self.k_min, cols)
            for v in vectors:
                v.flags.writeable = False
            _set(self, "_vectors", vectors)
        return self._vectors

    # -- structural properties -------------------------------------------------

    @property
    def j_max(self) -> int:
        """Largest log power present (0 for the empty series)."""
        return self.coef.shape[1] - 1

    @property
    def terms(self) -> Mapping[tuple[int, int], complex]:
        """Read-only mapping (k, j) -> coefficient of the non-zero terms, in
        increasing (k, j) order."""
        a, k, j = self._term_vectors()
        return MappingProxyType(dict(zip(zip(k.tolist(), j.tolist()), a.tolist())))

    def coefficient(self, k: int, j: int = 0) -> complex:
        r = k - self.k_min
        if 0 <= r < self.coef.shape[0] and 0 <= j < self.coef.shape[1]:
            a = complex(self.coef[r, j])
            if a != 0:
                return a
        return 0.0 + 0.0j

    def __len__(self) -> int:
        return int(np.count_nonzero(self.coef))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogPowerSeries):
            return NotImplemented
        return (
            self.variable_tag == other.variable_tag
            and self.K_trunc == other.K_trunc
            and self.k_min == other.k_min
            and self.coef.shape == other.coef.shape
            and bool(np.all(self.coef == other.coef))
        )

    __hash__ = None  # type: ignore[assignment]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"LogPowerSeries is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        terms = self.terms
        head = ", ".join(f"({k},{j}): {a:.6g}" for (k, j), a in list(terms.items())[:4])
        more = "" if len(terms) <= 4 else f", ... {len(terms)} terms"
        return f"LogPowerSeries[{self.variable_tag}, K={self.K_trunc}]{{{head}{more}}}"

    # -- linear plumbing ---------------------------------------------------------

    def _check_tag(self, other: "LogPowerSeries") -> None:
        if self.variable_tag != other.variable_tag:
            raise ValueError(
                f"variable_tag mismatch: {self.variable_tag} vs {other.variable_tag}"
            )

    def _aligned(self, k_lo: int, k_hi: int, J: int) -> np.ndarray:
        """This series' coefficients on rows k_lo..k_hi and J log columns
        (k_lo <= k_min, J >= the series' own column count)."""
        out = np.zeros((k_hi - k_lo + 1, J), dtype=complex)
        src = self.coef[: max(k_hi - self.k_min + 1, 0)]
        r0 = self.k_min - k_lo
        out[r0 : r0 + src.shape[0], : src.shape[1]] = src
        return out

    def add(self, other: "LogPowerSeries") -> "LogPowerSeries":
        """Coefficientwise sum.  The result is reliable only up to the smaller
        K_trunc, so terms above it are discarded, not kept as if known."""
        self._check_tag(other)
        k_new = min(self.K_trunc, other.K_trunc)
        k_lo = min(self.k_min, other.k_min)
        if k_new < k_lo:
            return LogPowerSeries._from_block(self.variable_tag, 0, k_new, _EMPTY)
        J = max(self.coef.shape[1], other.coef.shape[1])
        out = self._aligned(k_lo, k_new, J)
        out += other._aligned(k_lo, k_new, J)
        return LogPowerSeries._from_block(self.variable_tag, k_lo, k_new, out)

    def scale(self, c: complex) -> "LogPowerSeries":
        return LogPowerSeries._from_block(self.variable_tag, self.k_min, self.K_trunc, self.coef * c)

    def __add__(self, other: "LogPowerSeries") -> "LogPowerSeries":
        return self.add(other)

    def __sub__(self, other: "LogPowerSeries") -> "LogPowerSeries":
        return self.add(other.scale(-1.0))

    def __neg__(self) -> "LogPowerSeries":
        return self.scale(-1.0)

    # -- calculus ----------------------------------------------------------------

    def derivative(self, m: int = 1) -> "LogPowerSeries":
        """m-fold d/du.  Exact termwise; lowers K_trunc by m."""
        if m < 1:
            raise ValueError("m must be a positive integer")
        block = _real_block(self.coef)
        for i in range(m):
            block = derivative_block(block, self.k_min - i)
        return LogPowerSeries._from_block(
            self.variable_tag, self.k_min - m, self.K_trunc - m, _complex_block(block)
        )

    def antiderivative(self, m: int = 1) -> "LogPowerSeries":
        """m-fold ∫ du with zero integration constant at every stage."""
        if m < 1:
            raise ValueError("m must be a positive integer")
        block = _real_block(self.coef)
        for i in range(m):
            block = antiderivative_block(block, self.k_min + i)
        return LogPowerSeries._from_block(
            self.variable_tag, self.k_min + m, self.K_trunc + m, _complex_block(block)
        )

    # -- evaluation and comparison -------------------------------------------------

    def evaluate(self, u: complex | np.ndarray) -> complex | np.ndarray:
        """Sum the series at u, a number or an array of numbers, using the
        principal branch of the logarithm.

        The non-zero terms are summed in one numpy pass over all the points,
        each point adding them in increasing (k, j) order.  A number gives a
        complex, an array a complex array of its shape, and an array call gives
        each point the bits of its own call.  A series that is singular at
        u = 0 (a negative power or a log term) raises ValueError there, and a
        sum that is not finite raises OverflowError.
        """
        points = np.asarray(u, dtype=complex)
        a, k, j = self._term_vectors()
        if not len(a):
            total = np.zeros(points.shape, dtype=complex)
            return complex(total) if total.ndim == 0 else total
        zero = points == 0
        at_zero = bool(zero.any())
        if at_zero:
            if self.k_min < 0 or self.j_max > 0:
                raise ValueError("series is singular at u = 0 (negative power or log term)")
            # summed at u = 1 below, then replaced by the constant term
            points = np.where(zero, 1.0, points)
        # cmath.log, not np.log: the two round differently at some points
        lu = np.array([cmath.log(x) for x in points.ravel().tolist()]).reshape(points.shape + (1,))
        with np.errstate(all="ignore"):
            terms = a * points[..., None] ** k * lu**j
            # accumulate adds in order, as a scalar loop does; + 0.0 turns a
            # -0.0 sum into the +0.0 that a loop starting from +0.0 gives
            total = np.add.accumulate(terms, axis=-1)[..., -1] + 0.0
        if at_zero:
            total = np.where(zero, self.coefficient(0, 0), total)
        values = total.ravel().tolist()
        if not all(map(cmath.isfinite, values)):
            raise OverflowError("the series' sum is not finite")
        return values[0] if total.ndim == 0 else total

    def compare(self, other: "LogPowerSeries", order: int) -> float:
        """Max coefficient distance over powers k <= order (absent terms are zero)."""
        self._check_tag(other)
        if order > min(self.K_trunc, other.K_trunc):
            raise ValueError(
                f"comparison order {order} exceeds reliable order "
                f"{min(self.K_trunc, other.K_trunc)}"
            )
        k_lo = min(self.k_min, other.k_min)
        if order < k_lo:
            return 0.0
        J = max(self.coef.shape[1], other.coef.shape[1])
        diff = self._aligned(k_lo, order, J) - other._aligned(k_lo, order, J)
        return max(map(abs, diff.ravel().tolist()), default=0.0)

    # -- serialization ---------------------------------------------------------------

    def to_records(self) -> dict:
        """Report form: sorted term records plus the structural metadata."""
        return {
            "variable_tag": self.variable_tag,
            "K_trunc": self.K_trunc,
            "terms": [
                {"k": k, "j": j, "re": a.real, "im": a.imag}
                for (k, j), a in self.terms.items()
            ],
        }

    @classmethod
    def from_records(cls, rec: dict) -> "LogPowerSeries":
        terms = {
            (int(t["k"]), int(t["j"])): complex(t["re"], t["im"]) for t in rec["terms"]
        }
        return cls(rec["variable_tag"], terms, int(rec["K_trunc"]))
