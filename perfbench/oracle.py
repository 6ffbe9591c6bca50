"""mpmath references at 30 significant digits, computed in a separate process.

Reads a JSON list of requests on stdin and writes a JSON list of
[real, imag] decimal strings on stdout.  Requests:

    ["J"|"Y"|"K", nu, x]     J_nu(x), Y_nu(x) (= N_nu), K_nu(x)
    ["H1"|"H2", nu, x]       J_nu(x) +/- i Y_nu(x)
    ["Z", n, x]              J_n(x) / x^n           (bessel pair Z_n)
    ["A", n, t]              t^(n-1) K_(n-1)(t)     (bessel pair A_n)
    ["S", z, t, N]           sum_{n=-N..N} Z_n(z) A_n(t), the exact partial sum

Running it in its own process keeps mpmath out of the measured process.
"""

from __future__ import annotations

import json
import sys

import mpmath

DIGITS = 30


def _partial_sum(z, t, n_max: int):
    # K_m(t) for m = 0..N+1 by the upward recurrence, stable for K
    k = [mpmath.besselk(0, t), mpmath.besselk(1, t)]
    for m in range(1, n_max + 1):
        k.append(k[m - 1] + 2 * m / t * k[m])
    total = mpmath.mpf(0)
    for m in range(0, n_max + 1):
        jm = mpmath.besselj(m, z)
        # Z_m = J_m(z)/z^m and Z_-m = (-1)^m J_m(z) z^m
        total += jm / z**m * t ** (m - 1) * k[abs(m - 1)]
        if m:
            total += (-1) ** m * jm * z**m * t ** (-m - 1) * k[m + 1]
    return total


def reference(req):
    kind, a, b = req[0], mpmath.mpf(req[1]), mpmath.mpf(req[2])
    if kind == "J":
        return mpmath.besselj(a, b)
    if kind == "Y":
        return mpmath.bessely(a, b)
    if kind == "K":
        return mpmath.besselk(a, b)
    if kind in ("H1", "H2"):
        sign = 1 if kind == "H1" else -1
        return mpmath.mpc(mpmath.besselj(a, b), sign * mpmath.bessely(a, b))
    if kind == "Z":
        return mpmath.besselj(a, b) / b**a
    if kind == "A":
        return b ** (a - 1) * mpmath.besselk(a - 1, b)
    if kind == "S":
        return _partial_sum(a, b, int(req[3]))
    raise ValueError(f"unknown reference kind {kind!r}")


def main() -> int:
    mpmath.mp.dps = DIGITS
    out = []
    for req in json.load(sys.stdin):
        v = mpmath.mpc(reference(req))
        out.append([mpmath.nstr(v.real, DIGITS), mpmath.nstr(v.imag, DIGITS)])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
