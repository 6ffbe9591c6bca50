"""The public API: its names, and the domain guards of its entry points."""

import math
import os
import subprocess
import sys

import pytest

import besselmap
from besselmap import (
    GeneratingPair,
    a_function,
    bessel_j,
    bessel_pair,
    bilinear_check,
    check_eq3_closure,
    check_integer_shift,
    hankel,
    k_bessel,
    lambda_taylor_target,
    neumann,
    z_function,
)
from besselmap.specfun import log_reduced_j, neumann_scaled_table

NAN = math.nan


def test_public_names_are_pinned():
    # a name added to or removed from the API changes this list on purpose
    assert besselmap.__all__ == [
        "EvalResult",
        "GeneratingPair",
        "IdentityReport",
        "LogPowerSeries",
        "ReliableOrderExhausted",
        "a_function",
        "apply_exp_sigma",
        "apply_sigma",
        "bessel_j",
        "bessel_pair",
        "bessel_t_series",
        "bilinear_check",
        "check_eq2_roundtrip",
        "check_eq3_closure",
        "check_eq3prime_order",
        "check_eq9_real",
        "check_eq11",
        "check_eq14_kernel",
        "check_eq15_order",
        "check_eq18_order",
        "check_integer_shift",
        "hankel",
        "hankel_t_series",
        "k_bessel",
        "lambda_coefficients",
        "lambda_taylor_target",
        "neumann",
        "neumann_t_series",
        "reduced_j_series",
        "run_suite",
        "z_function",
        "__version__",
    ]
    assert all(hasattr(besselmap, name) for name in besselmap.__all__)


_ORDER = r"\|nu\| = nan outside the supported order range"
_ARG = r"\|z\| = nan outside the supported range"
_T = r"^t = nan outside the supported range \(0, 20\.0\]$"

# (call, the domain error it raises): a NaN order, then a NaN argument, per entry point
_NAN_CALLS = {
    "bessel_j-order": (lambda: bessel_j(NAN, 1.0), _ORDER),
    "bessel_j-arg": (lambda: bessel_j(0.5, NAN), _ARG),
    "bessel_j-integer-arg": (lambda: bessel_j(1.0, NAN), _ARG),
    "neumann-order": (lambda: neumann(NAN, 1.0), _ORDER),
    "neumann-arg": (lambda: neumann(0.5, NAN), _ARG),
    "hankel-order": (lambda: hankel(1, NAN, 1.0), _ORDER),
    "hankel-arg": (lambda: hankel(2, 1.0, NAN), _ARG),
    "k_bessel-order": (lambda: k_bessel(NAN, 1.0), _ORDER),
    "k_bessel-arg": (lambda: k_bessel(0.5, NAN), _T),
    "lambda_taylor_target-order": (lambda: lambda_taylor_target("N", NAN, 1, 1.0), _ORDER),
    "lambda_taylor_target-probe": (lambda: lambda_taylor_target("N", 0, 1, NAN), _ARG),
    "z_function-order": (lambda: z_function(bessel_pair(), NAN, 1.0), "integer n"),
    "z_function-arg": (lambda: z_function(bessel_pair(), 1, NAN), _ARG),
    "a_function-order": (lambda: a_function(bessel_pair(), NAN, 1.0), "real order n; got n = nan"),
    "a_function-arg": (lambda: a_function(bessel_pair(), 1, NAN), _T),
    "bilinear_check-z": (lambda: bilinear_check(bessel_pair(), NAN, 2.0, 10), _ARG),
    "bilinear_check-t": (lambda: bilinear_check(bessel_pair(), 0.5, NAN, 10), _T),
    "log_reduced_j": (lambda: log_reduced_j(5, NAN), "z must be >= 0"),
    "neumann_scaled_table": (lambda: neumann_scaled_table(NAN, 5), _T),
    "check_integer_shift-t": (lambda: check_integer_shift(t=NAN), r"t must lie in \(0, 2\]"),
    "check_eq3_closure-order": (lambda: check_eq3_closure(nus=(NAN,)), _ORDER),
    "check_eq3_closure-arg": (lambda: check_eq3_closure(zs=(NAN,)), _ARG),
    "bessel_pair-nan-radius": (lambda: bessel_pair(radius=NAN), "positive and finite"),
    "bessel_pair-inf-radius": (lambda: bessel_pair(radius=math.inf), "positive and finite"),
    "pair-nan-omega": (
        lambda: GeneratingPair("nan", lambda tau: tau * NAN, lambda x: 1.0 / (2.0 * x)),
        "inverse check failed",
    ),
}


@pytest.mark.parametrize("case", _NAN_CALLS)
def test_nan_input_raises_the_domain_error(case):
    call, message = _NAN_CALLS[case]
    with pytest.raises(ValueError, match=message):
        call()


_T_RANGE = r"outside the supported range \(0, 20\.0\]$"

# (call, the domain error it raises) for the pair functions' finite guards
_PAIR_DOMAIN_CALLS = {
    "a_function-inf-t": (lambda: a_function(bessel_pair(), 3, math.inf), r"^t = inf " + _T_RANGE),
    "a_function-t-25": (lambda: a_function(bessel_pair(), 3, 25.0), r"^t = 25\.0 " + _T_RANGE),
    "a_function-inf-order": (
        lambda: a_function(bessel_pair(), math.inf, 2.0),
        r"^A_n needs a finite real order n; got n = inf$",
    ),
    "a_function-minus-inf-order": (lambda: a_function(bessel_pair(), -math.inf, 2.0), r"got n = -inf$"),
    "bilinear_check-inf-t": (lambda: bilinear_check(bessel_pair(), 0.5, math.inf, 10), r"^t = inf " + _T_RANGE),
    "bilinear_check-t-25": (lambda: bilinear_check(bessel_pair(), 0.5, 25.0, 10), r"^t = 25\.0 " + _T_RANGE),
    "bilinear_check-bool-N": (
        lambda: bilinear_check(bessel_pair(), 0.5, 2.0, True),
        r"^N must be an int >= 1; got N = True$",
    ),
    "bilinear_check-float-N": (
        lambda: bilinear_check(bessel_pair(), 0.5, 2.0, 10.0),
        r"^N must be an int >= 1; got N = 10\.0$",
    ),
}


@pytest.mark.parametrize("case", _PAIR_DOMAIN_CALLS)
def test_pair_functions_reject_input_outside_their_domain(case):
    # t as k_bessel takes it, 0 < t <= 20; a finite order; an int N
    call, message = _PAIR_DOMAIN_CALLS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_log_reduced_j_rejects_an_infinite_z():
    # an infinite z would sum to NaN terms; the guard's message keeps its "z must be >= 0" prefix
    with pytest.raises(ValueError, match="^z must be >= 0 and finite$"):
        log_reduced_j(5, math.inf)


def test_import_and_suite_leave_numpy_fft_unloaded():
    """Only the contour sampler uses numpy.fft, and it reaches it at call time:
    importing besselmap and running the suite do not load it."""
    src = os.path.dirname(os.path.dirname(besselmap.__file__))
    code = (
        "import sys, besselmap\n"
        "loaded = lambda: 'numpy.fft' in sys.modules\n"
        "a = loaded(); besselmap.run_suite(); b = loaded()\n"
        "besselmap.z_function(besselmap.bessel_pair(), 1, 0.5)\n"
        "print(a, b, loaded())\n"
    )
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False False True\n"
